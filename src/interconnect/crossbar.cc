#include "interconnect/crossbar.hh"

#include "sim/hostprof.hh"

#include <utility>

#include "sim/logging.hh"

namespace relief
{

Crossbar::Crossbar(Simulator &sim, std::string name,
                   const CrossbarConfig &config)
    : Interconnect(sim, std::move(name)), config_(config)
{
}

PortId
Crossbar::registerPort(const std::string &port_name)
{
    Port port;
    port.egress = std::make_unique<BandwidthResource>(
        name() + "." + port_name + ".egress", config_.portBandwidthGBs,
        config_.routeLatency);
    port.ingress = std::make_unique<BandwidthResource>(
        name() + "." + port_name + ".ingress", config_.portBandwidthGBs,
        config_.routeLatency);
    ports_.push_back(std::move(port));
    return PortId(ports_.size()) - 1;
}

std::vector<BandwidthResource *>
Crossbar::path(PortId src, PortId dst)
{
    HostProfScope prof(HostCat::Interconnect);
    RELIEF_ASSERT(src >= 0 && src < numPorts(), name(), ": bad src port ",
                  src);
    RELIEF_ASSERT(dst >= 0 && dst < numPorts(), name(), ": bad dst port ",
                  dst);
    RELIEF_ASSERT(src != dst, name(), ": transfer to self on port ", src);
    return {ports_[std::size_t(src)].egress.get(),
            ports_[std::size_t(dst)].ingress.get()};
}

} // namespace relief
