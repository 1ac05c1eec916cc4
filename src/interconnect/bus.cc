#include "interconnect/bus.hh"

#include "sim/hostprof.hh"

#include <utility>

#include "sim/logging.hh"

namespace relief
{

Bus::Bus(Simulator &sim, std::string name, const BusConfig &config)
    : Interconnect(sim, std::move(name)), config_(config),
      channel_(this->name() + ".channel", config.bandwidthGBs,
               config.arbitrationLatency)
{
}

PortId
Bus::registerPort(const std::string &port_name)
{
    portNames_.push_back(port_name);
    return PortId(portNames_.size()) - 1;
}

std::vector<BandwidthResource *>
Bus::path(PortId src, PortId dst)
{
    HostProfScope prof(HostCat::Interconnect);
    RELIEF_ASSERT(src >= 0 && src < numPorts(), name(), ": bad src port ",
                  src);
    RELIEF_ASSERT(dst >= 0 && dst < numPorts(), name(), ": bad dst port ",
                  dst);
    RELIEF_ASSERT(src != dst, name(), ": transfer to self on port ", src);
    return {&channel_};
}

} // namespace relief
