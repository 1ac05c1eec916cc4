#include "interconnect/ring.hh"

#include "sim/hostprof.hh"

#include <utility>

#include "sim/logging.hh"

namespace relief
{

Ring::Ring(Simulator &sim, std::string name, const RingConfig &config)
    : Interconnect(sim, std::move(name)), config_(config)
{
}

PortId
Ring::registerPort(const std::string &port_name)
{
    Link link;
    link.clockwise = std::make_unique<BandwidthResource>(
        name() + "." + port_name + ".cw", config_.linkBandwidthGBs,
        config_.hopLatency);
    link.counterClockwise = std::make_unique<BandwidthResource>(
        name() + "." + port_name + ".ccw", config_.linkBandwidthGBs,
        config_.hopLatency);
    links_.push_back(std::move(link));
    return PortId(links_.size()) - 1;
}

int
Ring::hopCount(PortId src, PortId dst) const
{
    int n = numPorts();
    RELIEF_ASSERT(n >= 2, name(), ": ring needs >= 2 ports");
    int cw = (dst - src + n) % n;
    int ccw = n - cw;
    return std::min(cw, ccw);
}

std::vector<BandwidthResource *>
Ring::path(PortId src, PortId dst)
{
    HostProfScope prof(HostCat::Interconnect);
    int n = numPorts();
    RELIEF_ASSERT(src >= 0 && src < n, name(), ": bad src port ", src);
    RELIEF_ASSERT(dst >= 0 && dst < n, name(), ": bad dst port ", dst);
    RELIEF_ASSERT(src != dst, name(), ": transfer to self on port ", src);

    int cw = (dst - src + n) % n;
    int ccw = n - cw;
    std::vector<BandwidthResource *> out;
    if (cw <= ccw) {
        // Clockwise: segment i joins port i and i+1.
        for (int hop = 0; hop < cw; ++hop) {
            int seg = (src + hop) % n;
            out.push_back(links_[std::size_t(seg)].clockwise.get());
        }
    } else {
        for (int hop = 0; hop < ccw; ++hop) {
            int seg = (src - 1 - hop + 2 * n) % n;
            out.push_back(
                links_[std::size_t(seg)].counterClockwise.get());
        }
    }
    return out;
}

} // namespace relief
