/**
 * @file
 * Bidirectional ring interconnect — the middle point of the
 * cost/performance spectrum between the shared bus and the full
 * crossbar (Section V-H evaluates the two extremes; rings are what
 * many real SoCs actually ship).
 *
 * Each adjacent port pair is connected by two directed links (one per
 * rotation direction). A transfer takes the shorter direction and
 * claims every link segment it traverses, so transfers whose paths do
 * not overlap proceed concurrently while overlapping paths contend on
 * the shared segments.
 */

#ifndef RELIEF_INTERCONNECT_RING_HH
#define RELIEF_INTERCONNECT_RING_HH

#include <memory>
#include <string>
#include <vector>

#include "interconnect/interconnect.hh"

namespace relief
{

/** Configuration for Ring. */
struct RingConfig
{
    double linkBandwidthGBs = 14.9; ///< Per-link bandwidth.
    Tick hopLatency = fromNs(1.0);  ///< Per-segment router latency.
};

class Ring : public Interconnect
{
  public:
    Ring(Simulator &sim, std::string name, const RingConfig &config = {});

    PortId registerPort(const std::string &port_name) override;
    std::vector<BandwidthResource *> path(PortId src, PortId dst) override;
    int numPorts() const override { return int(links_.size()); }
    std::vector<BandwidthResource *> resources() override
    {
        std::vector<BandwidthResource *> all;
        for (Link &link : links_) {
            all.push_back(link.clockwise.get());
            all.push_back(link.counterClockwise.get());
        }
        return all;
    }

    /** Hops a src -> dst transfer traverses (shorter direction). */
    int hopCount(PortId src, PortId dst) const;

  private:
    struct Link
    {
        std::unique_ptr<BandwidthResource> clockwise;
        std::unique_ptr<BandwidthResource> counterClockwise;
    };

    RingConfig config_;
    /** links_[i] joins port i and port (i + 1) % numPorts(). */
    std::vector<Link> links_;
};

} // namespace relief

#endif // RELIEF_INTERCONNECT_RING_HH
