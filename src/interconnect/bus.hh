/**
 * @file
 * Shared full-duplex bus (Table VI: 16 B wide, 14.9 GB/s peak).
 *
 * All transfers share one payload channel, so concurrent DMA streams
 * serialize — this is the contention RELIEF's forwarding is trying to
 * relieve at the memory controller, reproduced at the fabric level.
 */

#ifndef RELIEF_INTERCONNECT_BUS_HH
#define RELIEF_INTERCONNECT_BUS_HH

#include <string>
#include <vector>

#include "interconnect/interconnect.hh"

namespace relief
{

/** Configuration for Bus. */
struct BusConfig
{
    double bandwidthGBs = 14.9;          ///< Payload bandwidth.
    Tick arbitrationLatency = fromNs(5.0); ///< Grant + setup time.
};

class Bus : public Interconnect
{
  public:
    Bus(Simulator &sim, std::string name, const BusConfig &config = {});

    PortId registerPort(const std::string &port_name) override;
    std::vector<BandwidthResource *> path(PortId src, PortId dst) override;
    int numPorts() const override { return int(portNames_.size()); }
    std::vector<BandwidthResource *> resources() override
    {
        return {&channel_};
    }

    const BandwidthResource &channel() const { return channel_; }

  private:
    BusConfig config_;
    BandwidthResource channel_;
    std::vector<std::string> portNames_;
};

} // namespace relief

#endif // RELIEF_INTERCONNECT_BUS_HH
