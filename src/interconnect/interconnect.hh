/**
 * @file
 * Interconnect abstraction on the SoC's DMA plane.
 *
 * Accelerator DMA engines and the main-memory channel attach to the
 * interconnect through numbered ports. A concrete topology (Bus or
 * Crossbar, the two ends of the cost/performance spectrum evaluated in
 * the paper's Section V-H) maps a (source, destination) port pair to the
 * chain of bandwidth resources a transfer must claim.
 */

#ifndef RELIEF_INTERCONNECT_INTERCONNECT_HH
#define RELIEF_INTERCONNECT_INTERCONNECT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/bandwidth_resource.hh"
#include "sim/debug.hh"
#include "sim/simulator.hh"
#include "stats/interval_union.hh"
#include "stats/stats.hh"

namespace relief
{

/** Interconnect attachment point. */
using PortId = int;

class Interconnect : public SimObject
{
  public:
    using SimObject::SimObject;

    /** Attach a device; returns its port id. */
    virtual PortId registerPort(const std::string &port_name) = 0;

    /** Resources a transfer from @p src to @p dst must claim, in order. */
    virtual std::vector<BandwidthResource *> path(PortId src, PortId dst) = 0;

    /** Record a completed reservation for occupancy accounting. */
    void
    recordTransfer(Tick start, Tick end, std::uint64_t bytes)
    {
        busy_.add(now(), start, end);
        bytes_.add(bytes);
        transfers_.add(1);
        DPRINTF(Fabric, bytes, " bytes reserved [", start, ", ", end,
                ")");
    }

    /** Time during which at least one transaction was in flight,
     *  clipped to [0, upTo); @p upTo must not precede the latest
     *  recordTransfer() call's now(). */
    Tick busyTime(Tick upTo = maxTick) const { return busy_.covered(upTo); }

    /** Fraction of [0, upTo) with at least one transaction in flight. */
    double
    occupancy(Tick upTo) const
    {
        return upTo ? double(busyTime(upTo)) / double(upTo) : 0.0;
    }

    std::uint64_t totalBytes() const { return bytes_.value(); }
    std::uint64_t numTransfers() const { return transfers_.value(); }

    /** Number of registered ports. */
    virtual int numPorts() const = 0;

    /**
     * Every bandwidth resource this topology arbitrates (links, port
     * egress/ingress pipes), for pressure-ledger registration. Order
     * must be deterministic: topology construction order.
     */
    virtual std::vector<BandwidthResource *> resources() = 0;

  private:
    IntervalUnion busy_;
    Counter bytes_;
    Counter transfers_;
};

} // namespace relief

#endif // RELIEF_INTERCONNECT_INTERCONNECT_HH
