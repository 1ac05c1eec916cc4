/**
 * @file
 * Pipelined bandwidth server.
 *
 * Every throughput-limited component in the modeled SoC (DRAM channel,
 * bus, crossbar ports, scratchpad ports, DMA channels) is represented by
 * a BandwidthResource: a FIFO-arbitrated pipe with a fixed access
 * latency and a byte rate. A transfer that crosses several resources
 * starts when the last of them becomes free and completes after the sum
 * of fixed latencies plus bytes divided by the bottleneck bandwidth;
 * each resource stays busy for bytes divided by its *own* bandwidth,
 * which is what creates queueing for later requesters.
 *
 * This transaction-level model captures contention, occupancy, and
 * traffic volume — the quantities RELIEF's evaluation depends on —
 * without per-beat events.
 */

#ifndef RELIEF_MEM_BANDWIDTH_RESOURCE_HH
#define RELIEF_MEM_BANDWIDTH_RESOURCE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/ticks.hh"
#include "stats/interval_union.hh"
#include "stats/stats.hh"

namespace relief
{

class PressureLedger;
struct RequestorTag;

class BandwidthResource
{
  public:
    /**
     * @param name         Debug name, e.g. "dram.channel0".
     * @param gbPerSec     Sustainable byte rate (1 GB/s == 1 B/ns).
     * @param fixedLatency Per-transfer pipe latency in ticks.
     */
    BandwidthResource(std::string name, double gbPerSec, Tick fixedLatency);

    const std::string &name() const { return name_; }
    double bandwidth() const { return gbPerSec_; }
    Tick fixedLatency() const { return fixedLatency_; }

    /** Earliest tick at which a new transfer could begin here. */
    Tick nextFree() const { return nextFree_; }

    /** Time this resource is held by a transfer of @p bytes. */
    Tick holdTime(std::uint64_t bytes) const;

    /**
     * Reserve the resource for @p bytes, starting no earlier than
     * @p earliest. Advances nextFree and records the busy interval.
     * @return the tick at which the reservation begins.
     */
    Tick claim(Tick earliest, std::uint64_t bytes);

    /**
     * Tagged claim: same reservation mechanics, but the queueing
     * delay is measured against @p request_time (when the transfer
     * asked for the pipe, which reserveTransfer may have pushed past
     * via other resources in the chain) and the attached pressure
     * ledger attributes it to @p tag. The untagged claim() overload
     * is claim(earliest, bytes, earliest, untagged). @p earliest must
     * not precede @p request_time; FIFO queueing then starts every
     * claim after every earlier request time, so the busy time before
     * the latest one is final.
     */
    Tick claim(Tick earliest, std::uint64_t bytes, Tick request_time,
               const RequestorTag &tag);

    /** Total bytes that have crossed this resource. */
    std::uint64_t totalBytes() const { return totalBytes_.value(); }

    /** Number of reservations made. */
    std::uint64_t numTransfers() const { return numTransfers_.value(); }

    /**
     * Aggregate queueing delay suffered here: for each claim, how far
     * the pipe's existing backlog pushed it past its request time.
     * The pressure ledger's per-key waitSuffered sums to exactly this.
     */
    Tick waitTime() const { return waitTicks_; }

    /** Hook this resource into @p ledger as resource @p resource_id. */
    void
    attachLedger(PressureLedger *ledger, int resource_id)
    {
        ledger_ = ledger;
        ledgerId_ = resource_id;
    }

    PressureLedger *ledger() const { return ledger_; }
    int ledgerId() const { return ledgerId_; }

    /** Time covered by at least one reservation, clipped to [0, upTo).
     *  @p upTo must not precede any claim's request time. */
    Tick busyTime(Tick upTo = maxTick) const { return busy_.covered(upTo); }

    /** Fraction of [0, upTo) covered by reservations. */
    double occupancy(Tick upTo) const;

    void resetStats();

  private:
    std::string name_;
    double gbPerSec_;
    Tick fixedLatency_;
    Tick nextFree_ = 0;
    Counter totalBytes_;
    Counter numTransfers_;
    Tick waitTicks_ = 0;
    IntervalUnion busy_;
    PressureLedger *ledger_ = nullptr;
    int ledgerId_ = -1;
};

/**
 * Timing of a transfer across a chain of resources.
 */
struct TransferTiming
{
    Tick start; ///< When the transfer begins moving.
    Tick end;   ///< When the last byte lands at the destination.
};

/**
 * Reserve every resource in @p path for a @p bytes transfer requested at
 * @p now, and return the resulting timing. The transfer starts when all
 * resources are free; it completes after the sum of their fixed
 * latencies plus bytes over the bottleneck bandwidth.
 */
TransferTiming reserveTransfer(const std::vector<BandwidthResource *> &path,
                               Tick now, std::uint64_t bytes);

/**
 * Tagged variant: identical timing, but each resource in the chain
 * measures the claim's queueing delay against @p now and attributes it
 * to @p tag through its attached pressure ledger.
 */
TransferTiming reserveTransfer(const std::vector<BandwidthResource *> &path,
                               Tick now, std::uint64_t bytes,
                               const RequestorTag &tag);

} // namespace relief

#endif // RELIEF_MEM_BANDWIDTH_RESOURCE_HH
