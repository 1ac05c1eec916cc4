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
 * Each resource keeps the one FIFO record of its outstanding
 * reservations; its busy time, its queue depth and the caused-wait
 * walk read it. A claim that waits zero finds every held reservation
 * ended and drops the record at once; a claim that waits prunes the
 * entries ended by its request time and walks the rest.
 *
 * A resource's counters are one row of pressure slots, one slot per
 * ledger key: its row in the pressure ledger that sealed it, or a
 * one-slot row of its own when no ledger is attached. A claim bumps
 * its key's slot; the totals and the busy time sum the row.
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

namespace relief
{

class PressureLedger;
struct RequestorTag;
struct TransferTiming;

/** One resource x requestor-key cell of pressure accounting. */
struct PressureSlot
{
    std::uint64_t bytes = 0;
    std::uint64_t transfers = 0;
    Tick serviceTicks = 0;  ///< Time the resource was held.
    Tick waitSuffered = 0;  ///< Delay this key's transfers ate.
    Tick waitCaused = 0;    ///< Delay this key inflicted on others.

    void
    accumulate(const PressureSlot &other)
    {
        bytes += other.bytes;
        transfers += other.transfers;
        serviceTicks += other.serviceTicks;
        waitSuffered += other.waitSuffered;
        waitCaused += other.waitCaused;
    }
};

class BandwidthResource
{
  public:
    /**
     * @param name         Debug name, e.g. "dram.channel0".
     * @param gbPerSec     Sustainable byte rate (1 GB/s == 1 B/ns).
     * @param fixedLatency Per-transfer pipe latency in ticks.
     */
    BandwidthResource(std::string name, double gbPerSec, Tick fixedLatency);

    /** Pinned: the counter row of a resource without a ledger is its
     *  own member. */
    BandwidthResource(const BandwidthResource &) = delete;
    BandwidthResource &operator=(const BandwidthResource &) = delete;

    const std::string &name() const { return name_; }
    double bandwidth() const { return gbPerSec_; }
    Tick fixedLatency() const { return fixedLatency_; }

    /** Earliest tick at which a new transfer could begin here. */
    Tick nextFree() const { return nextFree_; }

    /** Time this resource is held by a transfer of @p bytes. */
    Tick holdTime(std::uint64_t bytes) const;

    /**
     * Reserve the resource for @p bytes, starting no earlier than
     * @p earliest. Advances nextFree and records the reservation.
     * @return the tick at which the reservation begins.
     */
    Tick claim(Tick earliest, std::uint64_t bytes);

    /**
     * Tagged claim: same reservation mechanics, but the queueing
     * delay is measured against @p request_time (when the transfer
     * asked for the pipe, which reserveTransfer may have pushed past
     * via other resources in the chain) and counted in the slot of
     * @p tag's key in the attached ledger. The untagged claim() overload
     * is claim(earliest, bytes, earliest, untagged). @p earliest must
     * not precede @p request_time; FIFO queueing then starts every
     * claim after every earlier request time, so the busy time before
     * the latest one is final. @p request_time may lag an earlier
     * claim's (claimRoute's never do); the wait walk then charges the
     * part of the wait that reservations pruned at that earlier
     * request time caused to the next reservation still held.
     */
    Tick claim(Tick earliest, std::uint64_t bytes, Tick request_time,
               const RequestorTag &tag);

    /** Sum of the counter row: every claim's slot. */
    PressureSlot total() const;

    /** Total bytes that have crossed this resource. */
    std::uint64_t totalBytes() const { return total().bytes; }

    /** Number of reservations made. */
    std::uint64_t numTransfers() const { return total().transfers; }

    /**
     * Aggregate queueing delay suffered here: for each claim, how far
     * the pipe's existing backlog pushed it past its request time.
     */
    Tick waitTime() const { return total().waitSuffered; }

    /** Id in the pressure ledger that registered this resource. */
    int ledgerId() const { return ledgerId_; }

    /** Time covered by reservations, clipped to [0, upTo): holds never
     *  overlap. @p upTo must not precede any claim's request time. */
    Tick busyTime(Tick upTo = maxTick) const;

    /**
     * Reservations still outstanding at @p now — queued or in flight.
     * Exact for @p now at or after the latest request time: a claim
     * drops the entries ended by its request time.
     */
    int queueDepth(Tick now) const;

    /** Fraction of [0, upTo) covered by reservations. */
    double occupancy(Tick upTo) const;

  private:
    friend class PressureLedger; // attaches the counter row
    /** The one claim loop, behind every reserveTransfer. */
    friend TransferTiming
    claimRoute(const std::vector<BandwidthResource *> &hops,
               Tick latency_sum, BandwidthResource &slowest, Tick now,
               std::uint64_t bytes, const RequestorTag &tag);

    /** One claim, its ledger key already resolved. */
    Tick reserve(Tick earliest, std::uint64_t bytes, Tick request_time,
                 int key);

    /** Charge a claim's wait [request_time, request_time + pending) to
     *  the reservations that caused it. */
    void chargeWait(Tick request_time, Tick pending);

    [[noreturn]] void unsealedPanic() const;

    struct Reservation
    {
        Tick start;
        Tick end;
        std::int32_t key; ///< Pressure-ledger key of the claim.
    };

    std::string name_;
    double gbPerSec_;
    Tick fixedLatency_;
    Tick nextFree_ = 0;
    std::uint64_t holdBytes_ = 0; ///< Byte count hold_ was computed for.
    Tick hold_ = 0;
    Tick latestRequest_ = 0; ///< Latest request time of any claim.
    /** The record, oldest first; entries before head_ have ended. The
     *  newest ends at nextFree_. */
    std::vector<Reservation> held_;
    std::size_t head_ = 0;
    /** The counters, one slot per key: ownSlot_, the ledger's row once
     *  sealed, or null while attached to an unsealed ledger. */
    PressureSlot *row_ = &ownSlot_;
    int rowKeys_ = 1;
    PressureSlot ownSlot_;
    PressureLedger *ledger_ = nullptr;
    int ledgerId_ = -1;
};

/** Timing of a transfer across a chain of resources. */
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

/** A resource chain with the constants its transfers share, computed
 *  once (DmaEngine's route tables) instead of per transfer. */
struct ResourceRoute
{
    std::vector<BandwidthResource *> hops;
    Tick latencySum = 0;                  ///< Sum of fixed latencies.
    BandwidthResource *slowest = nullptr; ///< First least-bandwidth hop.

    void finish(); ///< Recompute the constants after editing hops.
};

/** Tagged reserveTransfer over a route. */
TransferTiming reserveTransfer(const ResourceRoute &route, Tick now,
                               std::uint64_t bytes, const RequestorTag &tag);

} // namespace relief

#endif // RELIEF_MEM_BANDWIDTH_RESOURCE_HH
