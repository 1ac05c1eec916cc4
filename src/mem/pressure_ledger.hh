/**
 * @file
 * Memory-pressure attribution ledger.
 *
 * Every BandwidthResource in the modeled SoC (DRAM channel, banks,
 * per-accelerator DMA read/write channels, scratchpad ports,
 * interconnect links) serializes transfers FIFO, so a transfer both
 * *suffers* queueing delay (it starts after its request time because
 * earlier reservations hold the pipe) and *causes* it (later
 * requesters wait behind its reservation). The ledger attributes both
 * directions per resource x requestor key, where a key is the dense
 * encoding of (source accelerator, QoS class, traffic type). This is
 * the observability substrate for RELIEF's central claim: it shows
 * *who* is pressuring each memory-plane resource, not just how busy
 * the resource is.
 *
 * Hot-path contract: the ledger is not on the claim path. seal()
 * hands each registered resource its row of the pre-sized slot table,
 * and the resource's claim bumps its own key's slot there — no
 * allocation, no hashing, no call. The reservation record is the
 * resource's too: each resource's FIFO record of outstanding
 * reservations carries their keys. When a claim waits, the resource
 * walks the wait interval over that record and charges each overlap to
 * that reservation's key, so per resource the sum of delay-caused
 * always equals the sum of delay-suffered.
 */

#ifndef RELIEF_MEM_PRESSURE_LEDGER_HH
#define RELIEF_MEM_PRESSURE_LEDGER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/bandwidth_resource.hh"
#include "sim/ticks.hh"
#include "stats/json.hh"

namespace relief
{

/** Traffic type crossing the DMA/DRAM plane, for attribution. */
enum class PressureTraffic : std::uint8_t
{
    DramFetch = 0, ///< DRAM -> SPM operand fetch.
    Writeback = 1, ///< SPM -> DRAM write-back of an output.
    Forward = 2,   ///< Producer SPM -> consumer SPM over the fabric.
    SpmSpill = 3,  ///< Forced write-back when a partition is evicted.
};

constexpr int numPressureTraffic = 4;

const char *pressureTrafficName(PressureTraffic traffic);

/**
 * Identity of one transfer for contention attribution. source/qosClass
 * index the ledger's registered tables; requestId (DAG span or node
 * id) rides along for debug logging only — it is unbounded, so it is
 * deliberately not part of the dense slot key.
 */
struct RequestorTag
{
    std::int16_t source = -1; ///< Ledger source id; -1 == untagged.
    std::uint8_t qosClass = 0;
    PressureTraffic traffic = PressureTraffic::DramFetch;
    std::uint64_t requestId = 0;
};

class PressureLedger
{
  public:
    PressureLedger();

    // --- Registration (construction time; allocates) ---

    /** Register a traffic source (an accelerator). @return its id. */
    int addSource(const std::string &name);

    /** Register a QoS class. Class 0 ("default") is pre-registered. */
    int addQosClass(const std::string &name);

    /**
     * Register @p res and attach the ledger to it, so every claim the
     * resource serves is counted here; @p res must not have claimed
     * yet. @return the resource id.
     */
    int addResource(BandwidthResource &res);

    /**
     * Freeze the key space, allocate the slot table and give each
     * resource its row. Must run after all sources/classes/resources
     * are registered and before the first claim; a claim on a resource
     * of an unsealed ledger panics.
     */
    void seal();
    bool sealed() const { return sealed_; }

    int numSources() const { return int(sources_.size()); }
    int numQosClasses() const { return int(qosClasses_.size()); }
    int numResources() const { return int(resources_.size()); }

    /** Dense keys: 0 is the untagged bucket, then S x Q x T slots. */
    int numKeys() const { return numKeys_; }
    /** Inline: the claim path computes one key per transfer. */
    int keyFor(const RequestorTag &tag) const
    {
        if (tag.source < 0 || tag.source >= numSources() ||
            tag.qosClass >= qosClasses_.size()) {
            return 0;
        }
        return 1 +
               (int(tag.source) * numQosClasses() + int(tag.qosClass)) *
                   numPressureTraffic +
               int(tag.traffic);
    }
    int keySource(int key) const;  ///< -1 for the untagged key.
    int keyQos(int key) const;     ///< 0 for the untagged key.
    PressureTraffic keyTraffic(int key) const;

    const std::string &sourceName(int source) const;
    const std::string &qosClassName(int qos) const;
    const BandwidthResource &resource(int id) const;

    // --- Accounting views ---

    using Slot = PressureSlot;

    const Slot &slot(int resource, int key) const;

    /** Sum of all slots of @p resource: its counters. */
    Slot resourceTotal(int resource) const;

    /** Claim-weighted rollup of one QoS class across all resources. */
    Slot qosTotal(int qos) const;

    /**
     * Reservations of @p resource still outstanding at @p now —
     * queued or in flight. This is the queue-depth sampler probe.
     */
    int queueDepth(int resource, Tick now) const;

    /** One contender row: a key with traffic, sorted for reporting. */
    struct Contender
    {
        int key = 0;
        Slot slot;
    };

    /**
     * Top @p k keys of @p resource by delay caused (ties: bytes, then
     * key id — fully deterministic). Reporting path; allocates.
     */
    std::vector<Contender> topContenders(int resource, int k) const;

    /** Contenders listed per resource in the pressure document. */
    static constexpr int reportedContenders = 8;

    /** Workload-level byte totals the caller knows and we do not. */
    struct Summary
    {
        std::uint64_t dramBytes = 0;
        std::uint64_t fabricBytes = 0;
        std::uint64_t sparedColocationBytes = 0;
        std::uint64_t sparedForwardBytes = 0;
    };

    /**
     * Emit the pressure document body as the next value: totals,
     * per-QoS rollups, and per-resource contender tables (the top
     * reportedContenders of each). When @p schema
     * is non-null it is emitted as a leading "schema" field (the
     * relief-pressure-v1 artifact); pass nullptr to embed the same body
     * inside another document (the stats JSON "pressure" block).
     */
    void writeJson(JsonWriter &w, Tick end_tick, const Summary &summary,
                   const char *schema) const;

  private:
    std::vector<std::string> sources_;
    std::vector<std::string> qosClasses_;
    std::vector<BandwidthResource *> resources_;
    std::vector<Slot> slots_; ///< numResources x numKeys, row-major.
    int numKeys_ = 0;
    bool sealed_ = false;
};

} // namespace relief

#endif // RELIEF_MEM_PRESSURE_LEDGER_HH
