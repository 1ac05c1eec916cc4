/**
 * @file
 * Accelerator-private scratchpad memory.
 *
 * Per the paper's system architecture (Fig. 3 / Table IV), every
 * accelerator owns a scratchpad that is exposed read-only on the
 * non-coherent DMA plane so consumers can pull data directly from it
 * (forwarding). The scratchpad is divided into partitions: an input
 * staging area plus a double-buffered output area. Each output
 * partition tracks the node whose output it holds, how many consumers
 * are currently reading it (`ongoing_reads`, which enforces
 * write-after-read ordering), and whether the data has also been
 * written back to main memory.
 */

#ifndef RELIEF_MEM_SCRATCHPAD_HH
#define RELIEF_MEM_SCRATCHPAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/bandwidth_resource.hh"
#include "sim/simulator.hh"
#include "stats/stats.hh"

namespace relief
{

/** Configuration for a Scratchpad. */
struct ScratchpadConfig
{
    std::uint64_t sizeBytes = 262144; ///< Total capacity (Table I).
    int numOutputPartitions = 3;      ///< Table IV: max 3 partitions.
    double portGBs = 16.0;            ///< Port bandwidth (16 B @ 1 GHz).
    Tick portLatency = fromNs(2.0);   ///< SRAM access latency.
    double readEnergyPJPerByte = 1.2;
    double writeEnergyPJPerByte = 1.4;
};

/** Bookkeeping for one output partition (paper Table IV fields). */
struct SpmPartition
{
    NodeId owner = 0;           ///< Node whose output lives here.
    bool dataValid = false;     ///< Output has been produced.
    std::uint32_t ongoingReads = 0; ///< Active consumer DMA reads.
    bool writtenBack = false;   ///< Data also resides in DRAM.
    std::uint64_t bytes = 0;    ///< Size of the held output.
    Tick producedAt = 0;        ///< When the output landed (for LRU).
};

class Scratchpad : public SimObject
{
  public:
    Scratchpad(Simulator &sim, std::string name,
               const ScratchpadConfig &config = {});

    /** Throughput resource claimed by DMA transfers touching this SPM. */
    BandwidthResource &port() { return port_; }
    const BandwidthResource &port() const { return port_; }

    int numPartitions() const { return int(partitions_.size()); }
    const SpmPartition &partition(int index) const;

    /**
     * Find a partition that can take a new output.
     *
     * A partition is reclaimable if it holds nothing, or holds data that
     * has no active readers. Preference order: empty first, then the
     * least recently produced reclaimable partition. Partitions whose
     * bit is set in @p exclude_mask (e.g. a partition the next task
     * reads in place) are never returned.
     *
     * @return partition index, or -1 if no partition qualifies.
     */
    int findFreeOutputPartition(unsigned exclude_mask = 0) const;

    /** Assign partition @p index to hold @p bytes of @p node's output.
     *  The data becomes valid only after produceOutput(). */
    void allocateOutput(int index, NodeId node, std::uint64_t bytes);

    /** Mark the output in @p index as produced (compute finished). */
    void produceOutput(int index);

    /** True if partition @p index (any index) still holds @p node's
     *  produced output: the O(1) check behind every forward,
     *  colocation and write-back decision. */
    bool
    holdsOutput(int index, NodeId node) const
    {
        if (index < 0 || index >= numPartitions())
            return false;
        const SpmPartition &p = partitions_[std::size_t(index)];
        return p.owner == node && p.dataValid;
    }

    /** A consumer DMA starts reading partition @p index. */
    void beginRead(int index);

    /** A consumer DMA finished reading partition @p index. */
    void endRead(int index);

    /** Record that partition @p index's data now also lives in DRAM. */
    void markWrittenBack(int index);

    /** Drop the data in partition @p index (must have no readers). */
    void release(int index);

    /** Account @p bytes read from this SPM (energy/traffic). */
    void recordRead(std::uint64_t bytes) { readBytes_.add(bytes); }

    /** Account @p bytes written into this SPM (energy/traffic). */
    void recordWrite(std::uint64_t bytes) { writeBytes_.add(bytes); }

    std::uint64_t readBytes() const { return readBytes_.value(); }
    std::uint64_t writeBytes() const { return writeBytes_.value(); }

    /** Dynamic SPM energy in picojoules. */
    double energyPJ() const;

    const ScratchpadConfig &config() const { return config_; }

  private:
    SpmPartition &partitionRef(int index);

    ScratchpadConfig config_;
    BandwidthResource port_;
    std::vector<SpmPartition> partitions_;
    Counter readBytes_;
    Counter writeBytes_;
};

} // namespace relief

#endif // RELIEF_MEM_SCRATCHPAD_HH
