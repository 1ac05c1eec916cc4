/**
 * @file
 * LPDDR5-like main-memory model.
 *
 * Table VI of the paper configures LPDDR5-6400, one 16-bit channel,
 * 12.8 GB/s peak. The per-task memory times in Table I imply an achieved
 * streaming bandwidth of roughly 55% of peak (row activations, refresh,
 * read/write turnaround), so the model serves requests through a single
 * BandwidthResource at peak * efficiency with a fixed access latency,
 * and accounts read/write bytes and energy.
 */

#ifndef RELIEF_MEM_MAIN_MEMORY_HH
#define RELIEF_MEM_MAIN_MEMORY_HH

#include <cstdint>
#include <string>

#include "mem/bandwidth_resource.hh"
#include "sim/simulator.hh"
#include "sim/ticks.hh"
#include "stats/stats.hh"

namespace relief
{

/** Configuration for MainMemory. */
struct MainMemoryConfig
{
    double peakGBs = 12.8;        ///< Channel peak bandwidth.
    double efficiency = 0.55;     ///< Achieved fraction of peak.
    Tick accessLatency = fromNs(100.0); ///< First-access latency.
    double readEnergyPJPerByte = 37.5;  ///< ~4.7 pJ/bit LPDDR5 read.
    double writeEnergyPJPerByte = 41.0; ///< ~5.1 pJ/bit LPDDR5 write.
};

class MainMemory : public SimObject
{
  public:
    MainMemory(Simulator &sim, std::string name,
               const MainMemoryConfig &config = {});

    /** The throughput resource transfers must claim. */
    BandwidthResource &channel() { return channel_; }
    const BandwidthResource &channel() const { return channel_; }

    /**
     * Index of the route a transfer of stream @p stream_hint takes
     * through this memory. @p stream_hint identifies the buffer/stream
     * (e.g. the task-node id); the flat model has the single route 0,
     * the banked model (BankedMemory) maps the hint to a bank so
     * independent streams can overlap, and returns the bank index.
     */
    virtual int
    route(std::uint64_t stream_hint)
    {
        (void)stream_hint;
        return 0;
    }

    /** Resources a transfer on route @p index must claim, in order. */
    virtual std::vector<BandwidthResource *>
    routePath(int index)
    {
        (void)index;
        return {&channel_};
    }

    /** Resources a transfer touching this memory must claim, in
     *  order: the path of route(@p stream_hint). */
    std::vector<BandwidthResource *>
    path(std::uint64_t stream_hint)
    {
        return routePath(route(stream_hint));
    }

    /**
     * Every bandwidth resource this memory arbitrates, for
     * pressure-ledger registration (channel first, then banks in the
     * banked model). Deterministic order.
     */
    virtual std::vector<BandwidthResource *>
    pressureResources()
    {
        return {&channel_};
    }

    /** Account a read of @p bytes leaving DRAM. */
    void recordRead(std::uint64_t bytes) { readBytes_.add(bytes); }

    /** Account a write of @p bytes entering DRAM. */
    void recordWrite(std::uint64_t bytes) { writeBytes_.add(bytes); }

    std::uint64_t readBytes() const { return readBytes_.value(); }
    std::uint64_t writeBytes() const { return writeBytes_.value(); }

    /** All DRAM traffic in bytes (reads + writes). */
    std::uint64_t totalBytes() const
    {
        return readBytes() + writeBytes();
    }

    /** Dynamic DRAM energy in picojoules. */
    double energyPJ() const;

    const MainMemoryConfig &config() const { return config_; }
    virtual void resetStats();

    ~MainMemory() override = default;

  private:
    MainMemoryConfig config_;
    BandwidthResource channel_;
    Counter readBytes_;
    Counter writeBytes_;
};

} // namespace relief

#endif // RELIEF_MEM_MAIN_MEMORY_HH
