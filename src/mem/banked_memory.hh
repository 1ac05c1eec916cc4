/**
 * @file
 * Bank-aware LPDDR5 model.
 *
 * The flat MainMemory model charges a fixed streaming-efficiency
 * factor. Real LPDDR5 (Table VI configures bank-group mode) limits a
 * *single* stream by the row activate/precharge cycle of its bank,
 * while independent streams on different banks overlap their row
 * operations and can together approach the channel's peak rate.
 *
 * BankedMemory captures that at transaction level: each transfer
 * claims (1) the bank its buffer maps to — a resource throttled to the
 * per-bank streaming rate — and (2) the shared channel at peak rate.
 * One stream sees bank-limited bandwidth; streams on distinct banks
 * aggregate until the channel saturates. Buffers map to banks by a
 * stream hint (the task-node id), mimicking address interleaving.
 */

#ifndef RELIEF_MEM_BANKED_MEMORY_HH
#define RELIEF_MEM_BANKED_MEMORY_HH

#include <memory>
#include <vector>

#include "mem/main_memory.hh"

namespace relief
{

/** Configuration for BankedMemory (extends the flat model's knobs). */
struct BankedMemoryConfig : MainMemoryConfig
{
    int numBanks = 8;
    /** Fraction of channel peak a single bank can stream (row cycle
     *  limited). The default reproduces the flat model's single-stream
     *  efficiency so the two models calibrate identically for one
     *  stream. */
    double bankEfficiency = 0.55;
    Tick bankLatency = fromNs(45.0); ///< Row activate + precharge.
};

class BankedMemory : public MainMemory
{
  public:
    BankedMemory(Simulator &sim, std::string name,
                 const BankedMemoryConfig &config = {});

    /** The bank @p stream_hint maps to. */
    int route(std::uint64_t stream_hint) override;

    /** Bank @p index, then the shared channel. */
    std::vector<BandwidthResource *> routePath(int index) override
    {
        return {&bank(index), &channel()};
    }

    std::vector<BandwidthResource *> pressureResources() override
    {
        std::vector<BandwidthResource *> all = {&channel()};
        for (auto &bank : banks_)
            all.push_back(bank.get());
        return all;
    }

    int numBanks() const { return int(banks_.size()); }
    const BandwidthResource &bank(int index) const
    {
        return *banks_[std::size_t(index)];
    }
    BandwidthResource &bank(int index)
    {
        return *banks_[std::size_t(index)];
    }

    void resetStats() override;

  private:
    std::vector<std::unique_ptr<BandwidthResource>> banks_;
};

} // namespace relief

#endif // RELIEF_MEM_BANKED_MEMORY_HH
