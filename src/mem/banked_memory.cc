#include "mem/banked_memory.hh"

#include <utility>

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace relief
{

namespace
{

/** The flat base model's channel must not throttle below peak here:
 *  banks provide the efficiency limit instead. */
MainMemoryConfig
atPeak(BankedMemoryConfig config)
{
    config.efficiency = 1.0;
    return config;
}

} // namespace

BankedMemory::BankedMemory(Simulator &sim, std::string name,
                           const BankedMemoryConfig &config)
    : MainMemory(sim, std::move(name), atPeak(config))
{
    RELIEF_ASSERT(config.numBanks >= 1, "banked memory needs >= 1 bank");
    double bank_gbs = config.peakGBs * config.bankEfficiency;
    for (int i = 0; i < config.numBanks; ++i) {
        banks_.push_back(std::make_unique<BandwidthResource>(
            this->name() + ".bank" + std::to_string(i), bank_gbs,
            config.bankLatency));
    }
}

int
BankedMemory::route(std::uint64_t stream_hint)
{
    std::uint64_t h = stream_hint * 2654435761ull;
    auto bank_index = std::size_t(h % std::uint64_t(banks_.size()));
    DPRINTF(Mem, "stream ", stream_hint, " -> bank ", bank_index);
    return int(bank_index);
}

} // namespace relief
