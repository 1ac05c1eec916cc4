#include "mem/scratchpad.hh"

#include <utility>

#include "sim/logging.hh"

namespace relief
{

Scratchpad::Scratchpad(Simulator &sim, std::string name,
                       const ScratchpadConfig &config)
    : SimObject(sim, std::move(name)), config_(config),
      port_(this->name() + ".port", config.portGBs, config.portLatency),
      partitions_(std::size_t(config.numOutputPartitions))
{
    RELIEF_ASSERT(config.numOutputPartitions >= 1,
                  "scratchpad needs at least one output partition");
}

const SpmPartition &
Scratchpad::partition(int index) const
{
    RELIEF_ASSERT(index >= 0 && index < numPartitions(),
                  name(), ": bad partition index ", index);
    return partitions_[std::size_t(index)];
}

SpmPartition &
Scratchpad::partitionRef(int index)
{
    RELIEF_ASSERT(index >= 0 && index < numPartitions(),
                  name(), ": bad partition index ", index);
    return partitions_[std::size_t(index)];
}

int
Scratchpad::findFreeOutputPartition(unsigned exclude_mask) const
{
    int best = -1;
    Tick bestAge = maxTick;
    for (int i = 0; i < numPartitions(); ++i) {
        if (exclude_mask & (1u << unsigned(i)))
            continue;
        const auto &p = partitions_[std::size_t(i)];
        if (p.owner == 0)
            return i;
        if (p.ongoingReads == 0 && p.producedAt < bestAge) {
            best = i;
            bestAge = p.producedAt;
        }
    }
    return best;
}

void
Scratchpad::allocateOutput(int index, NodeId node, std::uint64_t bytes)
{
    auto &p = partitionRef(index);
    RELIEF_ASSERT(p.ongoingReads == 0,
                  name(), ": allocating partition ", index,
                  " with active readers");
    p.owner = node;
    p.dataValid = false;
    p.writtenBack = false;
    p.bytes = bytes;
    p.producedAt = 0;
}

void
Scratchpad::produceOutput(int index)
{
    auto &p = partitionRef(index);
    RELIEF_ASSERT(p.owner != 0, name(), ": producing into empty partition");
    p.dataValid = true;
    p.producedAt = now();
}

void
Scratchpad::beginRead(int index)
{
    auto &p = partitionRef(index);
    RELIEF_ASSERT(p.dataValid, name(), ": reading invalid partition ",
                  index);
    ++p.ongoingReads;
}

void
Scratchpad::endRead(int index)
{
    auto &p = partitionRef(index);
    RELIEF_ASSERT(p.ongoingReads > 0,
                  name(), ": endRead with no active readers");
    --p.ongoingReads;
}

void
Scratchpad::markWrittenBack(int index)
{
    partitionRef(index).writtenBack = true;
}

void
Scratchpad::release(int index)
{
    auto &p = partitionRef(index);
    RELIEF_ASSERT(p.ongoingReads == 0,
                  name(), ": releasing partition ", index,
                  " with active readers");
    p = SpmPartition{};
}

double
Scratchpad::energyPJ() const
{
    return double(readBytes()) * config_.readEnergyPJPerByte +
           double(writeBytes()) * config_.writeEnergyPJPerByte;
}

void
Scratchpad::resetStats()
{
    port_.resetStats();
    readBytes_.reset();
    writeBytes_.reset();
}

} // namespace relief
