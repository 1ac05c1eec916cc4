#include "mem/main_memory.hh"

#include <utility>

namespace relief
{

MainMemory::MainMemory(Simulator &sim, std::string name,
                       const MainMemoryConfig &config)
    : SimObject(sim, std::move(name)), config_(config),
      channel_(this->name() + ".channel",
               config.peakGBs * config.efficiency, config.accessLatency)
{
}

double
MainMemory::energyPJ() const
{
    return double(readBytes()) * config_.readEnergyPJPerByte +
           double(writeBytes()) * config_.writeEnergyPJPerByte;
}

} // namespace relief
