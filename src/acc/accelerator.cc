#include "acc/accelerator.hh"

#include <utility>

#include "sim/logging.hh"

namespace relief
{

Accelerator::Accelerator(Simulator &sim, std::string name, AccType type,
                         int instance, Interconnect &fabric,
                         PortId dram_port, MainMemory &dram,
                         const ScratchpadConfig &spm_config,
                         const DmaConfig &dma_config)
    : SimObject(sim, std::move(name)), type_(type), instance_(instance),
      spm_(std::make_unique<Scratchpad>(sim, this->name() + ".spm",
                                        spm_config)),
      dma_(std::make_unique<DmaEngine>(sim, this->name() + ".dma", fabric,
                                       dram_port, dram, *spm_, dma_config))
{
}

void
Accelerator::acquire()
{
    RELIEF_ASSERT(!busy_, name(), ": acquire while busy");
    busy_ = true;
}

void
Accelerator::startCompute(Tick duration, Completion on_done)
{
    RELIEF_ASSERT(busy_, name(), ": compute without acquisition");
    Tick start = now();
    Tick end = start + duration;
    computeBusy_.add(now(), start, end);
    // The done event runs the manager's completion handling, so it is
    // scheduler work; functional payloads charge Kernels themselves.
    auto done = [this, cb = std::move(on_done)]() {
        tasksExecuted_.add(1);
        busy_ = false;
        if (cb)
            cb();
    };
    static_assert(sizeof(done) <= InlineCallable::capacity,
                  "the compute-done event must not allocate");
    sim().at(end, HostCat::Sched, std::move(done),
             [this] { return name() + ".computeDone"; });
}

void
Accelerator::release()
{
    RELIEF_ASSERT(busy_, name(), ": release while idle");
    busy_ = false;
}

} // namespace relief
