#include "sim/event_queue.hh"

#include <algorithm>

namespace relief
{

void
EventQueue::pastEventPanic(Tick when, const char *label) const
{
    panic("scheduling event '", label, "' at tick ", when,
          " in the past (now ", curTick_, ")");
}

void
EventQueue::unreservedSeqPanic(std::uint64_t seq, const char *label) const
{
    panic("scheduling event '", label, "' under sequence number ", seq,
          ", which no reserveSeqs() block holds");
}

std::uint64_t
EventQueue::reserveSeqs(std::uint64_t n)
{
    std::uint64_t first = nextSeq_;
    nextSeq_ += n;
    if (n > 0)
        reservedSeqs_.emplace_back(first, nextSeq_);
    return first;
}

bool
EventQueue::reserved(std::uint64_t seq) const
{
    for (const auto &[first, end] : reservedSeqs_) {
        if (seq >= first && seq < end)
            return true;
    }
    return false;
}

std::uint32_t
EventQueue::allocSlot()
{
    if (freeHead_ == noSlot) {
        // Grow the slab by one chunk; slot addresses never move, so
        // engaged callables are safe across growth. Thread the new
        // slots onto the free list highest-index first so allocation
        // order within the chunk is ascending (deterministic).
        auto base = std::uint32_t(chunks_.size() * slotsPerChunk);
        chunks_.emplace_back(new Slot[slotsPerChunk]);
        for (std::uint32_t i = slotsPerChunk; i-- > 0;) {
            Slot &slot = slotRef(base + i);
            slot.nextFree = freeHead_;
            freeHead_ = base + i;
        }
    }
    std::uint32_t id = freeHead_;
    Slot &slot = slotRef(id);
    freeHead_ = slot.nextFree;
    slot.nextFree = noSlot;
    return id;
}

void
EventQueue::freeSlot(std::uint32_t id)
{
    Slot &slot = slotRef(id);
    slot.label = "";
    if (!slot.dynLabel.empty())
        slot.dynLabel.clear(); // keeps capacity: no churn on reuse
    slot.action.reset();
    slot.nextFree = freeHead_;
    freeHead_ = id;
}

void
EventQueue::pushEntry(Tick when, std::uint64_t seq, std::uint32_t id)
{
    heap_.push_back(Entry{when, seq, id});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++numScheduled_;
}

bool
EventQueue::runOne(Tick limit)
{
    if (heap_.empty() || heap_.front().when > limit)
        return false;

    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry entry = heap_.back();
    heap_.pop_back();
    Slot &slot = slotRef(entry.slot);
    RELIEF_ASSERT(entry.when >= curTick_, "event time went backwards");
    curTick_ = entry.when;
    ++numExecuted_;
    if (labelsEnabled()) {
        const char *what = !slot.dynLabel.empty() ? slot.dynLabel.c_str()
                           : *slot.label          ? slot.label
                                                  : "(unlabeled)";
        debugPrint(DebugFlag::Event, curTick_, "event", what);
    }
    if (hostProfEnabled()) {
        // Timed dispatch: the span is opened before invoke so nested
        // HostProfScopes inside the action get exclusive time, and
        // closed after the slot is recycled so pop/free overhead is
        // attributed too (plus gap charging in hostProfEnter for the
        // inter-event stretch). Everything rides behind the single
        // hostProfEnabled() branch above — profiling off costs one
        // predicted-not-taken test, no clock reads.
        const auto cat = static_cast<HostCat>(slot.cat);
        const std::uint64_t t0 = hostProfEnter(cat);
        slot.action();
        slot.action.reset();
        freeSlot(entry.slot);
        hostProfExitEvent(cat, t0);
    } else {
        slot.action();
        slot.action.reset();
        freeSlot(entry.slot);
    }
    return true;
}

} // namespace relief
