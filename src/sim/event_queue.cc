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
EventQueue::freeSlot(std::uint32_t id) const
{
    Slot &slot = slotRef(id);
    // Bumping the generation here (and again before firing) makes any
    // outstanding handle to this lifetime stale, so a recycled slot
    // can never be cancelled through an old handle.
    ++slot.gen;
    slot.cancelled = false;
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
EventQueue::slotPending(std::uint32_t id, std::uint32_t gen) const
{
    const Slot &slot = slotRef(id);
    return slot.gen == gen && !slot.cancelled;
}

void
EventQueue::cancelSlot(std::uint32_t id, std::uint32_t gen)
{
    Slot &slot = slotRef(id);
    if (slot.gen != gen || slot.cancelled)
        return;
    slot.cancelled = true;
    // Release the captured resources eagerly; the heap entry itself is
    // dropped lazily (skipCancelled) or in bulk (compact).
    slot.action.reset();
    if (!slot.dynLabel.empty())
        slot.dynLabel.clear();
    ++cancelledInHeap_;
    maybeCompact();
}

void
EventQueue::maybeCompact()
{
    if (cancelledInHeap_ < compactionMinimum_ ||
        cancelledInHeap_ * 2 < heap_.size())
        return;
    compact();
}

void
EventQueue::compact()
{
    std::size_t kept = 0;
    for (const Entry &entry : heap_) {
        if (slotRef(entry.slot).cancelled) {
            ++numCancelled_;
            freeSlot(entry.slot);
        } else {
            heap_[kept++] = entry;
        }
    }
    heap_.resize(kept);
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    cancelledInHeap_ = 0;
    ++numCompactions_;
}

void
EventQueue::skipCancelled() const
{
    while (!heap_.empty() && slotRef(heap_.front().slot).cancelled) {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        std::uint32_t id = heap_.back().slot;
        heap_.pop_back();
        freeSlot(id);
        ++numCancelled_;
        --cancelledInHeap_;
    }
}

bool
EventQueue::empty() const
{
    skipCancelled();
    return heap_.empty();
}

Tick
EventQueue::nextTick() const
{
    skipCancelled();
    return heap_.empty() ? maxTick : heap_.front().when;
}

bool
EventQueue::runOne(Tick limit)
{
    skipCancelled();
    if (heap_.empty() || heap_.front().when > limit)
        return false;

    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry entry = heap_.back();
    heap_.pop_back();
    Slot &slot = slotRef(entry.slot);
    RELIEF_ASSERT(entry.when >= curTick_, "event time went backwards");
    curTick_ = entry.when;
    // Invalidate handles before invoking: the event counts as fired,
    // and a cancel() from inside its own action is a no-op instead of
    // destroying the callable mid-execution.
    ++slot.gen;
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
