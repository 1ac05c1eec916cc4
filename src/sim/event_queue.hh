/**
 * @file
 * Discrete-event queue — the simulator's hot path.
 *
 * Events are closures scheduled at an absolute tick. Two events at the
 * same tick fire in the order they were scheduled (a monotonically
 * increasing sequence number breaks ties), which keeps every simulation
 * fully deterministic. Cancellation is lazy: a cancelled event stays in
 * the heap but is skipped when popped, and the heap compacts itself
 * when cancelled entries pile up (long continuous-mode runs).
 *
 * The steady state allocates nothing. Event state lives in a chunked
 * slab owned by the queue and recycled through a free list; the heap
 * orders small POD entries (tick, sequence, slot index) instead of
 * shared_ptr copies; and callables are stored in a fixed-size inline
 * buffer inside the slot (InlineCallable), falling back to the heap
 * only for oversized captures — a counted event (numHeapCallables(),
 * surfaced as the sim.event_heap_callables stat) that the
 * microbenchmark test pins at zero for the hot paths.
 *
 * Debug labels: a `const char *` label (a string literal) is always
 * kept — storing the pointer is free. Dynamically built labels are
 * only materialized when the Event debug flag is enabled; pass a
 * nullary callable returning std::string and it is invoked solely
 * under the flag, so the hot path never concatenates strings. See
 * docs/performance.md for the full design.
 */

#ifndef RELIEF_SIM_EVENT_QUEUE_HH
#define RELIEF_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/debug.hh"
#include "sim/hostprof.hh"
#include "sim/logging.hh"
#include "sim/ticks.hh"

namespace relief
{

/**
 * Type-erased nullary callable with inline small-buffer storage.
 * Captures up to `capacity` bytes live in the slot itself; larger
 * closures fall back to one heap allocation (the caller counts them).
 * Never copied or moved — slots have stable addresses in the slab.
 */
class InlineCallable
{
  public:
    /** Inline capture budget; sized so every model call site
     *  (this + a few scalars + a std::function callback) fits. */
    static constexpr std::size_t capacity = 64;

    InlineCallable() = default;
    ~InlineCallable() { reset(); }

    InlineCallable(const InlineCallable &) = delete;
    InlineCallable &operator=(const InlineCallable &) = delete;

    /**
     * Store @p fn, destroying any previous callable.
     * @return true when the capture was too large for the inline
     *         buffer and had to be heap-allocated.
     */
    template <typename F>
    bool
    emplace(F &&fn)
    {
        using Fn = std::decay_t<F>;
        reset();
        if constexpr (sizeof(Fn) <= capacity &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(fn));
            invoke_ = [](void *p) { (*static_cast<Fn *>(p))(); };
            destroy_ = [](void *p) { static_cast<Fn *>(p)->~Fn(); };
            return false;
        } else {
            heap_ = new Fn(std::forward<F>(fn));
            invoke_ = [](void *p) { (*static_cast<Fn *>(p))(); };
            destroy_ = [](void *p) { delete static_cast<Fn *>(p); };
            return true;
        }
    }

    bool engaged() const { return invoke_ != nullptr; }

    void
    invoke()
    {
        invoke_(target());
    }

    /** Destroy the stored callable (no-op when empty). */
    void
    reset()
    {
        if (invoke_) {
            destroy_(target());
            invoke_ = nullptr;
            destroy_ = nullptr;
            heap_ = nullptr;
        }
    }

  private:
    void *target() { return heap_ ? heap_ : static_cast<void *>(buf_); }

    alignas(std::max_align_t) unsigned char buf_[capacity];
    void (*invoke_)(void *) = nullptr;
    void (*destroy_)(void *) = nullptr;
    void *heap_ = nullptr;
};

class EventQueue;

/**
 * Handle to a scheduled event, usable to cancel it or query whether it
 * has fired. Copies refer to the same event. A handle references its
 * slot by index plus a generation counter, so it safely reports "not
 * pending" after the slot is recycled for a later event; it must not
 * outlive the EventQueue itself.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** True if the event is still waiting to fire. */
    bool pending() const;

    /** Prevent the event from firing; no-op if already fired/cancelled. */
    void cancel();

  private:
    friend class EventQueue;

    EventHandle(EventQueue *queue, std::uint32_t slot, std::uint32_t gen)
        : queue_(queue), slot_(slot), gen_(gen)
    {
    }

    EventQueue *queue_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
};

/** Constrains the catless schedule() overloads so a HostCat argument
 *  always selects the category-taking forms (a nullary action lambda
 *  would otherwise let HostCat bind to the action parameter). */
template <typename F>
using NotHostCat =
    std::enable_if_t<!std::is_same_v<std::decay_t<F>, HostCat>>;

/**
 * Min-heap of events ordered by (tick, sequence number).
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p action to fire at absolute tick @p when.
     *
     * @param when   Absolute firing time; must be >= the current tick.
     * @param action Closure invoked when the event fires.
     * @return handle usable to cancel the event.
     *
     * The label overloads:
     *  - `const char *`: stored as-is (must be a string literal or
     *    otherwise outlive the event) — zero cost.
     *  - nullary callable returning std::string: invoked only when the
     *    Event debug flag is enabled, so dynamic labels cost nothing
     *    in normal runs.
     *  - std::string: kept only under the Event debug flag (the
     *    argument itself was already built; prefer the lazy form).
     *
     * Each form also accepts a HostCat *before* the action
     * (`schedule(when, HostCat::Dma, action, label)`), attributing
     * the dispatch's host wall time to that category when HostProf is
     * enabled (sim/hostprof.hh). Catless events fall in
     * HostCat::Other. Storing the category is one byte in the slot —
     * free whether or not profiling runs.
     */
    template <typename F, typename = NotHostCat<F>>
    EventHandle
    schedule(Tick when, F &&action)
    {
        return schedule(when, HostCat::Other, std::forward<F>(action),
                        static_cast<const char *>(""));
    }

    template <typename F, typename = NotHostCat<F>>
    EventHandle
    schedule(Tick when, F &&action, const char *label)
    {
        return schedule(when, HostCat::Other, std::forward<F>(action),
                        label);
    }

    template <typename F, typename = NotHostCat<F>>
    EventHandle
    schedule(Tick when, F &&action, std::string label)
    {
        return schedule(when, HostCat::Other, std::forward<F>(action),
                        std::move(label));
    }

    template <typename F, typename LabelFn,
              typename = NotHostCat<F>,
              typename = std::enable_if_t<std::is_invocable_v<LabelFn &>>>
    EventHandle
    schedule(Tick when, F &&action, LabelFn &&labelFn)
    {
        return schedule(when, HostCat::Other, std::forward<F>(action),
                        std::forward<LabelFn>(labelFn));
    }

    template <typename F>
    EventHandle
    schedule(Tick when, HostCat cat, F &&action)
    {
        return schedule(when, cat, std::forward<F>(action),
                        static_cast<const char *>(""));
    }

    template <typename F>
    EventHandle
    schedule(Tick when, HostCat cat, F &&action, const char *label)
    {
        if (when < curTick_)
            pastEventPanic(when, label);
        std::uint32_t id = allocSlot();
        Slot &slot = slotRef(id);
        slot.label = label;
        slot.cat = static_cast<std::uint8_t>(cat);
        if (slot.action.emplace(std::forward<F>(action))) {
            ++numHeapCallables_;
            if (hostProfEnabled())
                hostProfCountHeapAlloc(cat);
        }
        pushEntry(when, id);
        return EventHandle(this, id, slot.gen);
    }

    template <typename F>
    EventHandle
    schedule(Tick when, HostCat cat, F &&action, std::string label)
    {
        if (when < curTick_)
            pastEventPanic(when, label.c_str());
        EventHandle handle =
            schedule(when, cat, std::forward<F>(action),
                     static_cast<const char *>(""));
        if (labelsEnabled())
            slotRef(handle.slot_).dynLabel = std::move(label);
        return handle;
    }

    template <typename F, typename LabelFn,
              typename = std::enable_if_t<std::is_invocable_v<LabelFn &>>>
    EventHandle
    schedule(Tick when, HostCat cat, F &&action, LabelFn &&labelFn)
    {
        if (when < curTick_)
            pastEventPanic(when, std::string(labelFn()).c_str());
        EventHandle handle =
            schedule(when, cat, std::forward<F>(action),
                     static_cast<const char *>(""));
        if (labelsEnabled())
            slotRef(handle.slot_).dynLabel = labelFn();
        return handle;
    }

    /** Absolute time of the event most recently popped (current time). */
    Tick curTick() const { return curTick_; }

    /** True if no pending (non-cancelled) events remain. */
    bool empty() const;

    /** Tick of the earliest pending event; maxTick if none. */
    Tick nextTick() const;

    /**
     * Pop and run the earliest pending event, advancing current time.
     * @return false if the queue was empty.
     */
    bool runOne();

    /** Number of events executed so far. */
    std::uint64_t numExecuted() const { return numExecuted_; }

    /** Number of events scheduled so far. */
    std::uint64_t numScheduled() const { return numScheduled_; }

    /** Cancelled events dropped so far (skipped at pop or compacted
     *  away) — makes lazy deletion observable (sim.events_cancelled). */
    std::uint64_t numCancelled() const { return numCancelled_; }

    /** Callables too large for the inline buffer (heap fallbacks). */
    std::uint64_t numHeapCallables() const { return numHeapCallables_; }

    /** Times the heap was compacted to purge cancelled entries. */
    std::uint64_t numCompactions() const { return numCompactions_; }

    /** Slots currently carved out of the slab (high-water mark of
     *  concurrently pending events, rounded up to a chunk). */
    std::size_t slabCapacity() const
    {
        return chunks_.size() * slotsPerChunk;
    }

    /**
     * Compact the heap once at least this many cancelled entries are
     * buried in it (and they are the majority). Tests lower it to
     * exercise compaction with small queues.
     */
    void setCompactionMinimum(std::size_t n) { compactionMinimum_ = n; }

  private:
    friend class EventHandle;

    static constexpr std::uint32_t noSlot = ~std::uint32_t(0);
    static constexpr std::size_t slotsPerChunk = 256;

    /** Pooled per-event state; addresses are stable (chunked slab). */
    struct Slot
    {
        InlineCallable action;
        std::string dynLabel;   ///< Only set under the Event debug flag.
        const char *label = ""; ///< Static-literal label, always kept.
        std::uint32_t gen = 0;  ///< Bumped on fire and on free.
        std::uint32_t nextFree = noSlot;
        std::uint8_t cat = 0;   ///< HostCat for wall-time attribution.
        bool cancelled = false;
    };

    /** Heap entry: plain data, cheap to sift. */
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    static bool labelsEnabled()
    {
        return debugFlagEnabled(DebugFlag::Event);
    }

    Slot &
    slotRef(std::uint32_t id) const
    {
        return chunks_[id / slotsPerChunk][id % slotsPerChunk];
    }

    [[noreturn]] void pastEventPanic(Tick when, const char *label) const;

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t id) const;
    void pushEntry(Tick when, std::uint32_t id);
    bool slotPending(std::uint32_t id, std::uint32_t gen) const;
    void cancelSlot(std::uint32_t id, std::uint32_t gen);
    void maybeCompact();
    void compact();

    /** Drop cancelled events from the top of the heap. */
    void skipCancelled() const;

    std::vector<std::unique_ptr<Slot[]>> chunks_;
    mutable std::uint32_t freeHead_ = noSlot;
    mutable std::vector<Entry> heap_;
    std::size_t compactionMinimum_ = 1024;
    mutable std::size_t cancelledInHeap_ = 0;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t numExecuted_ = 0;
    std::uint64_t numScheduled_ = 0;
    mutable std::uint64_t numCancelled_ = 0;
    std::uint64_t numHeapCallables_ = 0;
    std::uint64_t numCompactions_ = 0;
};

inline bool
EventHandle::pending() const
{
    return queue_ && queue_->slotPending(slot_, gen_);
}

inline void
EventHandle::cancel()
{
    if (queue_)
        queue_->cancelSlot(slot_, gen_);
}

} // namespace relief

#endif // RELIEF_SIM_EVENT_QUEUE_HH
