/**
 * @file
 * Discrete-event queue — the simulator's hot path.
 *
 * Events are closures scheduled at an absolute tick. Two events at the
 * same tick fire in the order they were scheduled (a monotonically
 * increasing sequence number breaks ties), which keeps every simulation
 * fully deterministic. An event, once scheduled, always fires: a run
 * only moves forward, so the queue has no cancellation.
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
#include <new>
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
 * Move-only type-erased nullary callable with a @p Capacity-byte
 * inline buffer. A closure that fits (and moves without throwing)
 * lives in the object itself; a larger one falls back to one heap
 * allocation, which emplace() reports so the event queue can count
 * it. Moving relocates the stored closure; an empty one (default or
 * nullptr) tests false.
 */
template <std::size_t Capacity>
class InlineFunction
{
  public:
    static constexpr std::size_t capacity = Capacity;

    InlineFunction() = default;
    InlineFunction(std::nullptr_t) noexcept {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                  std::is_invocable_v<std::decay_t<F> &>>>
    InlineFunction(F &&fn)
    {
        emplace(std::forward<F>(fn));
    }

    InlineFunction(InlineFunction &&other) noexcept { take(other); }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            take(other);
        }
        return *this;
    }

    ~InlineFunction() { reset(); }

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
        if constexpr (sizeof(Fn) <= Capacity &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(fn));
            invoke_ = [](void *p) { (*static_cast<Fn *>(p))(); };
            manage_ = [](void *from, void *to) {
                Fn *fn = static_cast<Fn *>(from);
                if (to)
                    ::new (to) Fn(std::move(*fn));
                fn->~Fn();
            };
            return false;
        } else {
            Fn *heap = new Fn(std::forward<F>(fn));
            ::new (static_cast<void *>(buf_)) Fn *(heap);
            invoke_ = [](void *p) { (**static_cast<Fn **>(p))(); };
            manage_ = [](void *from, void *to) {
                Fn *fn = *static_cast<Fn **>(from);
                if (to)
                    ::new (to) Fn *(fn);
                else
                    delete fn;
            };
            return true;
        }
    }

    explicit operator bool() const { return invoke_ != nullptr; }

    void
    operator()() const
    {
        invoke_(const_cast<unsigned char *>(buf_));
    }

    /** Destroy the stored callable (no-op when empty). */
    void
    reset()
    {
        if (manage_) {
            manage_(buf_, nullptr);
            invoke_ = nullptr;
            manage_ = nullptr;
        }
    }

  private:
    /** Relocate @p other's callable into this empty object. */
    void
    take(InlineFunction &other)
    {
        if (!other.manage_)
            return;
        other.manage_(other.buf_, buf_);
        invoke_ = other.invoke_;
        manage_ = other.manage_;
        other.invoke_ = nullptr;
        other.manage_ = nullptr;
    }

    alignas(std::max_align_t) unsigned char buf_[Capacity];
    void (*invoke_)(void *) = nullptr;
    /** Moves the callable at the first argument to the second, or
     *  destroys it when the second is null. */
    void (*manage_)(void *, void *) = nullptr;
};

/** An event's action. Every model call site fits its 64 bytes: `this`,
 *  a scalar and a Completion at most. */
using InlineCallable = InlineFunction<64>;

/**
 * The one completion type from the hardware manager down to the event
 * that fires it: DMA transfers and accelerator compute take one. Its
 * 32-byte buffer holds the manager's largest completion (a forward's:
 * `this`, the consumer's state, the producer scratchpad and partition),
 * and the event closure wrapping it (`this`, the byte count and the
 * completion) still fits InlineCallable, so neither allocates.
 */
using Completion = InlineFunction<32>;

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
     *
     * The label overloads:
     *  - `const char *`: stored as-is (must be a string literal or
     *    otherwise outlive the event) — zero cost.
     *  - nullary callable returning std::string: invoked only when the
     *    Event debug flag is enabled, so dynamic labels cost nothing
     *    in normal runs.
     *
     * Each form also accepts a HostCat *before* the action
     * (`schedule(when, HostCat::Dma, action, label)`), attributing
     * the dispatch's host wall time to that category when HostProf is
     * enabled (sim/hostprof.hh). Catless events fall in
     * HostCat::Other. Storing the category is one byte in the slot —
     * free whether or not profiling runs.
     */
    template <typename F, typename = NotHostCat<F>>
    void
    schedule(Tick when, F &&action)
    {
        schedule(when, HostCat::Other, std::forward<F>(action),
                 static_cast<const char *>(""));
    }

    template <typename F, typename = NotHostCat<F>>
    void
    schedule(Tick when, F &&action, const char *label)
    {
        schedule(when, HostCat::Other, std::forward<F>(action), label);
    }

    template <typename F, typename LabelFn,
              typename = NotHostCat<F>,
              typename = std::enable_if_t<std::is_invocable_v<LabelFn &>>>
    void
    schedule(Tick when, F &&action, LabelFn &&labelFn)
    {
        schedule(when, HostCat::Other, std::forward<F>(action),
                 std::forward<LabelFn>(labelFn));
    }

    template <typename F>
    void
    schedule(Tick when, HostCat cat, F &&action)
    {
        schedule(when, cat, std::forward<F>(action),
                 static_cast<const char *>(""));
    }

    template <typename F>
    void
    schedule(Tick when, HostCat cat, F &&action, const char *label)
    {
        place(when, nextSeq_++, cat, std::forward<F>(action), label);
    }

    template <typename F, typename LabelFn,
              typename = std::enable_if_t<std::is_invocable_v<LabelFn &>>>
    void
    schedule(Tick when, HostCat cat, F &&action, LabelFn &&labelFn)
    {
        if (when < curTick_)
            pastEventPanic(when, std::string(labelFn()).c_str());
        std::uint32_t id = place(when, nextSeq_++, cat,
                                 std::forward<F>(action), "");
        if (labelsEnabled())
            slotRef(id).dynLabel = labelFn();
    }

    /**
     * Reserve @p n consecutive sequence numbers for scheduleReserved();
     * @return the first. Ties at one tick fire in sequence order, so
     * the event given `first + i` orders against every other event as
     * if it had been scheduled now, i-th of n. A chain of events at
     * nondecreasing ticks that each schedules the next (serve's
     * arrivals) thus fires in the order of scheduling all n at once,
     * with one pending at a time.
     */
    std::uint64_t reserveSeqs(std::uint64_t n);

    /**
     * schedule() under sequence number @p seq from reserveSeqs() (see
     * there); panics on a number outside every reserved block.
     */
    template <typename F>
    void
    scheduleReserved(Tick when, std::uint64_t seq, HostCat cat, F &&action,
                     const char *label)
    {
        if (!reserved(seq))
            unreservedSeqPanic(seq, label);
        place(when, seq, cat, std::forward<F>(action), label);
    }

    /** Absolute time of the event most recently popped (current time). */
    Tick curTick() const { return curTick_; }

    /** True if no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Tick of the earliest pending event; maxTick if none. */
    Tick nextTick() const
    {
        return heap_.empty() ? maxTick : heap_.front().when;
    }

    /**
     * Pop and run the earliest pending event if it is due by
     * @p limit, advancing current time. The heap top is inspected
     * once: this is the whole per-event step of Simulator::run.
     * @return false if no pending event is due by @p limit.
     */
    bool runOne(Tick limit = maxTick);

    /** Number of events executed so far. */
    std::uint64_t numExecuted() const { return numExecuted_; }

    /** Number of events scheduled so far. */
    std::uint64_t numScheduled() const { return numScheduled_; }

    /** Always 0: an event, once scheduled, fires. Kept only because
     *  the benchmark's `sim.cancelled_frac` probe
     *  (perfbench/relief_benchmark.cc) still reads it; it goes with
     *  that probe. */
    std::uint64_t numCancelled() const { return 0; }

    /** Callables too large for the inline buffer (heap fallbacks). */
    std::uint64_t numHeapCallables() const { return numHeapCallables_; }

    /** Slots currently carved out of the slab (high-water mark of
     *  concurrently pending events, rounded up to a chunk). */
    std::size_t slabCapacity() const
    {
        return chunks_.size() * slotsPerChunk;
    }

  private:
    static constexpr std::uint32_t noSlot = ~std::uint32_t(0);
    static constexpr std::size_t slotsPerChunk = 256;

    /** Pooled per-event state; addresses are stable (chunked slab). */
    struct Slot
    {
        InlineCallable action;
        std::string dynLabel;   ///< Only set under the Event debug flag.
        const char *label = ""; ///< Static-literal label, always kept.
        std::uint32_t nextFree = noSlot;
        std::uint8_t cat = 0;   ///< HostCat for wall-time attribution.
    };
    static_assert(sizeof(Slot) <= 128, "an event slot fits two cache lines");

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

    /** The one schedule body: every form ends here.
     *  @return the event's slot. */
    template <typename F>
    std::uint32_t
    place(Tick when, std::uint64_t seq, HostCat cat, F &&action,
          const char *label)
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
        pushEntry(when, seq, id);
        return id;
    }

    [[noreturn]] void pastEventPanic(Tick when, const char *label) const;
    [[noreturn]] void unreservedSeqPanic(std::uint64_t seq,
                                         const char *label) const;
    bool reserved(std::uint64_t seq) const;

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t id);
    void pushEntry(Tick when, std::uint64_t seq, std::uint32_t id);

    std::vector<std::unique_ptr<Slot[]>> chunks_;
    std::uint32_t freeHead_ = noSlot;
    std::vector<Entry> heap_;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    /** Blocks handed out by reserveSeqs(), as [first, end). */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> reservedSeqs_;
    std::uint64_t numExecuted_ = 0;
    std::uint64_t numScheduled_ = 0;
    std::uint64_t numHeapCallables_ = 0;
};

} // namespace relief

#endif // RELIEF_SIM_EVENT_QUEUE_HH
