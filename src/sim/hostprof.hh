/**
 * @file
 * HostProf — host-side self-profiling for the simulator's own wall
 * clock.
 *
 * The simulated SoC is deeply observable (stats, traces, the pressure
 * ledger), but the simulator's *host* cost was a black box. HostProf
 * attributes host wall time to a small set of categories (sched, dma,
 * mem, interconnect, kernels, stats/trace emission, serve) using
 * exclusive-time stack accounting:
 *
 *  - Every event dispatch is a timed span keyed by the category the
 *    scheduler attached to the event at schedule time (EventQueue
 *    Slot::cat). The gap *between* dispatches — heap pops, slot
 *    recycling, the run loop itself — is charged to the next event's
 *    category ("gap charging"), so attribution coverage of a run loop
 *    approaches 100% instead of silently dropping queue overhead.
 *  - Non-event phases (stats/JSON emission, kernel functional
 *    payloads, bandwidth reservations) wrap themselves in a
 *    HostProfScope; nested spans get exclusive time — the parent is
 *    only charged for the cycles the child did not consume.
 *
 * The whole layer sits behind one branch-predictable enabled check
 * (a thread-local pointer test, inlined below): with profiling off
 * the event hot path pays a single never-taken branch and no clock
 * reads, preserving the zero-allocation dispatch documented in
 * docs/performance.md. State is thread-local, so each thread profiles
 * only its own simulations, without synchronization.
 *
 * Snapshots export as `relief-hostprof-v1` JSON: per-category wall
 * ns, event counts, log2 ns/event histograms, heap-callable counts,
 * and attribution coverage (= attributed / total wall time).
 */

#ifndef RELIEF_SIM_HOSTPROF_HH
#define RELIEF_SIM_HOSTPROF_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace relief
{

/** Host-time attribution categories (keep hostCatName() in sync). */
enum class HostCat : std::uint8_t
{
    Other,        ///< Uncategorized events and glue.
    Sched,        ///< Hardware manager: submission, policy, launches.
    Dma,          ///< DMA engines: transfer issue and completion.
    Mem,          ///< Memory system: bandwidth reservations.
    Interconnect, ///< Fabric route construction.
    Kernels,      ///< Functional kernel payload execution.
    Stats,        ///< Stats/trace/exposition emission.
    Serve,        ///< Serving layer: arrivals, admission, alerts.
};

/** Number of host categories (array sizing). */
constexpr std::size_t numHostCats = 8;

/** Printable name of @p cat ("sched", "dma", ...). */
const char *hostCatName(HostCat cat);

namespace hostprof_detail
{
struct HostProfState;
/** Non-null while the calling thread is profiling. */
extern thread_local HostProfState *tlsState;
} // namespace hostprof_detail

/** True when host profiling is on for the calling thread. The one
 *  check the event hot path performs — an inlined thread-local
 *  pointer test. */
inline bool
hostProfEnabled()
{
    return hostprof_detail::tlsState != nullptr;
}

/**
 * Turn host profiling on or off for the calling thread. Enabling
 * resets all counters and anchors total wall time at "now"; disabling
 * freezes the state (a later hostProfSnapshot() still reads it) so a
 * caller can stop the meter before emitting JSON.
 */
void setHostProfEnabled(bool enabled);

/**
 * Open an attribution span for @p cat: charges the elapsed gap since
 * the previous boundary (to the enclosing span's category, or to
 * @p cat itself at stack bottom) and pushes @p cat.
 * @return the entry timestamp in ns (opaque; pass to
 *         hostProfExitEvent for inclusive per-event timing).
 */
std::uint64_t hostProfEnter(HostCat cat);

/** Close the innermost span, charging its exclusive remainder. */
void hostProfExit();

/**
 * Close an *event dispatch* span: like hostProfExit(), but also
 * counts one event for @p cat and files the inclusive dispatch time
 * (now - @p enter_ns) into the category's log2 ns histogram.
 */
void hostProfExitEvent(HostCat cat, std::uint64_t enter_ns);

/** Count one heap-callable fallback against @p cat (schedule-time
 *  allocation attribution; see EventQueue::numHeapCallables). */
void hostProfCountHeapAlloc(HostCat cat);

/**
 * RAII attribution span for non-event phases (stats emission, kernel
 * payloads, bandwidth reservations). Free when profiling is off.
 */
class HostProfScope
{
  public:
    explicit HostProfScope(HostCat cat)
    {
        if (hostProfEnabled()) {
            armed_ = true;
            hostProfEnter(cat);
        }
    }

    ~HostProfScope()
    {
        if (armed_)
            hostProfExit();
    }

    HostProfScope(const HostProfScope &) = delete;
    HostProfScope &operator=(const HostProfScope &) = delete;

  private:
    bool armed_ = false;
};

/**
 * Point-in-time copy of the calling thread's profile. Plain data:
 * copyable, mergeable (the benchmark pools per-cell snapshots), and
 * serializable after the profiling thread moved on.
 */
struct HostProfSnapshot
{
    /** Log2 ns/event histogram width: bucket i counts dispatches
     *  with inclusive cost in [2^(i-1), 2^i) ns (bucket 0 = 0 ns). */
    static constexpr std::size_t numNsBuckets = 40;

    struct Category
    {
        std::uint64_t wallNs = 0;     ///< Exclusive attributed ns.
        std::uint64_t events = 0;     ///< Timed event dispatches.
        std::uint64_t heapAllocs = 0; ///< Heap-callable fallbacks.
        std::array<std::uint64_t, numNsBuckets> nsHist{};
    };

    std::uint64_t totalWallNs = 0; ///< Enable (or reset) to snapshot.
    std::array<Category, numHostCats> cats{};

    /** Sum of per-category attributed wall ns. */
    std::uint64_t attributedNs() const;

    /** attributed / total, in [0, 1]; 0 when total is 0. */
    double coverage() const;

    /** Fold @p other into this snapshot (cross-thread aggregation).
     *  Wall times and counts add; coverage re-derives. */
    void merge(const HostProfSnapshot &other);

    /** Emit this snapshot as a `relief-hostprof-v1` document
     *  (schema + build_info header, then the profile). */
    void writeJson(std::ostream &os) const;
};

/** Snapshot the calling thread's profile (zeroes if never enabled).
 *  Total wall time is measured up to "now" while enabled, or up to
 *  the disable point after setHostProfEnabled(false). */
HostProfSnapshot hostProfSnapshot();

} // namespace relief

#endif // RELIEF_SIM_HOSTPROF_HH
