#include "sim/hostprof.hh"

#include <bit>
#include <chrono>
#include <ostream>

#include "sim/build_info.hh"
#include "sim/logging.hh"

namespace relief
{

namespace hostprof_detail
{

/**
 * Per-thread profiling state. Exclusive-time accounting: anchorNs is
 * the last attribution boundary; every enter/exit charges the span
 * since the anchor to whatever category was on top of the stack (or
 * to the incoming category when the stack is empty — gap charging),
 * then moves the anchor.
 */
struct HostProfState
{
    static constexpr std::size_t maxDepth = 16;

    std::uint64_t enabledAtNs = 0; ///< Total-wall anchor.
    std::uint64_t frozenAtNs = 0;  ///< Disable time; 0 while live.
    std::uint64_t anchorNs = 0;    ///< Last attribution boundary.
    std::size_t depth = 0;
    std::array<HostCat, maxDepth> stack{};
    std::array<HostProfSnapshot::Category, numHostCats> cats{};

    HostCat
    top() const
    {
        std::size_t stored = depth < maxDepth ? depth : maxDepth;
        return stack[stored - 1];
    }

    void
    charge(HostCat cat, std::uint64_t now)
    {
        cats[static_cast<std::size_t>(cat)].wallNs += now - anchorNs;
        anchorNs = now;
    }
};

thread_local HostProfState *tlsState = nullptr;

namespace
{

/** Backing storage; outlives disable so snapshots stay readable. */
thread_local HostProfState tlsStorage;

std::uint64_t
clockNs()
{
    using namespace std::chrono;
    return std::uint64_t(
        duration_cast<nanoseconds>(steady_clock::now().time_since_epoch())
            .count());
}

std::size_t
nsBucket(std::uint64_t ns)
{
    if (ns == 0)
        return 0;
    std::size_t b = std::size_t(std::bit_width(ns));
    return b < HostProfSnapshot::numNsBuckets
               ? b
               : HostProfSnapshot::numNsBuckets - 1;
}

} // namespace
} // namespace hostprof_detail

using hostprof_detail::HostProfState;
using hostprof_detail::clockNs;
using hostprof_detail::tlsState;
using hostprof_detail::tlsStorage;

const char *
hostCatName(HostCat cat)
{
    switch (cat) {
      case HostCat::Other: return "other";
      case HostCat::Sched: return "sched";
      case HostCat::Dma: return "dma";
      case HostCat::Mem: return "mem";
      case HostCat::Interconnect: return "interconnect";
      case HostCat::Kernels: return "kernels";
      case HostCat::Stats: return "stats";
      case HostCat::Serve: return "serve";
    }
    return "other";
}

void
setHostProfEnabled(bool enabled)
{
    if (enabled) {
        tlsStorage = HostProfState{};
        tlsStorage.enabledAtNs = clockNs();
        tlsStorage.anchorNs = tlsStorage.enabledAtNs;
        tlsState = &tlsStorage;
    } else {
        if (tlsStorage.enabledAtNs != 0 && tlsStorage.frozenAtNs == 0) {
            std::uint64_t now = clockNs();
            // Charge the stretch since the last boundary to whatever
            // span is still open (callers may freeze from inside a
            // root scope), so nothing trails off unattributed.
            if (tlsStorage.depth > 0)
                tlsStorage.charge(tlsStorage.top(), now);
            tlsStorage.frozenAtNs = now;
        }
        tlsState = nullptr;
    }
}

std::uint64_t
hostProfEnter(HostCat cat)
{
    HostProfState &st = *tlsState;
    std::uint64_t now = clockNs();
    st.charge(st.depth == 0 ? cat : st.top(), now);
    if (st.depth < HostProfState::maxDepth)
        st.stack[st.depth] = cat;
    ++st.depth;
    return now;
}

void
hostProfExit()
{
    // A scope armed while profiling was on may close after a freeze
    // (e.g. a tool's root scope outliving its JSON export); the
    // freeze already charged everything, so this is a no-op then.
    if (!tlsState)
        return;
    HostProfState &st = *tlsState;
    RELIEF_ASSERT(st.depth > 0, "hostprof scope underflow");
    std::uint64_t now = clockNs();
    st.charge(st.top(), now);
    --st.depth;
}

void
hostProfExitEvent(HostCat cat, std::uint64_t enter_ns)
{
    if (!tlsState)
        return;
    HostProfState &st = *tlsState;
    RELIEF_ASSERT(st.depth > 0, "hostprof event span underflow");
    std::uint64_t now = clockNs();
    st.charge(st.top(), now);
    --st.depth;
    auto &c = st.cats[static_cast<std::size_t>(cat)];
    ++c.events;
    ++c.nsHist[hostprof_detail::nsBucket(now - enter_ns)];
}

void
hostProfCountHeapAlloc(HostCat cat)
{
    ++tlsState->cats[static_cast<std::size_t>(cat)].heapAllocs;
}

HostProfSnapshot
hostProfSnapshot()
{
    HostProfSnapshot snap;
    const HostProfState &st = tlsStorage;
    if (st.enabledAtNs == 0)
        return snap;
    std::uint64_t upTo = st.frozenAtNs ? st.frozenAtNs : clockNs();
    snap.totalWallNs = upTo - st.enabledAtNs;
    snap.cats = st.cats;
    return snap;
}

std::uint64_t
HostProfSnapshot::attributedNs() const
{
    std::uint64_t sum = 0;
    for (const Category &c : cats)
        sum += c.wallNs;
    return sum;
}

double
HostProfSnapshot::coverage() const
{
    if (totalWallNs == 0)
        return 0.0;
    double cov = double(attributedNs()) / double(totalWallNs);
    return cov > 1.0 ? 1.0 : cov;
}

void
HostProfSnapshot::merge(const HostProfSnapshot &other)
{
    totalWallNs += other.totalWallNs;
    for (std::size_t i = 0; i < numHostCats; ++i) {
        cats[i].wallNs += other.cats[i].wallNs;
        cats[i].events += other.cats[i].events;
        cats[i].heapAllocs += other.cats[i].heapAllocs;
        for (std::size_t b = 0; b < numNsBuckets; ++b)
            cats[i].nsHist[b] += other.cats[i].nsHist[b];
    }
}

void
HostProfSnapshot::writeJson(std::ostream &os) const
{
    os << "{\n";
    os << "  \"schema\": \"relief-hostprof-v1\",\n";
    os << "  \"build_info\": ";
    writeBuildInfoJson(os, 2);
    os << ",\n";
    os << "  \"total_wall_ns\": " << totalWallNs << ",\n";
    os << "  \"attributed_wall_ns\": " << attributedNs() << ",\n";
    os << "  \"coverage\": " << coverage() << ",\n";
    os << "  \"categories\": {\n";
    for (std::size_t i = 0; i < numHostCats; ++i) {
        const Category &c = cats[i];
        os << "    \"" << hostCatName(static_cast<HostCat>(i)) << "\": {\n";
        os << "      \"wall_ns\": " << c.wallNs << ",\n";
        os << "      \"events\": " << c.events << ",\n";
        os << "      \"heap_allocs\": " << c.heapAllocs << ",\n";
        os << "      \"ns_hist\": [";
        for (std::size_t b = 0; b < numNsBuckets; ++b)
            os << (b ? ", " : "") << c.nsHist[b];
        os << "]\n";
        os << "    }" << (i + 1 < numHostCats ? "," : "") << "\n";
    }
    os << "  }\n";
    os << "}";
}

} // namespace relief
