/**
 * @file
 * Hierarchically named statistics registry, in the spirit of gem5's
 * stat framework.
 *
 * Every model registers its counters once (registerStats() on the
 * model, called by the Soc facade at construction) under stable
 * dotted names — "dram.read_bytes", "soc.convolution0.tasks",
 * "manager.forwards" — together with a one-line description. Values
 * are read lazily through getter closures, so a registered stat always
 * dumps the model's current value; nothing is copied at registration
 * time.
 *
 * Four stat kinds:
 *  - counter:   monotonically increasing integer (bytes, events),
 *  - scalar:    instantaneous floating-point value (energy, time),
 *  - formula:   value derived from other stats (fractions, means),
 *  - histogram: bucketed distribution (stats/stats.hh Histogram).
 *
 * Two dump formats: gem5-style text ("name value # description") and a
 * stable JSON schema ("relief-stats-v1": one object keyed by stat name,
 * each entry carrying kind/description/value — histograms additionally
 * carry range, buckets, and under/overflow). Registration order is
 * preserved in both, so diffs between runs stay line-aligned.
 */

#ifndef RELIEF_STATS_REGISTRY_HH
#define RELIEF_STATS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "stats/stats.hh"
#include "stats/json.hh"

namespace relief
{

/** What a registered stat is (tags the JSON export). */
enum class StatKind
{
    Counter,
    Scalar,
    Formula,
    Histogram,
};

const char *statKindName(StatKind kind);

class StatRegistry
{
  public:
    using CounterGetter = std::function<std::uint64_t()>;
    using ScalarGetter = std::function<double()>;

    /** Register a monotonically increasing integer stat. */
    void addCounter(const std::string &name, std::string desc,
                    CounterGetter get);

    /** Register an instantaneous floating-point stat. */
    void addScalar(const std::string &name, std::string desc,
                   ScalarGetter get);

    /** Register a stat derived from other stats (ratios, means). */
    void addFormula(const std::string &name, std::string desc,
                    ScalarGetter get);

    /** Register a histogram; @p hist must outlive the registry. */
    void addHistogram(const std::string &name, std::string desc,
                      const Histogram *hist);

    std::size_t size() const { return entries_.size(); }
    bool contains(const std::string &name) const;

    /** Kind of the stat named @p name; panics when unknown. */
    StatKind kind(const std::string &name) const;

    /** Current value of a counter/scalar/formula stat as a double;
     *  panics on unknown names and on histograms (use histogram()). */
    double value(const std::string &name) const;

    /** The registered histogram; panics unless @p name is one. */
    const Histogram &histogram(const std::string &name) const;

    /** Registered names, in registration order. */
    std::vector<std::string> names() const;

    /** gem5-style "name value # description" lines. */
    void dumpText(std::ostream &os) const;

    /**
     * Just the {"stat.name": {...}, ...} stats object as @p w's next
     * value. Soc::writeStatsJson embeds it in the relief-stats-v1
     * document beside the per-app outcomes and the pressure block.
     */
    void dumpJsonStats(JsonWriter &w) const;

  private:
    struct Entry
    {
        std::string name;
        std::string desc;
        StatKind kind = StatKind::Scalar;
        CounterGetter getCounter; ///< Counter kind.
        ScalarGetter getScalar;   ///< Scalar and Formula kinds.
        const Histogram *hist = nullptr;
    };

    const Entry &find(const std::string &name) const;
    void add(Entry entry);

    std::vector<Entry> entries_;
    std::map<std::string, std::size_t> index_;
};

} // namespace relief

#endif // RELIEF_STATS_REGISTRY_HH
