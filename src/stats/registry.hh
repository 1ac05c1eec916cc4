/**
 * @file
 * Hierarchically named statistics registry, in the spirit of gem5's
 * stat framework.
 *
 * Every producer declares its stats once, as a static table of
 * StatDef rows: a name, a one-line description, a kind and one
 * accessor that reads the value from the object the table is bound
 * to. A model instance then binds its producer's table under a prefix
 * (Soc::registerStats binds one accelerator table per accelerator),
 * so the registry holds one {table, object, prefix} binding per
 * instance. Full dotted names ("dram.read_bytes",
 * "soc.convolution0.tasks", "manager.forwards") are the prefix
 * followed by the row's name; they are built only when a document is
 * written or a name is looked up. Values are read lazily, so a bound
 * stat always dumps the model's current value.
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
 * carry range, buckets, and under/overflow). Binding order is
 * preserved in both, so diffs between runs stay line-aligned.
 */

#ifndef RELIEF_STATS_REGISTRY_HH
#define RELIEF_STATS_REGISTRY_HH

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
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

namespace detail
{

/** The object type an accessor lambda `[](const T &) {...}` reads. */
template <typename Fn>
struct StatObject;

template <typename Fn, typename R, typename T>
struct StatObject<R (Fn::*)(const T &) const>
{
    using type = T;
};

template <typename Fn>
using StatObjectOf =
    typename StatObject<decltype(&Fn::operator())>::type;

/** One address per object type: bind() checks a row's accessor reads
 *  the type of the object it is bound to. */
template <typename T>
inline constexpr char statObjectTag = 0;

} // namespace detail

/**
 * One row of a producer's static stat table. Build rows only with the
 * factories, each from a capture-less lambda of the bound object:
 *
 *     static constexpr StatDef rows[] = {
 *         StatDef::counter(".tasks", "tasks completed",
 *                          [](const Accelerator &a) {
 *                              return a.tasksExecuted();
 *                          }),
 *     };
 *
 * The factory sets the accessor of the row's kind; the others stay
 * null.
 */
struct StatDef
{
    using CounterFn = std::uint64_t (*)(const void *object);
    using ScalarFn = double (*)(const void *object);
    using HistogramFn = const Histogram *(*)(const void *object);

    /** Appended to the binding's prefix to form the full name. */
    const char *name;
    const char *desc;
    StatKind kind;
    /** detail::statObjectTag of the type the accessor reads. */
    const void *objectType = nullptr;
    CounterFn readCounter = nullptr;     ///< Counter kind.
    ScalarFn readScalar = nullptr;       ///< Scalar and Formula kinds.
    HistogramFn readHistogram = nullptr; ///< Histogram kind.

    /** A monotonically increasing integer stat. */
    template <typename Fn>
    static constexpr StatDef
    counter(const char *name, const char *desc, Fn)
    {
        using T = detail::StatObjectOf<Fn>;
        return {name, desc, StatKind::Counter, &detail::statObjectTag<T>,
                [](const void *o) -> std::uint64_t {
                    return Fn{}(*static_cast<const T *>(o));
                }};
    }

    /** An instantaneous floating-point stat. */
    template <typename Fn>
    static constexpr StatDef
    scalar(const char *name, const char *desc, Fn fn)
    {
        return real(name, desc, StatKind::Scalar, fn);
    }

    /** A stat derived from other stats (ratios, means). */
    template <typename Fn>
    static constexpr StatDef
    formula(const char *name, const char *desc, Fn fn)
    {
        return real(name, desc, StatKind::Formula, fn);
    }

    /** A histogram; the accessor returns a pointer into the object. */
    template <typename Fn>
    static constexpr StatDef
    histogram(const char *name, const char *desc, Fn)
    {
        using T = detail::StatObjectOf<Fn>;
        return {name, desc, StatKind::Histogram, &detail::statObjectTag<T>,
                nullptr, nullptr, [](const void *o) -> const Histogram * {
                    return Fn{}(*static_cast<const T *>(o));
                }};
    }

  private:
    template <typename Fn>
    static constexpr StatDef
    real(const char *name, const char *desc, StatKind kind, Fn)
    {
        using T = detail::StatObjectOf<Fn>;
        return {name, desc, kind, &detail::statObjectTag<T>, nullptr,
                [](const void *o) -> double {
                    return Fn{}(*static_cast<const T *>(o));
                }};
    }
};

/** One bound stat: a table row, the object it reads, its prefix. */
struct Stat
{
    const StatDef &def;
    const void *object;
    const std::string &prefix;

    StatKind kind() const { return def.kind; }
    std::string name() const { return prefix + def.name; }
    std::uint64_t counter() const { return def.readCounter(object); }
    /** A counter as a double, or a scalar/formula's value. */
    double value() const;
    const Histogram &
    histogram() const
    {
        return *def.readHistogram(object);
    }
};

class StatRegistry
{
  public:
    /**
     * Register every row of @p table, reading @p object, under
     * @p prefix (the full name is prefix + row name). Panics, naming
     * the stat, on an empty or duplicate full name or a row that
     * reads another type than @p object's; the registry is then left
     * as it was. @p object must outlive the registry.
     */
    template <std::size_t N, typename T>
    void
    bind(const StatDef (&table)[N], const T *object,
         std::string prefix = {})
    {
        bind(table, N, &detail::statObjectTag<T>, object,
             std::move(prefix));
    }

    std::size_t size() const { return size_; }
    bool contains(std::string_view name) const;

    /** Kind of the stat named @p name; panics when unknown. */
    StatKind kind(std::string_view name) const;

    /** Current value of a counter/scalar/formula stat as a double;
     *  panics on unknown names and on histograms (use histogram()). */
    double value(std::string_view name) const;

    /** The registered histogram; panics unless @p name is one. */
    const Histogram &histogram(std::string_view name) const;

    /** Call @p fn with every stat, in binding order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Binding &b : bindings_)
            for (std::size_t r = 0; r < b.size; ++r)
                fn(Stat{b.rows[r], b.object, b.prefix});
    }

    /** gem5-style "name value # description" lines. */
    void dumpText(std::ostream &os) const;

    /**
     * Just the {"stat.name": {...}, ...} stats object as @p w's next
     * value. Soc::writeStatsJson embeds it in the relief-stats-v1
     * document beside the per-app outcomes and the pressure block.
     */
    void dumpJsonStats(JsonWriter &w) const;

  private:
    void bind(const StatDef *rows, std::size_t size,
              const void *object_type, const void *object,
              std::string prefix);

    struct Binding
    {
        const StatDef *rows;
        std::size_t size;
        const void *object;
        std::string prefix;
    };

    /**
     * One slot of the open-addressed name index: a full name's hash
     * (0 marks a free slot) and where the stat is bound. Names are
     * hashed piecewise, prefix then row, so indexing builds none.
     */
    struct NameSlot
    {
        std::uint64_t hash = 0;
        std::uint32_t binding = 0;
        std::uint32_t row = 0;
    };

    Stat stat(std::size_t binding, std::size_t row) const;
    /** Add one bound row to the index; false if its name is taken. */
    bool index(std::size_t binding, std::size_t row);
    /** Rebuild the index, sized for @p stats names. */
    void reindex(std::size_t stats);
    /** The index slot of the stat named @p name, or nullptr. */
    const NameSlot *lookup(std::string_view name) const;
    Stat find(std::string_view name) const;

    std::vector<Binding> bindings_;
    std::vector<NameSlot> slots_; ///< Power-of-two size, half full.
    std::size_t size_ = 0;
};

} // namespace relief

#endif // RELIEF_STATS_REGISTRY_HH
