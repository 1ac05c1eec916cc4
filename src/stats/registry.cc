#include "stats/registry.hh"

#include <iomanip>
#include <utility>

#include "sim/debug.hh"
#include "sim/logging.hh"
#include "stats/json.hh"

namespace relief
{

const char *
statKindName(StatKind kind)
{
    switch (kind) {
      case StatKind::Counter:
        return "counter";
      case StatKind::Scalar:
        return "scalar";
      case StatKind::Formula:
        return "formula";
      case StatKind::Histogram:
        return "histogram";
    }
    return "?";
}

void
StatRegistry::add(Entry entry)
{
    RELIEF_ASSERT(!entry.name.empty(), "stat with empty name");
    RELIEF_ASSERT(index_.find(entry.name) == index_.end(),
                  "duplicate stat registration '", entry.name, "'");
    DPRINTFN(Stats, 0, "stats", "registered ",
             statKindName(entry.kind), " '", entry.name, "'");
    index_.emplace(entry.name, entries_.size());
    entries_.push_back(std::move(entry));
}

void
StatRegistry::addCounter(const std::string &name, std::string desc,
                         CounterGetter get)
{
    RELIEF_ASSERT(get != nullptr, "counter '", name, "' needs a getter");
    Entry entry;
    entry.name = name;
    entry.desc = std::move(desc);
    entry.kind = StatKind::Counter;
    entry.getCounter = std::move(get);
    add(std::move(entry));
}

void
StatRegistry::addScalar(const std::string &name, std::string desc,
                        ScalarGetter get)
{
    RELIEF_ASSERT(get != nullptr, "scalar '", name, "' needs a getter");
    Entry entry;
    entry.name = name;
    entry.desc = std::move(desc);
    entry.kind = StatKind::Scalar;
    entry.getScalar = std::move(get);
    add(std::move(entry));
}

void
StatRegistry::addFormula(const std::string &name, std::string desc,
                         ScalarGetter get)
{
    RELIEF_ASSERT(get != nullptr, "formula '", name, "' needs a getter");
    Entry entry;
    entry.name = name;
    entry.desc = std::move(desc);
    entry.kind = StatKind::Formula;
    entry.getScalar = std::move(get);
    add(std::move(entry));
}

void
StatRegistry::addHistogram(const std::string &name, std::string desc,
                           const Histogram *hist)
{
    RELIEF_ASSERT(hist != nullptr, "histogram '", name, "' is null");
    Entry entry;
    entry.name = name;
    entry.desc = std::move(desc);
    entry.kind = StatKind::Histogram;
    entry.hist = hist;
    add(std::move(entry));
}

bool
StatRegistry::contains(const std::string &name) const
{
    return index_.find(name) != index_.end();
}

const StatRegistry::Entry &
StatRegistry::find(const std::string &name) const
{
    auto it = index_.find(name);
    RELIEF_ASSERT(it != index_.end(), "unknown stat '", name, "'");
    return entries_[it->second];
}

StatKind
StatRegistry::kind(const std::string &name) const
{
    return find(name).kind;
}

double
StatRegistry::value(const std::string &name) const
{
    const Entry &entry = find(name);
    RELIEF_ASSERT(entry.kind != StatKind::Histogram,
                  "stat '", name, "' is a histogram; use histogram()");
    if (entry.kind == StatKind::Counter)
        return double(entry.getCounter());
    return entry.getScalar();
}

const Histogram &
StatRegistry::histogram(const std::string &name) const
{
    const Entry &entry = find(name);
    RELIEF_ASSERT(entry.kind == StatKind::Histogram,
                  "stat '", name, "' is not a histogram");
    return *entry.hist;
}

std::vector<std::string>
StatRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry &entry : entries_)
        out.push_back(entry.name);
    return out;
}

namespace
{

/** One gem5-style "name value # comment" line. */
template <typename Value>
void
textLine(std::ostream &os, const std::string &name, Value value,
         const std::string &comment)
{
    os << std::left << std::setw(44) << name << " " << std::setw(16)
       << value << " # " << comment << "\n";
}

} // namespace

void
StatRegistry::dumpText(std::ostream &os) const
{
    for (const Entry &entry : entries_) {
        switch (entry.kind) {
          case StatKind::Counter:
            textLine(os, entry.name, entry.getCounter(), entry.desc);
            break;
          case StatKind::Scalar:
          case StatKind::Formula:
            textLine(os, entry.name, entry.getScalar(), entry.desc);
            break;
          case StatKind::Histogram: {
            const Histogram &h = *entry.hist;
            textLine(os, entry.name + ".count", h.count(),
                     entry.desc + " (samples)");
            textLine(os, entry.name + ".mean", h.mean(), entry.desc);
            textLine(os, entry.name + ".underflow", h.underflow(),
                     "samples below range");
            for (std::size_t b = 0; b < h.numBuckets(); ++b) {
                std::ostringstream bucket_name;
                bucket_name << entry.name << "::" << h.bucketLo(b) << "-"
                            << h.bucketHi(b);
                textLine(os, bucket_name.str(), h.bucketCount(b),
                         "bucket count");
            }
            textLine(os, entry.name + ".overflow", h.overflow(),
                     "samples at or above range");
            break;
          }
        }
    }
}

void
StatRegistry::dumpJsonStats(JsonWriter &w) const
{
    w.beginObject();
    for (const Entry &entry : entries_) {
        w.key(entry.name).beginObject()
            .field("kind", statKindName(entry.kind))
            .field("description", entry.desc);
        switch (entry.kind) {
          case StatKind::Counter:
            w.field("value", entry.getCounter());
            break;
          case StatKind::Scalar:
          case StatKind::Formula:
            w.field("value", entry.getScalar());
            break;
          case StatKind::Histogram: {
            const Histogram &h = *entry.hist;
            w.field("count", h.count())
                .field("mean", h.mean())
                .field("min", h.min())
                .field("max", h.max())
                .key("range").beginArray(JsonLayout::Inline)
                .value(h.rangeLo()).value(h.rangeHi()).end()
                .field("underflow", h.underflow())
                .field("overflow", h.overflow())
                .key("buckets").beginArray(JsonLayout::Inline);
            for (std::size_t b = 0; b < h.numBuckets(); ++b)
                w.value(h.bucketCount(b));
            w.end();
            break;
          }
        }
        w.end();
    }
    w.end();
}

} // namespace relief
