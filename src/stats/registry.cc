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

double
Stat::value() const
{
    return def.kind == StatKind::Counter ? double(counter())
                                         : def.readScalar(object);
}

namespace
{

/** FNV-1a, continued from @p hash over @p text. */
std::uint64_t
fnv1a(std::string_view text,
      std::uint64_t hash = 0xcbf29ce484222325ull)
{
    for (char c : text) {
        hash ^= std::uint8_t(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/** Index hash of a full name (never 0, the free-slot mark). */
std::uint64_t
nameHash(std::string_view prefix, std::string_view name)
{
    return fnv1a(name, fnv1a(prefix)) | 1;
}

/** Whether @p stat's full name is @p name, without building it. */
bool
named(const Stat &stat, std::string_view name)
{
    const std::string_view prefix = stat.prefix;
    return name.size() >= prefix.size() &&
           name.substr(0, prefix.size()) == prefix &&
           name.substr(prefix.size()) == stat.def.name;
}

} // namespace

void
StatRegistry::bind(const StatDef *rows, std::size_t size,
                   const void *object_type, const void *object,
                   std::string prefix)
{
    for (std::size_t r = 0; r < size; ++r) {
        const StatDef &def = rows[r];
        RELIEF_ASSERT(!prefix.empty() || *def.name != '\0',
                      "stat with empty name");
        RELIEF_ASSERT(def.objectType == object_type, "stat '", prefix,
                      def.name, "' reads another type than its object");
        DPRINTFN(Stats, 0, "stats", "registered ", statKindName(def.kind),
                 " '", prefix, def.name, "'");
    }
    // Keep the name index at most half full.
    if (2 * (size_ + size) > slots_.size())
        reindex(size_ + size);
    const std::size_t binding = bindings_.size();
    bindings_.push_back({rows, size, object, std::move(prefix)});
    for (std::size_t r = 0; r < size; ++r) {
        if (!index(binding, r)) {
            // Leave the registry as it was before this binding.
            const std::string name = stat(binding, r).name();
            bindings_.pop_back();
            reindex(size_);
            panic("duplicate stat registration '", name, "'");
        }
    }
    size_ += size;
}

Stat
StatRegistry::stat(std::size_t binding, std::size_t row) const
{
    const Binding &b = bindings_[binding];
    return {b.rows[row], b.object, b.prefix};
}

bool
StatRegistry::index(std::size_t binding, std::size_t row)
{
    const Stat added = stat(binding, row);
    const std::uint64_t hash = nameHash(added.prefix, added.def.name);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
        NameSlot &at = slots_[i];
        if (at.hash == 0) {
            at = {hash, std::uint32_t(binding), std::uint32_t(row)};
            return true;
        }
        // Equal hashes are a duplicate or, rarely, a collision.
        if (at.hash == hash && named(stat(at.binding, at.row),
                                     added.name()))
            return false;
    }
}

void
StatRegistry::reindex(std::size_t stats)
{
    std::size_t capacity = 256;
    while (capacity < 2 * stats)
        capacity *= 2;
    slots_.assign(capacity, NameSlot{});
    for (std::size_t b = 0; b < bindings_.size(); ++b)
        for (std::size_t r = 0; r < bindings_[b].size; ++r)
            index(b, r);
}

const StatRegistry::NameSlot *
StatRegistry::lookup(std::string_view name) const
{
    if (slots_.empty())
        return nullptr;
    const std::uint64_t hash = nameHash({}, name);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask; slots_[i].hash != 0;
         i = (i + 1) & mask) {
        if (slots_[i].hash == hash &&
            named(stat(slots_[i].binding, slots_[i].row), name))
            return &slots_[i];
    }
    return nullptr;
}

bool
StatRegistry::contains(std::string_view name) const
{
    return lookup(name) != nullptr;
}

Stat
StatRegistry::find(std::string_view name) const
{
    const NameSlot *slot = lookup(name);
    RELIEF_ASSERT(slot != nullptr, "unknown stat '", name, "'");
    return stat(slot->binding, slot->row);
}

StatKind
StatRegistry::kind(std::string_view name) const
{
    return find(name).kind();
}

double
StatRegistry::value(std::string_view name) const
{
    const Stat stat = find(name);
    RELIEF_ASSERT(stat.kind() != StatKind::Histogram,
                  "stat '", name, "' is a histogram; use histogram()");
    return stat.value();
}

const Histogram &
StatRegistry::histogram(std::string_view name) const
{
    const Stat stat = find(name);
    RELIEF_ASSERT(stat.kind() == StatKind::Histogram,
                  "stat '", name, "' is not a histogram");
    return stat.histogram();
}

namespace
{

/** One gem5-style "name value # comment" line. */
template <typename Value>
void
textLine(std::ostream &os, const std::string &name, Value value,
         std::string_view comment)
{
    os << std::left << std::setw(44) << name << " " << std::setw(16)
       << value << " # " << comment << "\n";
}

} // namespace

void
StatRegistry::dumpText(std::ostream &os) const
{
    forEach([&os](const Stat &stat) {
        const std::string name = stat.name();
        const char *desc = stat.def.desc;
        switch (stat.kind()) {
          case StatKind::Counter:
            textLine(os, name, stat.counter(), desc);
            break;
          case StatKind::Scalar:
          case StatKind::Formula:
            textLine(os, name, stat.value(), desc);
            break;
          case StatKind::Histogram: {
            const Histogram &h = stat.histogram();
            textLine(os, name + ".count", h.count(),
                     std::string(desc) + " (samples)");
            textLine(os, name + ".mean", h.mean(), desc);
            textLine(os, name + ".underflow", h.underflow(),
                     "samples below range");
            for (std::size_t b = 0; b < h.numBuckets(); ++b) {
                std::ostringstream bucket_name;
                bucket_name << name << "::" << h.bucketLo(b) << "-"
                            << h.bucketHi(b);
                textLine(os, bucket_name.str(), h.bucketCount(b),
                         "bucket count");
            }
            textLine(os, name + ".overflow", h.overflow(),
                     "samples at or above range");
            break;
          }
        }
    });
}

void
StatRegistry::dumpJsonStats(JsonWriter &w) const
{
    w.beginObject();
    forEach([&w](const Stat &stat) {
        w.key(stat.name()).beginObject()
            .field("kind", statKindName(stat.kind()))
            .field("description", stat.def.desc);
        switch (stat.kind()) {
          case StatKind::Counter:
            w.field("value", stat.counter());
            break;
          case StatKind::Scalar:
          case StatKind::Formula:
            w.field("value", stat.value());
            break;
          case StatKind::Histogram: {
            const Histogram &h = stat.histogram();
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
    });
    w.end();
}

} // namespace relief
