/** @file Unit tests for the hierarchical stat registry. */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "stats/json.hh"
#include "stats/json_reader.hh"
#include "stats/registry.hh"

namespace relief
{
namespace
{

/** The object the tests' stat tables read. */
struct Model
{
    std::uint64_t bytes = 0;
    double energy = 1.5;
    std::uint64_t hits = 0;
    std::uint64_t total = 0;
    Histogram hist{0.0, 10.0, 5};
};

constexpr StatDef counterRow[] = {
    StatDef::counter("dram.bytes", "bytes moved",
                     [](const Model &m) { return m.bytes; }),
};

constexpr StatDef oneOfEach[] = {
    StatDef::counter("c", "", [](const Model &m) { return m.bytes; }),
    StatDef::scalar("s", "", [](const Model &m) { return m.energy; }),
    StatDef::formula("f", "", [](const Model &) { return 0.0; }),
    StatDef::histogram("h", "", [](const Model &m) { return &m.hist; }),
};

std::vector<std::string>
namesOf(const StatRegistry &registry)
{
    std::vector<std::string> names;
    registry.forEach(
        [&names](const Stat &stat) { names.push_back(stat.name()); });
    return names;
}

TEST(StatRegistryTest, ValuesAreReadLazily)
{
    StatRegistry registry;
    Model model;
    registry.bind(counterRow, &model);
    EXPECT_EQ(registry.value("dram.bytes"), 0.0);
    model.bytes = 4096;
    // Binding stored an accessor, not a snapshot.
    EXPECT_EQ(registry.value("dram.bytes"), 4096.0);
}

TEST(StatRegistryTest, NamesPreserveRegistrationOrder)
{
    static constexpr StatDef rows[] = {
        StatDef::scalar("b.second", "2",
                        [](const Model &m) { return m.energy; }),
        StatDef::counter("a.first", "1",
                         [](const Model &) { return std::uint64_t(1); }),
        StatDef::formula("c.third", "3", [](const Model &) { return 0.25; }),
    };
    StatRegistry registry;
    Model model;
    registry.bind(rows, &model);
    registry.bind(counterRow, &model, "acc0.");
    std::vector<std::string> expect = {"b.second", "a.first", "c.third",
                                       "acc0.dram.bytes"};
    EXPECT_EQ(namesOf(registry), expect);
    EXPECT_EQ(registry.size(), 4u);
}

TEST(StatRegistryTest, PrefixedBindingsReadTheirOwnObject)
{
    static constexpr StatDef rows[] = {
        StatDef::counter(".bytes", "bytes moved",
                         [](const Model &m) { return m.bytes; }),
    };
    StatRegistry registry;
    Model first, second;
    first.bytes = 1;
    second.bytes = 2;
    registry.bind(rows, &first, "acc0");
    registry.bind(rows, &second, "acc1");
    EXPECT_EQ(registry.value("acc0.bytes"), 1.0);
    EXPECT_EQ(registry.value("acc1.bytes"), 2.0);
    // Only whole names match: a prefix or a row name alone does not.
    EXPECT_FALSE(registry.contains("acc0"));
    EXPECT_FALSE(registry.contains(".bytes"));
    EXPECT_FALSE(registry.contains("acc0.bytesx"));
}

TEST(StatRegistryTest, ContainsAndKind)
{
    StatRegistry registry;
    Model model;
    registry.bind(oneOfEach, &model);
    EXPECT_TRUE(registry.contains("c"));
    EXPECT_FALSE(registry.contains("missing"));
    EXPECT_EQ(registry.kind("c"), StatKind::Counter);
    EXPECT_EQ(registry.kind("s"), StatKind::Scalar);
    EXPECT_EQ(registry.kind("f"), StatKind::Formula);
    EXPECT_EQ(registry.kind("h"), StatKind::Histogram);
    EXPECT_STREQ(statKindName(StatKind::Formula), "formula");
}

TEST(StatRegistryTest, MisusePanics)
{
    static constexpr StatDef dup[] = {
        StatDef::counter("dup", "", [](const Model &m) { return m.bytes; }),
        StatDef::histogram("h", "", [](const Model &m) { return &m.hist; }),
    };
    static constexpr StatDef scalarDup[] = {
        StatDef::scalar("dup", "", [](const Model &) { return 0.0; }),
    };
    static constexpr StatDef unnamed[] = {
        StatDef::counter("", "", [](const Model &m) { return m.bytes; }),
    };
    StatRegistry registry;
    Model model;
    registry.bind(dup, &model);
    // Duplicate and empty names are registration bugs.
    EXPECT_THROW(registry.bind(scalarDup, &model), PanicError);
    EXPECT_THROW(registry.bind(unnamed, &model), PanicError);
    // A table bound to an object of another type than it reads.
    int other = 0;
    EXPECT_THROW(registry.bind(counterRow, &other), PanicError);
    // A rejected binding leaves the registry as it was.
    EXPECT_EQ(registry.size(), 2u);
    EXPECT_EQ(namesOf(registry), (std::vector<std::string>{"dup", "h"}));
    // Unknown lookups and kind mismatches fail loudly too.
    EXPECT_THROW(registry.value("missing"), PanicError);
    EXPECT_THROW(registry.kind("missing"), PanicError);
    EXPECT_THROW(registry.value("h"), PanicError);
    EXPECT_THROW(registry.histogram("dup"), PanicError);
}

TEST(StatRegistryTest, TwoBindingsWithOneFullNamePanic)
{
    // "acc.bytes" from one table under prefix "acc" and from another
    // table with an empty prefix: the same full name, two sources.
    static constexpr StatDef prefixed[] = {
        StatDef::counter(".bytes", "", [](const Model &m) { return m.bytes; }),
    };
    static constexpr StatDef whole[] = {
        StatDef::counter("acc.hits", "", [](const Model &m) { return m.hits; }),
        StatDef::counter("acc.bytes", "",
                         [](const Model &m) { return m.bytes; }),
    };
    StatRegistry registry;
    Model model;
    registry.bind(prefixed, &model, "acc");
    try {
        registry.bind(whole, &model);
        FAIL() << "duplicate full name was accepted";
    } catch (const PanicError &err) {
        EXPECT_NE(std::string(err.what()).find("'acc.bytes'"),
                  std::string::npos)
            << err.what();
    }
    // The same table bound twice under one prefix is caught too.
    EXPECT_THROW(registry.bind(prefixed, &model, "acc"), PanicError);
    EXPECT_EQ(namesOf(registry), (std::vector<std::string>{"acc.bytes"}));
    EXPECT_FALSE(registry.contains("acc.hits"));
}

TEST(StatRegistryTest, IndexGrowsPastItsFirstSize)
{
    static constexpr StatDef rows[] = {
        StatDef::counter(".bytes", "", [](const Model &m) { return m.bytes; }),
        StatDef::counter(".hits", "", [](const Model &m) { return m.hits; }),
    };
    StatRegistry registry;
    std::vector<Model> models(300);
    for (std::size_t i = 0; i < models.size(); ++i) {
        models[i].bytes = i;
        registry.bind(rows, &models[i], "acc" + std::to_string(i));
    }
    EXPECT_EQ(registry.size(), 600u);
    EXPECT_EQ(registry.value("acc0.bytes"), 0.0);
    EXPECT_EQ(registry.value("acc299.bytes"), 299.0);
    EXPECT_THROW(registry.bind(rows, &models[7], "acc7"), PanicError);
    EXPECT_EQ(registry.size(), 600u);
    EXPECT_EQ(registry.value("acc7.bytes"), 7.0);
}

TEST(StatRegistryTest, FormulaTracksItsOperands)
{
    static constexpr StatDef rows[] = {
        StatDef::formula("cache.hit_rate", "hits / accesses",
                         [](const Model &m) {
                             return m.total ? double(m.hits) /
                                                  double(m.total)
                                            : 0.0;
                         }),
    };
    StatRegistry registry;
    Model model;
    registry.bind(rows, &model);
    EXPECT_EQ(registry.value("cache.hit_rate"), 0.0);
    model.hits = 3;
    model.total = 4;
    EXPECT_DOUBLE_EQ(registry.value("cache.hit_rate"), 0.75);
}

TEST(StatRegistryTest, HistogramBucketsRouteSamples)
{
    Histogram hist(0.0, 10.0, 5);
    hist.sample(-1.0);  // underflow
    hist.sample(0.0);   // bucket 0: [0, 2)
    hist.sample(3.5);   // bucket 1: [2, 4)
    hist.sample(9.99);  // bucket 4: [8, 10)
    hist.sample(10.0);  // overflow (upper edge is exclusive)
    hist.sample(42.0);  // overflow

    EXPECT_EQ(hist.numBuckets(), 5u);
    EXPECT_DOUBLE_EQ(hist.bucketLo(1), 2.0);
    EXPECT_DOUBLE_EQ(hist.bucketHi(1), 4.0);
    EXPECT_EQ(hist.bucketCount(0), 1u);
    EXPECT_EQ(hist.bucketCount(1), 1u);
    EXPECT_EQ(hist.bucketCount(4), 1u);
    EXPECT_EQ(hist.underflow(), 1u);
    EXPECT_EQ(hist.overflow(), 2u);
    EXPECT_EQ(hist.count(), 6u); // includes under/overflow
    EXPECT_DOUBLE_EQ(hist.min(), -1.0);
    EXPECT_DOUBLE_EQ(hist.max(), 42.0);
}

TEST(StatRegistryTest, DumpTextUsesGem5Columns)
{
    static constexpr StatDef rows[] = {
        StatDef::counter(".read_bytes", "bytes read from DRAM",
                         [](const Model &m) { return m.bytes; }),
    };
    StatRegistry registry;
    Model model;
    model.bytes = 1024;
    registry.bind(rows, &model, "dram");
    std::ostringstream os;
    registry.dumpText(os);
    std::string line = os.str();
    // "name" left-padded to 44 columns, then value, then "# comment".
    EXPECT_EQ(line.substr(0, 16), "dram.read_bytes ");
    EXPECT_EQ(line[44], ' ');
    EXPECT_NE(line.find("1024"), std::string::npos);
    EXPECT_NE(line.find("# bytes read from DRAM"), std::string::npos);
}

TEST(StatRegistryTest, DumpTextExpandsHistograms)
{
    static constexpr StatDef rows[] = {
        StatDef::histogram("manager.queue_wait_us", "queue wait",
                           [](const Model &m) { return &m.hist; }),
    };
    StatRegistry registry;
    Model model;
    model.hist.sample(3.0);
    model.hist.sample(11.0);
    registry.bind(rows, &model);
    std::ostringstream os;
    registry.dumpText(os);
    std::string text = os.str();
    EXPECT_NE(text.find("manager.queue_wait_us.count"), std::string::npos);
    EXPECT_NE(text.find("manager.queue_wait_us.mean"), std::string::npos);
    EXPECT_NE(text.find("manager.queue_wait_us.underflow"),
              std::string::npos);
    EXPECT_NE(text.find("manager.queue_wait_us::2-4"), std::string::npos);
    EXPECT_NE(text.find("manager.queue_wait_us.overflow"),
              std::string::npos);
}

TEST(StatRegistryTest, DumpJsonRoundTrips)
{
    static constexpr StatDef rows[] = {
        StatDef::counter("sim.events", "events",
                         [](const Model &m) { return m.bytes; }),
        StatDef::scalar("sim.time_ms", "time",
                        [](const Model &) { return 12.5; }),
        StatDef::formula("sim.rate", "events per ms",
                         [](const Model &) { return 7.0 / 12.5; }),
        StatDef::histogram("sim.hist", "a histogram",
                           [](const Model &m) { return &m.hist; }),
    };
    StatRegistry registry;
    Model model;
    model.bytes = 7;
    model.hist.sample(3.0);
    registry.bind(rows, &model);

    // The document header is Soc::writeStatsJson's (StatsDumpTest).
    std::ostringstream os;
    JsonWriter w(os);
    registry.dumpJsonStats(w);
    std::string json = os.str();
    JsonValue doc = JsonValue::parse(json);
    EXPECT_EQ(doc.at("sim.events").at("kind").asString(), "counter");
    EXPECT_EQ(doc.at("sim.events").at("value").asNumber(), 7.0);
    EXPECT_EQ(doc.at("sim.time_ms").at("value").asNumber(), 12.5);
    EXPECT_EQ(doc.at("sim.rate").at("kind").asString(), "formula");
    EXPECT_EQ(doc.at("sim.hist").at("kind").asString(), "histogram");
    EXPECT_EQ(doc.at("sim.hist").at("description").asString(), "a histogram");
    EXPECT_NE(json.find("\"buckets\": [0, 1, 0, 0, 0]"),
              std::string::npos);
}

TEST(StatRegistryTest, DumpJsonEscapesDescriptions)
{
    static constexpr StatDef rows[] = {
        StatDef::scalar("weird", "has \"quotes\" and\nnewlines",
                        [](const Model &) { return 1.0; }),
    };
    StatRegistry registry;
    Model model;
    registry.bind(rows, &model);
    std::ostringstream os;
    JsonWriter w(os);
    registry.dumpJsonStats(w);
    std::string json = os.str();
    EXPECT_NO_THROW(JsonValue::parse(json)) << json;
    EXPECT_NE(json.find("\\\"quotes\\\""), std::string::npos);
    EXPECT_NE(json.find("\\n"), std::string::npos);
}

TEST(StatRegistryTest, DumpJsonStatsEmbeds)
{
    StatRegistry registry;
    Model model;
    registry.bind(counterRow, &model);
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject().key("stats");
    registry.dumpJsonStats(w);
    w.end();
    // The fragment form plugs into a larger document (writeStatsJson).
    EXPECT_NO_THROW(JsonValue::parse(os.str())) << os.str();
}

TEST(StatRegistryTest, NonFiniteScalarsExportAsNull)
{
    static constexpr StatDef rows[] = {
        StatDef::formula("bad.ratio", "0/0",
                         [](const Model &m) {
                             return double(m.hits) / double(m.total);
                         }),
    };
    StatRegistry registry;
    Model model;
    registry.bind(rows, &model);
    std::ostringstream os;
    JsonWriter w(os);
    registry.dumpJsonStats(w);
    std::string json = os.str();
    EXPECT_NO_THROW(JsonValue::parse(json)) << json;
    EXPECT_NE(json.find("\"value\": null"), std::string::npos);
}

} // namespace
} // namespace relief
