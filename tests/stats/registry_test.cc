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

TEST(StatRegistryTest, ValuesAreReadLazily)
{
    StatRegistry registry;
    std::uint64_t bytes = 0;
    registry.addCounter("dram.bytes", "bytes moved",
                        [&bytes] { return bytes; });
    EXPECT_EQ(registry.value("dram.bytes"), 0.0);
    bytes = 4096;
    // Registration stored a getter, not a snapshot.
    EXPECT_EQ(registry.value("dram.bytes"), 4096.0);
}

TEST(StatRegistryTest, NamesPreserveRegistrationOrder)
{
    StatRegistry registry;
    double energy = 1.5;
    registry.addScalar("b.second", "2", [&energy] { return energy; });
    registry.addCounter("a.first", "1", [] { return std::uint64_t(1); });
    registry.addFormula("c.third", "3", [] { return 0.25; });
    std::vector<std::string> expect = {"b.second", "a.first", "c.third"};
    EXPECT_EQ(registry.names(), expect);
    EXPECT_EQ(registry.size(), 3u);
}

TEST(StatRegistryTest, ContainsAndKind)
{
    StatRegistry registry;
    Histogram hist(0.0, 10.0, 5);
    registry.addCounter("c", "", [] { return std::uint64_t(0); });
    registry.addScalar("s", "", [] { return 0.0; });
    registry.addFormula("f", "", [] { return 0.0; });
    registry.addHistogram("h", "", &hist);
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
    StatRegistry registry;
    Histogram hist(0.0, 10.0, 5);
    registry.addCounter("dup", "", [] { return std::uint64_t(0); });
    registry.addHistogram("h", "", &hist);
    // Duplicate and empty names are registration bugs.
    EXPECT_THROW(registry.addScalar("dup", "", [] { return 0.0; }),
                 PanicError);
    EXPECT_THROW(registry.addCounter("", "", [] { return std::uint64_t(0); }),
                 PanicError);
    // Unknown lookups and kind mismatches fail loudly too.
    EXPECT_THROW(registry.value("missing"), PanicError);
    EXPECT_THROW(registry.kind("missing"), PanicError);
    EXPECT_THROW(registry.value("h"), PanicError);
    EXPECT_THROW(registry.histogram("dup"), PanicError);
}

TEST(StatRegistryTest, FormulaTracksItsOperands)
{
    StatRegistry registry;
    std::uint64_t hits = 0, total = 0;
    registry.addFormula("cache.hit_rate", "hits / accesses",
                        [&hits, &total] {
                            return total ? double(hits) / double(total)
                                         : 0.0;
                        });
    EXPECT_EQ(registry.value("cache.hit_rate"), 0.0);
    hits = 3;
    total = 4;
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
    StatRegistry registry;
    registry.addCounter("dram.read_bytes", "bytes read from DRAM",
                        [] { return std::uint64_t(1024); });
    std::ostringstream os;
    registry.dumpText(os);
    std::string line = os.str();
    // "name" left-padded to 44 columns, then value, then "# comment".
    EXPECT_EQ(line.substr(0, 15), "dram.read_bytes");
    EXPECT_EQ(line[44], ' ');
    EXPECT_NE(line.find("1024"), std::string::npos);
    EXPECT_NE(line.find("# bytes read from DRAM"), std::string::npos);
}

TEST(StatRegistryTest, DumpTextExpandsHistograms)
{
    StatRegistry registry;
    Histogram hist(0.0, 10.0, 5);
    hist.sample(3.0);
    hist.sample(11.0);
    registry.addHistogram("manager.queue_wait_us", "queue wait", &hist);
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
    StatRegistry registry;
    Histogram hist(0.0, 10.0, 5);
    hist.sample(3.0);
    std::uint64_t count = 7;
    registry.addCounter("sim.events", "events", [&count] { return count; });
    registry.addScalar("sim.time_ms", "time", [] { return 12.5; });
    registry.addFormula("sim.rate", "events per ms",
                        [] { return 7.0 / 12.5; });
    registry.addHistogram("sim.hist", "a histogram", &hist);

    // The document header is Soc::writeStatsJson's (StatsDumpTest).
    std::ostringstream os;
    JsonWriter w(os);
    registry.dumpJsonStats(w);
    std::string json = os.str();
    EXPECT_NO_THROW(JsonValue::parse(json)) << json;
    EXPECT_NE(json.find("\"kind\": \"counter\""), std::string::npos);
    EXPECT_NE(json.find("\"value\": 7"), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"histogram\""), std::string::npos);
    EXPECT_NE(json.find("\"buckets\": [0, 1, 0, 0, 0]"),
              std::string::npos);
}

TEST(StatRegistryTest, DumpJsonEscapesDescriptions)
{
    StatRegistry registry;
    registry.addScalar("weird", "has \"quotes\" and\nnewlines",
                       [] { return 1.0; });
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
    registry.addCounter("n", "", [] { return std::uint64_t(1); });
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
    StatRegistry registry;
    registry.addFormula("bad.ratio", "0/0",
                        [] { return 0.0 / 0.0; });
    std::ostringstream os;
    JsonWriter w(os);
    registry.dumpJsonStats(w);
    std::string json = os.str();
    EXPECT_NO_THROW(JsonValue::parse(json)) << json;
    EXPECT_NE(json.find("\"value\": null"), std::string::npos);
}

} // namespace
} // namespace relief
