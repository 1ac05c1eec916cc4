/** @file Unit tests for the DOM JSON reader behind diff tooling. */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "stats/json_reader.hh"

namespace relief
{
namespace
{

TEST(JsonReaderTest, ParsesScalarsArraysAndObjects)
{
    JsonValue doc = JsonValue::parse(
        R"({"a": 1.5, "b": [1, 2, 3], "c": {"d": "text"},
            "t": true, "f": false, "n": null, "neg": -2e3})");
    EXPECT_DOUBLE_EQ(doc.at("a").asNumber(), 1.5);
    ASSERT_EQ(doc.at("b").size(), 3u);
    EXPECT_DOUBLE_EQ(doc.at("b").at(2).asNumber(), 3.0);
    EXPECT_EQ(doc.at("c").at("d").asString(), "text");
    EXPECT_TRUE(doc.at("t").asBool());
    EXPECT_FALSE(doc.at("f").asBool());
    EXPECT_TRUE(doc.at("n").isNull());
    EXPECT_DOUBLE_EQ(doc.at("neg").asNumber(), -2000.0);
}

TEST(JsonReaderTest, KeysPreserveDocumentOrder)
{
    JsonValue doc = JsonValue::parse(R"({"z": 1, "a": 2, "m": 3})");
    ASSERT_EQ(doc.keys().size(), 3u);
    EXPECT_EQ(doc.keys()[0], "z");
    EXPECT_EQ(doc.keys()[1], "a");
    EXPECT_EQ(doc.keys()[2], "m");
}

TEST(JsonReaderTest, FindToleratesMissingMembers)
{
    JsonValue doc = JsonValue::parse(R"({"here": 1})");
    EXPECT_NE(doc.find("here"), nullptr);
    EXPECT_EQ(doc.find("gone"), nullptr);
    EXPECT_THROW(doc.at("gone"), FatalError);
}

TEST(JsonReaderTest, DecodesStringEscapes)
{
    JsonValue doc =
        JsonValue::parse(R"({"s": "a\"b\\c\nd\teA"})");
    EXPECT_EQ(doc.at("s").asString(), "a\"b\\c\nd\teA");
}

TEST(JsonReaderTest, RejectsMalformedDocuments)
{
    EXPECT_THROW(JsonValue::parse("{"), FatalError);
    EXPECT_THROW(JsonValue::parse("[1, 2"), FatalError);
    EXPECT_THROW(JsonValue::parse("{\"a\" 1}"), FatalError);
    EXPECT_THROW(JsonValue::parse("12 34"), FatalError);
    EXPECT_THROW(JsonValue::parse("\"open"), FatalError);
    EXPECT_THROW(JsonValue::parse("nope"), FatalError);
}

TEST(JsonReaderTest, RejectsNonRfcNumbers)
{
    // Each is a number strtod would take but RFC 8259 forbids; the
    // error names the line and column of the offending character.
    for (const char *text :
         {"+1", ".5", "-.5", "1.", "1e", "[1e+]", "01", "-01", "1.e3"}) {
        try {
            JsonValue::parse(text);
            ADD_FAILURE() << "accepted " << text;
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find("line 1, column"),
                      std::string::npos)
                << text << ": " << err.what();
        }
    }
    // The grammar's edge cases that are valid.
    EXPECT_DOUBLE_EQ(JsonValue::parse("0").asNumber(), 0.0);
    EXPECT_DOUBLE_EQ(JsonValue::parse("-0.5").asNumber(), -0.5);
    EXPECT_DOUBLE_EQ(JsonValue::parse("10").asNumber(), 10.0);
    EXPECT_DOUBLE_EQ(JsonValue::parse("1E+2").asNumber(), 100.0);
    EXPECT_DOUBLE_EQ(JsonValue::parse("2e-1").asNumber(), 0.2);
}

TEST(JsonReaderTest, RejectsNonRfcStringsAndWhitespace)
{
    EXPECT_THROW(JsonValue::parse("\"a\nb\""), FatalError);
    EXPECT_THROW(JsonValue::parse(R"("\u12G4")"), FatalError);
    EXPECT_THROW(JsonValue::parse(R"("\u12")"), FatalError);
    EXPECT_THROW(JsonValue::parse("\v1"), FatalError);
    EXPECT_EQ(JsonValue::parse(R"("\u0041")").asString(), "A");
    EXPECT_DOUBLE_EQ(JsonValue::parse(" \t\r\n1\n").asNumber(), 1.0);
}

TEST(JsonReaderTest, KindMismatchesAreFatal)
{
    JsonValue doc = JsonValue::parse(R"({"n": 1})");
    EXPECT_THROW(doc.at("n").asString(), FatalError);
    EXPECT_THROW(doc.at("n").at(0), FatalError);
    EXPECT_THROW(doc.at(0), FatalError);
}

TEST(JsonReaderTest, RejectsNonFiniteNumbers)
{
    // JSON has no NaN/Infinity literals, and strtod would otherwise
    // quietly return inf for out-of-range magnitudes like 1e999.
    EXPECT_THROW(JsonValue::parse("1e999"), FatalError);
    EXPECT_THROW(JsonValue::parse("-1e999"), FatalError);
    EXPECT_THROW(JsonValue::parse(R"({"x": 1e400})"), FatalError);
    EXPECT_THROW(JsonValue::parse("NaN"), FatalError);
    EXPECT_THROW(JsonValue::parse("Infinity"), FatalError);
    EXPECT_THROW(JsonValue::parse("-Infinity"), FatalError);
    // Large-but-representable values still parse.
    EXPECT_DOUBLE_EQ(JsonValue::parse("1e308").asNumber(), 1e308);
}

TEST(JsonReaderTest, ErrorsCarryLineAndColumn)
{
    try {
        JsonValue::parse("{\n  \"ok\": 1,\n  \"bad\": \"unterminated");
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        std::string what = err.what();
        EXPECT_NE(what.find("line 3"), std::string::npos) << what;
        EXPECT_NE(what.find("column"), std::string::npos) << what;
        EXPECT_NE(what.find("unterminated string"), std::string::npos)
            << what;
    }
}

TEST(JsonReaderTest, CapsNestingDepth)
{
    // 64 levels are fine; 100 must fail with a parse error rather
    // than a stack overflow.
    auto nested = [](int depth) {
        std::string doc(std::size_t(depth), '[');
        doc += "1";
        doc.append(std::size_t(depth), ']');
        return doc;
    };
    EXPECT_NO_THROW(JsonValue::parse(nested(60)));
    try {
        JsonValue::parse(nested(100));
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("nesting depth"),
                  std::string::npos)
            << err.what();
    }
}

TEST(JsonReaderTest, DuplicateKeysKeepLastValue)
{
    // Defined behavior: last value wins, key keeps its first position.
    JsonValue doc =
        JsonValue::parse(R"({"a": 1, "b": 2, "a": 3})");
    ASSERT_EQ(doc.keys().size(), 2u);
    EXPECT_EQ(doc.keys()[0], "a");
    EXPECT_EQ(doc.keys()[1], "b");
    EXPECT_DOUBLE_EQ(doc.at("a").asNumber(), 3.0);
}

TEST(JsonReaderTest, RoundTripsAPressureDocument)
{
    // The shape relief_compare --diff consumes, in miniature.
    JsonValue doc = JsonValue::parse(R"({
        "schema": "relief-pressure-v1",
        "totals": {"bytes": 1024, "wait_us": 3.5},
        "resources": [
            {"name": "dram.channel", "bytes": 1024,
             "contenders": [
                 {"source": "accA", "qos": "default",
                  "traffic": "dram_fetch", "bytes": 1024}]}
        ]})");
    EXPECT_EQ(doc.at("schema").asString(), "relief-pressure-v1");
    const JsonValue &res = doc.at("resources").at(0);
    EXPECT_EQ(res.at("name").asString(), "dram.channel");
    EXPECT_DOUBLE_EQ(
        res.at("contenders").at(0).at("bytes").asNumber(), 1024.0);
}

} // namespace
} // namespace relief
