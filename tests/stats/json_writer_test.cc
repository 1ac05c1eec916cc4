/** @file Unit tests for the streaming JSON writer. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "stats/json.hh"
#include "stats/json_reader.hh"

namespace relief
{
namespace
{

TEST(JsonWriterTest, EachContainerKeepsItsLayout)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject()
        .field("name", "doc")
        .key("block").beginObject()
        .field("a", 1)
        .end()
        .key("inline").beginArray()
        .beginObject(JsonLayout::Inline)
        .field("a", 1)
        .field("b", 2)
        .key("c").beginArray(JsonLayout::Inline)
        .value(3)
        .value(4)
        .end().end().end()
        .key("compact").beginObject(JsonLayout::Compact)
        .field("ph", "X")
        .key("args").beginObject(JsonLayout::Compact)
        .field("value", 0.5)
        .end().end().end();
    EXPECT_EQ(os.str(), "{\n"
                        "  \"name\": \"doc\",\n"
                        "  \"block\": {\n"
                        "    \"a\": 1\n"
                        "  },\n"
                        "  \"inline\": [\n"
                        "    {\"a\": 1, \"b\": 2, \"c\": [3, 4]}\n"
                        "  ],\n"
                        "  \"compact\": "
                        "{\"ph\":\"X\",\"args\":{\"value\":0.5}}\n"
                        "}");
    EXPECT_NO_THROW(JsonValue::parse(os.str()));
}

TEST(JsonWriterTest, EmptyContainersPrintAlikeInEveryLayout)
{
    for (JsonLayout layout :
         {JsonLayout::Block, JsonLayout::Inline, JsonLayout::Compact}) {
        std::ostringstream os;
        JsonWriter w(os);
        w.beginObject(layout)
            .key("list").beginArray(layout).end()
            .key("map").beginObject(layout).end()
            .end();
        JsonValue doc = JsonValue::parse(os.str());
        EXPECT_EQ(doc.at("list").size(), 0u);
        EXPECT_NE(os.str().find("[]"), std::string::npos) << os.str();
        EXPECT_NE(os.str().find("{}"), std::string::npos) << os.str();
    }
}

TEST(JsonWriterTest, IndentShiftsBlockLines)
{
    std::ostringstream os;
    JsonWriter w(os, 4);
    w.beginObject().field("a", true).end();
    EXPECT_EQ(os.str(), "{\n      \"a\": true\n    }");
}

TEST(JsonWriterTest, NumbersTakeOnePath)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginArray(JsonLayout::Compact)
        .value(-7)
        .value(std::numeric_limits<std::uint64_t>::max())
        .value(3.0)
        .value(0.1)
        .value(1303390.125)
        .value(std::nan(""))
        .value(-std::numeric_limits<double>::infinity())
        .value(std::optional<double>())
        .value(std::optional<double>(2.5))
        .value(false)
        .end();
    EXPECT_EQ(os.str(), "[-7,18446744073709551615,3,0.1,1303390.12,null,"
                        "null,null,2.5,false]");
}

TEST(JsonWriterTest, EscapesKeysAndStrings)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject(JsonLayout::Inline)
        .field("a\"b", std::string("line\nbreak\x01"))
        .end();
    EXPECT_EQ(os.str(), "{\"a\\\"b\": \"line\\nbreak\\u0001\"}");
    JsonValue doc = JsonValue::parse(os.str());
    EXPECT_EQ(doc.at("a\"b").asString(), "line\nbreak\x01");
}

} // namespace
} // namespace relief
