/**
 * @file
 * Minimal DOM JSON reader for tooling that consumes our own JSON
 * artifacts back (relief_compare --diff reads relief-stats-v1 /
 * relief-pressure-v1 documents). Dependency-free recursive descent:
 * the full document is parsed into a JsonValue tree up front, then
 * navigated with at()/find(). This is a reporting-path utility — it
 * allocates freely and is not meant for the simulation hot path.
 *
 * The grammar is RFC 8259's, strictly: anything else (a '+' or bare
 * '.' in a number, leading zeros, raw control characters in strings)
 * is a fatal() with the line and column of the offending character.
 * Tests use parse() to assert that an export really is JSON.
 */

#ifndef RELIEF_STATS_JSON_READER_HH
#define RELIEF_STATS_JSON_READER_HH

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace relief
{

class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    JsonValue() = default;

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Value accessors fatal() on a kind mismatch: the diff tool
     *  treats a malformed document as an input error, not a bug. */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;

    /** Array / object element count (0 for scalars). */
    std::size_t size() const;

    /** Array element; fatal() when out of range or not an array. */
    const JsonValue &at(std::size_t index) const;

    /** Object member; fatal() when missing or not an object. */
    const JsonValue &at(const std::string &key) const;

    /** Object member or nullptr when absent (tolerant lookup). */
    const JsonValue *find(const std::string &key) const;

    /** Object keys in document order (empty for non-objects). */
    const std::vector<std::string> &keys() const { return keys_; }

    static JsonValue parse(const std::string &text);
    static JsonValue parseFile(const std::string &path);

  private:
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::vector<std::string> keys_; ///< Object keys, document order.
    std::map<std::string, std::size_t> index_; ///< key -> array_ slot.
};

} // namespace relief

#endif // RELIEF_STATS_JSON_READER_HH
