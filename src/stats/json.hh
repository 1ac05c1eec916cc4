/**
 * @file
 * The one JSON writer. Every document (stats, pressure, serve, request
 * traces, Perfetto traces, host profiles, build info) is written
 * through JsonWriter, which owns JSON's syntax: braces, commas, key
 * quoting, escaping, number format and indentation. A writer function
 * only names its fields, one `w.field("name", value)` line each.
 * json_reader.hh is the one reader.
 */

#ifndef RELIEF_STATS_JSON_HH
#define RELIEF_STATS_JSON_HH

#include <iosfwd>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace relief
{

/**
 * Escape @p in for embedding inside a JSON string literal: quotes,
 * backslashes, and every control character below 0x20 (newline, tab,
 * carriage return, ... as their two-character escapes, anything else
 * as \u00XX). Without the control-character handling a task label
 * containing a newline produces JSON that Perfetto refuses to load.
 */
std::string jsonEscape(const std::string &in);

/**
 * Render @p value as a JSON number. JSON has no Inf/NaN literals, so
 * non-finite values are emitted as null (the convention Chrome's
 * trace viewer accepts); integral values print without an exponent,
 * others with 9 significant digits.
 */
std::string jsonNumber(double value);

/** How a container lays out its members. */
enum class JsonLayout
{
    Block,   ///< One member per line, 2 spaces deeper than its container.
    Inline,  ///< `{"a": 1, "b": 2}` on one line.
    Compact, ///< `{"a":1,"b":2}`, as Perfetto traces are written.
};

/**
 * A streaming JSON writer: open a container, write its members (key
 * then value in an object), close it with end(). Each container has
 * its own layout; an empty one prints `{}` or `[]` in any layout. It
 * does not check structure. Output is buffered and reaches the stream
 * when the outermost container closes; the caller writes any trailing
 * newline after that.
 */
class JsonWriter
{
  public:
    /** @p indent is the column the document starts at. */
    explicit JsonWriter(std::ostream &os, int indent = 0)
        : os_(os), indent_(std::size_t(indent)) {}

    JsonWriter &beginObject(JsonLayout l = {}) { return open('{', '}', l); }
    JsonWriter &beginArray(JsonLayout l = {}) { return open('[', ']', l); }
    /** Close the innermost open container. */
    JsonWriter &end();
    JsonWriter &key(std::string_view name);

    /** One number path: integers as integers, doubles through
     *  jsonNumber(); bools as true/false, an empty optional as null,
     *  anything else as a string. */
    template <typename T>
    JsonWriter &
    value(const T &v)
    {
        if constexpr (std::is_same_v<T, bool>)
            return literal(v ? "true" : "false");
        else if constexpr (std::is_integral_v<T>)
            return literal(std::to_string(v));
        else if constexpr (std::is_floating_point_v<T>)
            return literal(jsonNumber(v));
        else
            return string(v);
    }

    template <typename T>
    JsonWriter &
    value(const std::optional<T> &v)
    {
        return v ? value(*v) : literal("null");
    }

    template <typename T>
    JsonWriter &
    field(std::string_view name, const T &v)
    {
        return key(name).value(v);
    }

  private:
    struct Frame
    {
        JsonLayout layout;
        char close;
        std::size_t members;
    };

    JsonWriter &open(char brace, char close, JsonLayout layout);
    /** The comma, newline or space ahead of the next member. */
    void separate();
    JsonWriter &literal(std::string_view text);
    JsonWriter &string(std::string_view text);

    std::ostream &os_;
    std::size_t indent_;
    bool afterKey_ = false;
    std::vector<Frame> frames_;
    std::string out_;
};

} // namespace relief

#endif // RELIEF_STATS_JSON_HH
