#include "stats/json_reader.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"

namespace relief
{

bool
JsonValue::asBool() const
{
    if (kind_ != Kind::Bool)
        fatal("JSON value is not a bool");
    return bool_;
}

double
JsonValue::asNumber() const
{
    if (kind_ != Kind::Number)
        fatal("JSON value is not a number");
    return number_;
}

const std::string &
JsonValue::asString() const
{
    if (kind_ != Kind::String)
        fatal("JSON value is not a string");
    return string_;
}

std::size_t
JsonValue::size() const
{
    return kind_ == Kind::Object ? keys_.size() : array_.size();
}

const JsonValue &
JsonValue::at(std::size_t index) const
{
    if (kind_ != Kind::Array)
        fatal("JSON value is not an array");
    if (index >= array_.size())
        fatal("JSON array index ", index, " out of range (size ",
              array_.size(), ")");
    return array_[index];
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *value = find(key);
    if (!value)
        fatal("JSON object has no member '", key, "'");
    return *value;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &array_[it->second];
}

/** Recursive-descent parser over the whole input string. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue
    run()
    {
        JsonValue root = value();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing characters after the document");
        return root;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        // Line and column of the current position, for messages a
        // user can jump to in an editor.
        int line = 1;
        int column = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                column = 1;
            } else {
                ++column;
            }
        }
        fatal("JSON parse error at line ", line, ", column ", column,
              ": ", what);
    }

    void
    skipSpace()
    {
        // RFC 8259 whitespace only: no \v or \f.
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        skipSpace();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" +
                 text_[pos_] + "'");
        ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && peek() == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p, ++pos_)
            if (pos_ >= text_.size() || text_[pos_] != *p)
                fail(std::string("bad literal (expected ") + word + ")");
    }

    JsonValue
    value()
    {
        JsonValue out;
        switch (peek()) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            out.kind_ = JsonValue::Kind::String;
            out.string_ = string();
            return out;
          case 't':
            literal("true");
            out.kind_ = JsonValue::Kind::Bool;
            out.bool_ = true;
            return out;
          case 'f':
            literal("false");
            out.kind_ = JsonValue::Kind::Bool;
            out.bool_ = false;
            return out;
          case 'n':
            literal("null");
            return out;
          default:
            return number();
        }
    }

    JsonValue
    object()
    {
        expect('{');
        DepthGuard guard(*this);
        JsonValue out;
        out.kind_ = JsonValue::Kind::Object;
        if (consume('}'))
            return out;
        do {
            skipSpace();
            std::string key = string();
            expect(':');
            // Duplicate keys are defined to keep the LAST value (the
            // behavior of python's json and most readers): the member
            // stays at its first position in keys(), but the value is
            // overwritten in place. Covered by json_reader_test.
            auto it = out.index_.find(key);
            if (it == out.index_.end()) {
                out.index_[key] = out.array_.size();
                out.keys_.push_back(key);
                out.array_.push_back(value());
            } else {
                out.array_[it->second] = value();
            }
        } while (consume(','));
        expect('}');
        return out;
    }

    JsonValue
    array()
    {
        expect('[');
        DepthGuard guard(*this);
        JsonValue out;
        out.kind_ = JsonValue::Kind::Array;
        if (consume(']'))
            return out;
        do {
            out.array_.push_back(value());
        } while (consume(','));
        expect(']');
        return out;
    }

    std::string
    string()
    {
        if (peek() != '"')
            fail("expected a string");
        ++pos_;
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_];
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in a string");
            ++pos_;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char esc = text_[pos_++];
            switch (esc) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                for (std::size_t i = pos_; i < pos_ + 4; ++i)
                    if (i >= text_.size() ||
                        !std::isxdigit(
                            static_cast<unsigned char>(text_[i])))
                        fail("\\u escape needs four hex digits");
                unsigned code = unsigned(std::strtoul(
                    text_.substr(pos_, 4).c_str(), nullptr, 16));
                pos_ += 4;
                // Our writers only escape control characters; anything
                // else round-trips as a replacement byte, which the
                // diff tool never compares anyway.
                out.push_back(code < 0x80 ? char(code) : '?');
                break;
              }
              default:
                fail("unknown escape");
            }
        }
        if (pos_ >= text_.size())
            fail("unterminated string");
        ++pos_; // closing quote
        return out;
    }

    bool
    digitAt(std::size_t i) const
    {
        return i < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[i]));
    }

    /** Consume a run of digits; false when there was none. */
    bool
    digits()
    {
        std::size_t start = pos_;
        while (digitAt(pos_))
            ++pos_;
        return pos_ > start;
    }

    /** RFC 8259 number: -? (0 | [1-9][0-9]*) (. [0-9]+)?
     *  ([eE] [+-]? [0-9]+)? — no '+', no bare '.', no leading zeros. */
    JsonValue
    number()
    {
        std::size_t start = pos_;
        if (text_[pos_] == '-')
            ++pos_;
        if (!digitAt(pos_))
            fail(pos_ == start ? "expected a value"
                               : "expected a digit after '-'");
        if (text_[pos_] == '0' && digitAt(pos_ + 1)) {
            ++pos_;
            fail("leading zero in a number");
        }
        digits();
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (!digits())
                fail("expected a digit after '.'");
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '-' || text_[pos_] == '+'))
                ++pos_;
            if (!digits())
                fail("expected a digit in the exponent");
        }
        JsonValue out;
        out.kind_ = JsonValue::Kind::Number;
        out.number_ =
            std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
        // JSON has no NaN/Infinity; strtod also turns out-of-range
        // magnitudes (1e999) into inf, which would silently poison
        // every downstream comparison. Reject both here.
        if (!std::isfinite(out.number_))
            fail("number is NaN/Inf or out of double range");
        return out;
    }

    /** Caps recursion so a pathological document (10k open brackets)
     *  fails with a parse error instead of a stack overflow. */
    struct DepthGuard
    {
        explicit DepthGuard(JsonParser &parser) : parser_(parser)
        {
            if (++parser_.depth_ > maxDepth)
                parser_.fail("nesting depth exceeds " +
                             std::to_string(maxDepth));
        }
        ~DepthGuard() { --parser_.depth_; }
        JsonParser &parser_;
    };

    static constexpr int maxDepth = 64;

    const std::string &text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

JsonValue
JsonValue::parse(const std::string &text)
{
    return JsonParser(text).run();
}

JsonValue
JsonValue::parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read JSON file '", path, "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse(buffer.str());
}

} // namespace relief
