#include "stats/json.hh"

#include <cmath>
#include <cstdio>
#include <ostream>

namespace relief
{

namespace
{

void
appendEscaped(std::string &out, std::string_view in)
{
    // Copy runs of plain characters whole; most strings have no escape.
    std::size_t plain = 0;
    for (std::size_t i = 0; i < in.size(); ++i) {
        unsigned char c = static_cast<unsigned char>(in[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(in.substr(plain, i - plain));
        plain = i + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default:
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", unsigned(c));
            out += buf;
        }
    }
    out.append(in.substr(plain));
}

} // namespace

std::string
jsonEscape(const std::string &in)
{
    std::string out;
    appendEscaped(out, in);
    return out;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    bool integral = value == std::floor(value) && std::fabs(value) < 1e15;
    char buf[32];
    std::snprintf(buf, sizeof(buf), integral ? "%.0f" : "%.9g", value);
    return buf;
}

void
JsonWriter::separate()
{
    if (afterKey_ || frames_.empty()) {
        afterKey_ = false;
        return;
    }
    Frame &frame = frames_.back();
    if (frame.members++ > 0)
        out_ += frame.layout == JsonLayout::Inline ? ", " : ",";
    if (frame.layout == JsonLayout::Block)
        out_.append(1, '\n').append(indent_ + 2 * frames_.size(), ' ');
}

JsonWriter &
JsonWriter::open(char brace, char close, JsonLayout layout)
{
    separate();
    out_ += brace;
    frames_.push_back({layout, close, 0});
    return *this;
}

JsonWriter &
JsonWriter::end()
{
    Frame frame = frames_.back();
    frames_.pop_back();
    if (frame.layout == JsonLayout::Block && frame.members > 0)
        out_.append(1, '\n').append(indent_ + 2 * frames_.size(), ' ');
    out_ += frame.close;
    // The stream gets the document when it is complete, and every
    // 64 KiB before that.
    if (frames_.empty() || out_.size() >= 64 * 1024) {
        os_ << out_;
        out_.clear();
    }
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    string(name);
    out_ += frames_.back().layout == JsonLayout::Compact ? ":" : ": ";
    afterKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::literal(std::string_view text)
{
    separate();
    out_ += text;
    return *this;
}

JsonWriter &
JsonWriter::string(std::string_view text)
{
    separate();
    out_ += '"';
    appendEscaped(out_, text);
    out_ += '"';
    return *this;
}

} // namespace relief
