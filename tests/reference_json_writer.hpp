/**
 * @file
 * The differential oracle for util::JsonWriter.
 *
 * ReferenceJsonWriter is the writer's original `std::ostringstream`
 * implementation: one byte at a time through the escape switch,
 * integers through operator<<, control bytes through snprintf, and the
 * payload hex through a per-nibble digit table.  The library writer
 * builds into a std::string with run-based escaping and a digit-pair
 * hex table; the two must produce the same document for the same call
 * sequence.
 */

#ifndef LEAKBOUND_TESTS_REFERENCE_JSON_WRITER_HPP
#define LEAKBOUND_TESTS_REFERENCE_JSON_WRITER_HPP

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace leakbound::oracle {

/** Escape @p s byte by byte for a JSON string literal (no quotes). */
inline std::string
reference_json_escape(std::string_view s)
{
    std::string out;
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Lower-case hex of @p bytes, one nibble at a time. */
inline std::string
reference_hex(std::string_view bytes)
{
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    for (const unsigned char byte : bytes) {
        out.push_back(kDigits[byte >> 4]);
        out.push_back(kDigits[byte & 0xf]);
    }
    return out;
}

/** Same structure calls and layout as util::JsonWriter. */
class ReferenceJsonWriter
{
  public:
    ReferenceJsonWriter &begin_object() { return open('{', kObject); }
    ReferenceJsonWriter &end_object() { return close('}'); }
    ReferenceJsonWriter &begin_array() { return open('[', kArray); }
    ReferenceJsonWriter &end_array() { return close(']'); }

    ReferenceJsonWriter &
    key(const std::string &name)
    {
        if (has_entries_.back())
            out_ << ',';
        newline_indent();
        has_entries_.back() = true;
        out_ << '"' << reference_json_escape(name) << "\": ";
        return *this;
    }

    ReferenceJsonWriter &
    value(const std::string &v)
    {
        before_value();
        out_ << '"' << reference_json_escape(v) << '"';
        return *this;
    }

    ReferenceJsonWriter &
    value(double v)
    {
        before_value();
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out_ << buf;
        return *this;
    }

    ReferenceJsonWriter &
    value(std::uint64_t v)
    {
        before_value();
        out_ << v;
        return *this;
    }

    ReferenceJsonWriter &
    value(std::int64_t v)
    {
        before_value();
        out_ << v;
        return *this;
    }

    ReferenceJsonWriter &
    value(bool v)
    {
        before_value();
        out_ << (v ? "true" : "false");
        return *this;
    }

    ReferenceJsonWriter &
    null()
    {
        before_value();
        out_ << "null";
        return *this;
    }

    ReferenceJsonWriter &
    value(const std::vector<std::string> &v)
    {
        begin_array();
        for (const std::string &s : v)
            value(s);
        return end_array();
    }

    ReferenceJsonWriter &
    hex_value(std::string_view bytes)
    {
        return value(reference_hex(bytes));
    }

    std::string str() const { return out_.str(); }

  private:
    static constexpr char kObject = 'o';
    static constexpr char kArray = 'a';

    void
    newline_indent()
    {
        out_ << '\n';
        for (std::size_t i = 0; i < scopes_.size(); ++i)
            out_ << "  ";
    }

    void
    before_value()
    {
        if (scopes_.empty())
            return;
        if (scopes_.back() == kObject)
            return; // key() already wrote the comma and indent
        if (has_entries_.back())
            out_ << ',';
        newline_indent();
        has_entries_.back() = true;
    }

    ReferenceJsonWriter &
    open(char bracket, char scope)
    {
        before_value();
        out_ << bracket;
        scopes_.push_back(scope);
        has_entries_.push_back(false);
        return *this;
    }

    ReferenceJsonWriter &
    close(char bracket)
    {
        const bool had = has_entries_.back();
        scopes_.pop_back();
        has_entries_.pop_back();
        if (had)
            newline_indent();
        out_ << bracket;
        return *this;
    }

    std::ostringstream out_;
    std::vector<char> scopes_;
    std::vector<bool> has_entries_;
};

} // namespace leakbound::oracle

#endif // LEAKBOUND_TESTS_REFERENCE_JSON_WRITER_HPP
