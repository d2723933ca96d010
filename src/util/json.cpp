#include "util/json.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

// GCC 12 false-positives -Wmaybe-uninitialized on the variant move inside
// `value(std::move(out))` once parse_object/parse_array are inlined into
// parse_value at -O2 (gcc bug 105562); the temporary is fully constructed.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace ilp::json {

namespace {

class parser {
public:
    explicit parser(std::string_view text) : text_(text) {}

    std::optional<value> run() {
        skip_ws();
        std::optional<value> v = parse_value();
        if (!v.has_value()) return std::nullopt;
        skip_ws();
        if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
        return v;
    }

private:
    static constexpr std::size_t max_depth = 64;

    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;

    bool eof() const { return pos_ >= text_.size(); }
    char peek() const { return text_[pos_]; }

    void skip_ws() {
        while (!eof()) {
            const char c = peek();
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
            ++pos_;
        }
    }

    bool consume(char c) {
        if (eof() || peek() != c) return false;
        ++pos_;
        return true;
    }

    bool consume_literal(std::string_view lit) {
        if (text_.substr(pos_, lit.size()) != lit) return false;
        pos_ += lit.size();
        return true;
    }

    std::optional<value> parse_value() {
        if (eof()) return std::nullopt;
        switch (peek()) {
            case 'n':
                return consume_literal("null")
                           ? std::optional<value>(value(nullptr))
                           : std::nullopt;
            case 't':
                return consume_literal("true")
                           ? std::optional<value>(value(true))
                           : std::nullopt;
            case 'f':
                return consume_literal("false")
                           ? std::optional<value>(value(false))
                           : std::nullopt;
            case '"': return parse_string_value();
            case '[': return parse_array();
            case '{': return parse_object();
            default: return parse_number();
        }
    }

    std::optional<value> parse_number() {
        const std::size_t start = pos_;
        if (!eof() && peek() == '-') ++pos_;
        while (!eof() && (std::isdigit(static_cast<unsigned char>(peek())) ||
                          peek() == '.' || peek() == 'e' || peek() == 'E' ||
                          peek() == '+' || peek() == '-')) {
            ++pos_;
        }
        if (pos_ == start) return std::nullopt;
        // strtod needs a terminated buffer; numbers are short.
        char buf[64];
        const std::size_t len = pos_ - start;
        if (len >= sizeof buf) return std::nullopt;
        text_.copy(buf, len, start);
        buf[len] = '\0';
        char* end = nullptr;
        const double d = std::strtod(buf, &end);
        if (end != buf + len) return std::nullopt;
        return value(d);
    }

    std::optional<std::string> parse_string() {
        if (!consume('"')) return std::nullopt;
        std::string out;
        while (!eof()) {
            const char c = text_[pos_++];
            if (c == '"') return out;
            // RFC 8259: control characters must be escaped.
            if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (eof()) return std::nullopt;
            const char esc = text_[pos_++];
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
                    if (pos_ + 4 > text_.size()) return std::nullopt;
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9') code |= h - '0';
                        else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
                        else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
                        else return std::nullopt;
                    }
                    // UTF-8 encode the BMP code point (surrogate pairs in
                    // our own output never occur; pass them through raw).
                    if (code < 0x80) {
                        out.push_back(static_cast<char>(code));
                    } else if (code < 0x800) {
                        out.push_back(static_cast<char>(0xC0 | (code >> 6)));
                        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                    } else {
                        out.push_back(static_cast<char>(0xE0 | (code >> 12)));
                        out.push_back(
                            static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
                        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                    }
                    break;
                }
                default: return std::nullopt;
            }
        }
        return std::nullopt;  // unterminated
    }

    std::optional<value> parse_string_value() {
        std::optional<std::string> s = parse_string();
        if (!s.has_value()) return std::nullopt;
        return value(std::move(*s));
    }

    std::optional<value> parse_array() {
        if (!consume('[') || ++depth_ > max_depth) return std::nullopt;
        array out;
        skip_ws();
        if (consume(']')) {
            --depth_;
            return value(std::move(out));
        }
        while (true) {
            skip_ws();
            std::optional<value> v = parse_value();
            if (!v.has_value()) return std::nullopt;
            out.push_back(std::move(*v));
            skip_ws();
            if (consume(']')) break;
            if (!consume(',')) return std::nullopt;
        }
        --depth_;
        return value(std::move(out));
    }

    std::optional<value> parse_object() {
        if (!consume('{') || ++depth_ > max_depth) return std::nullopt;
        object out;
        skip_ws();
        if (consume('}')) {
            --depth_;
            return value(std::move(out));
        }
        while (true) {
            skip_ws();
            std::optional<std::string> key = parse_string();
            if (!key.has_value()) return std::nullopt;
            skip_ws();
            if (!consume(':')) return std::nullopt;
            skip_ws();
            std::optional<value> v = parse_value();
            if (!v.has_value()) return std::nullopt;
            out.insert_or_assign(std::move(*key), std::move(*v));
            skip_ws();
            if (consume('}')) break;
            if (!consume(',')) return std::nullopt;
        }
        --depth_;
        return value(std::move(out));
    }
};

}  // namespace

std::optional<value> parse(std::string_view text) {
    return parser(text).run();
}

std::optional<value> parse_file(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return std::nullopt;
    std::string text;
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
        text.append(buf, n);
    }
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    if (!ok) return std::nullopt;
    return parse(text);
}

writer& writer::key(std::string_view k) {
    string(k);
    out_ += layout_ == layout::compact ? ":" : ": ";
    after_key_ = true;
    return *this;
}

writer& writer::string(std::string_view s) {
    separate();
    out_ += '"';
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out_ += '\\';
            out_ += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(c));
            out_ += buf;
        } else {
            out_ += c;
        }
    }
    out_ += '"';
    return *this;
}

writer& writer::u64(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    return raw(buf);
}

writer& writer::number(double v) {
    char buf[48];
    // %.10g keeps integers exact up to 2^33 and round-trips the precision
    // the diff tool needs without trailing-digit noise.
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return raw(buf);
}

writer& writer::raw(std::string_view token) {
    separate();
    out_ += token;
    return *this;
}

writer& writer::open(char c) {
    separate();
    const bool broken =
        layout_ == layout::records &&
        (stack_.empty() || (stack_.back().object && stack_.back().broken));
    stack_.push_back({c == '{', broken, true});
    out_ += c;
    return *this;
}

writer& writer::close(char c) {
    const level done = stack_.back();
    stack_.pop_back();
    if (done.broken && !done.empty) newline();
    out_ += c;
    if (stack_.empty() && layout_ == layout::records) out_ += '\n';
    return *this;
}

void writer::separate() {
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (stack_.empty()) return;
    level& l = stack_.back();
    if (!l.empty) out_ += layout_ == layout::records && !l.broken ? ", " : ",";
    if (l.broken) newline();
    l.empty = false;
}

void writer::newline() {
    out_ += '\n';
    out_.append(2 * stack_.size(), ' ');
}

bool write_file(const std::string& path, std::string_view text) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const bool written =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && written;
}

}  // namespace ilp::json
