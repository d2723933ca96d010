// Minimal JSON reader and writer (no dependencies) for the observability
// tooling.
//
// tools/ilp-trace reads Chrome trace_event files and versioned BENCH JSON
// baselines; the container ships no JSON library, so `parse` is a small
// recursive-descent parser over what JSON defines: null, booleans, numbers
// (as double), strings with escape sequences, arrays and objects.
//
// `writer` is the one encoder every exporter uses (BENCH reports, Chrome
// traces, the fleet report, ilp-lint's verdicts), so string escaping and
// number formatting exist once.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace ilp::json {

class value;
using array = std::vector<value>;
using object = std::map<std::string, value>;

class value {
public:
    value() : v_(nullptr) {}
    value(std::nullptr_t) : v_(nullptr) {}
    value(bool b) : v_(b) {}
    value(double d) : v_(d) {}
    value(std::string s) : v_(std::move(s)) {}
    value(array a) : v_(std::move(a)) {}
    value(object o) : v_(std::move(o)) {}

    bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
    bool is_bool() const { return std::holds_alternative<bool>(v_); }
    bool is_number() const { return std::holds_alternative<double>(v_); }
    bool is_string() const { return std::holds_alternative<std::string>(v_); }
    bool is_array() const { return std::holds_alternative<array>(v_); }
    bool is_object() const { return std::holds_alternative<object>(v_); }

    bool as_bool(bool fallback = false) const {
        const bool* b = std::get_if<bool>(&v_);
        return b != nullptr ? *b : fallback;
    }
    double as_number(double fallback = 0.0) const {
        const double* d = std::get_if<double>(&v_);
        return d != nullptr ? *d : fallback;
    }
    const std::string* as_string() const {
        return std::get_if<std::string>(&v_);
    }
    const array* as_array() const { return std::get_if<array>(&v_); }
    const object* as_object() const { return std::get_if<object>(&v_); }

    // Object member lookup; nullptr when this is not an object or the key
    // is absent.
    const value* find(std::string_view key) const {
        const object* o = as_object();
        if (o == nullptr) return nullptr;
        const auto it = o->find(std::string(key));
        return it == o->end() ? nullptr : &it->second;
    }
    // Convenience: member number / string with fallback.
    double number_at(std::string_view key, double fallback = 0.0) const {
        const value* m = find(key);
        return m == nullptr ? fallback : m->as_number(fallback);
    }
    std::string string_at(std::string_view key,
                          std::string fallback = "") const {
        const value* m = find(key);
        if (m == nullptr) return fallback;
        const std::string* s = m->as_string();
        return s == nullptr ? fallback : *s;
    }

private:
    std::variant<std::nullptr_t, bool, double, std::string, array, object> v_;
};

// Parses a complete JSON document (trailing whitespace allowed, trailing
// garbage rejected); nullopt on any syntax error.
std::optional<value> parse(std::string_view text);

// Reads a whole file and parses it; nullopt on I/O or syntax error.
std::optional<value> parse_file(const std::string& path);

// The writer's two fixed layouts.  `compact` has no whitespace at all
// (Chrome trace, fleet report).  `records` puts one record per line (BENCH
// and lint reports): the root object, and each object or array that is a
// member of a line-broken object, put every member on its own line,
// indented two spaces a level; an array element stays whole on its line
// with ", " and ": " inside.  A `records` document ends with a newline.
enum class layout { compact, records };

// Streaming JSON writer; calls chain: w.key("n").u64(3).  Strings escape
// '"', '\\' and every byte below 0x20 (as a \u00XX escape); other bytes,
// UTF-8 included, pass through.  The caller balances begin/end and pairs
// every key with one value.
class writer {
public:
    explicit writer(layout l = layout::compact) : layout_(l) {}

    writer& begin_object() { return open('{'); }
    writer& end_object() { return close('}'); }
    writer& begin_array() { return open('['); }
    writer& end_array() { return close(']'); }
    writer& key(std::string_view k);
    writer& string(std::string_view s);
    writer& u64(std::uint64_t v);
    writer& number(double v);  // %.10g
    writer& boolean(bool b) { return raw(b ? "true" : "false"); }

    // The document written so far.
    const std::string& text() const { return out_; }
    std::string take() { return std::move(out_); }

private:
    struct level {
        bool object;
        bool broken;  // one member per line
        bool empty;
    };

    writer& raw(std::string_view token);
    writer& open(char c);
    writer& close(char c);
    void separate();  // before a key, or a value that follows no key
    void newline();   // then indent to the current depth

    layout layout_;
    std::string out_;
    std::vector<level> stack_;
    bool after_key_ = false;
};

// Writes `text` to `path`, replacing it; false on any I/O failure.
bool write_file(const std::string& path, std::string_view text);

}  // namespace ilp::json
