#include "obs/export_chrome.h"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace ilp::obs {

namespace {

void append_escaped(std::string& out, const char* s) {
    for (; *s != '\0'; ++s) {
        const char c = *s;
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
        } else {
            out.push_back(c);
        }
    }
}

void append_u64(std::string& out, std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    out += buf;
}

}  // namespace

std::string chrome_trace_json(const tracer& t, trace_timebase timebase) {
    const std::vector<span> events = t.events();

    // Stable tid assignment: tid 0 for unattributed events, then sides in
    // order of first appearance.
    std::map<std::string, int> tids;
    const auto tid_of = [&](const span& s) {
        if (s.side == nullptr) return 0;
        const auto it = tids.find(s.side);
        if (it != tids.end()) return it->second;
        const int tid = static_cast<int>(tids.size()) + 1;
        tids.emplace(s.side, tid);
        return tid;
    };
    for (const span& s : events) tid_of(s);

    std::string out;
    out.reserve(events.size() * 256 + 512);
    out += "{\"traceEvents\":[";
    bool first = true;

    const auto emit_meta = [&](int tid, const std::string& name) {
        if (!first) out += ",";
        first = false;
        out += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
        append_u64(out, static_cast<std::uint64_t>(tid));
        out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
        append_escaped(out, name.c_str());
        out += "\"}}";
    };
    emit_meta(0, "unattributed");
    for (const auto& [side, tid] : tids) emit_meta(tid, side);

    for (const span& s : events) {
        const bool use_cycles =
            timebase == trace_timebase::cycles && s.side != nullptr;
        const std::uint64_t ts = use_cycles ? s.begin_cycles : s.begin_us;
        const std::uint64_t dur =
            use_cycles ? s.end_cycles - s.begin_cycles : s.end_us - s.begin_us;
        if (!first) out += ",";
        first = false;
        out += "{\"ph\":\"";
        out += s.kind == event_kind::instant ? "i" : "X";
        out += "\",\"pid\":1,\"tid\":";
        append_u64(out, static_cast<std::uint64_t>(tid_of(s)));
        out += ",\"ts\":";
        append_u64(out, ts);
        if (s.kind == event_kind::span) {
            out += ",\"dur\":";
            append_u64(out, dur);
        } else {
            out += ",\"s\":\"t\"";
        }
        out += ",\"cat\":\"";
        append_escaped(out, s.category);
        out += "\",\"name\":\"";
        append_escaped(out, s.name);
        out += "\",\"args\":{\"seq\":";
        append_u64(out, s.seq);
        // Only flow-scoped spans carry a flow arg, so spans recorded outside
        // any flow (and the golden file) are unchanged.
        if (s.flow >= 0) {
            out += ",\"flow\":";
            append_u64(out, static_cast<std::uint64_t>(s.flow));
        }
        out += ",\"depth\":";
        append_u64(out, s.depth);
        out += ",\"sim_us\":";
        append_u64(out, s.begin_us);
        out += ",\"accesses\":";
        append_u64(out, s.incl.accesses());
        out += ",\"l1d_misses\":";
        append_u64(out, s.incl.l1d_misses);
        out += ",\"l2_misses\":";
        append_u64(out, s.incl.l2_misses);
        out += ",\"cycles\":";
        append_u64(out, s.incl.cycles);
        out += ",\"self_accesses\":";
        append_u64(out, s.self.accesses());
        out += ",\"self_l1d_misses\":";
        append_u64(out, s.self.l1d_misses);
        out += ",\"self_cycles\":";
        append_u64(out, s.self.cycles);
        out += "}}";
    }
    out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":"
           "\"ilpstack obs::tracer\",\"timebase\":\"";
    out += timebase == trace_timebase::cycles ? "cycles" : "sim_us";
    out += "\",\"dropped_events\":";
    append_u64(out, t.dropped());
    // Sampling telemetry only when the sampler actually kept events out, so
    // unsampled traces (and their golden files) render byte-identically.
    if (t.sampled_out() > 0) {
        out += ",\"sampled_out\":";
        append_u64(out, t.sampled_out());
        out += ",\"sampling_rate_permyriad\":";
        append_u64(out, t.sampler().rate_permyriad);
    }
    out += "}}";
    return out;
}

bool write_chrome_trace(const tracer& t, const std::string& path,
                        trace_timebase timebase) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string json = chrome_trace_json(t, timebase);
    const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
    const bool ok = written == json.size() && std::fclose(f) == 0;
    if (written != json.size()) std::fclose(f);
    return ok;
}

}  // namespace ilp::obs
