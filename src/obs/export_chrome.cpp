#include "obs/export_chrome.h"

#include <map>
#include <string>
#include <vector>

#include "util/json.h"

namespace ilp::obs {

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

    json::writer w;
    w.begin_object().key("traceEvents").begin_array();
    const auto emit_meta = [&](int tid, const std::string& name) {
        w.begin_object();
        w.key("ph").string("M").key("pid").u64(1).key("tid").u64(tid);
        w.key("name").string("thread_name");
        w.key("args").begin_object().key("name").string(name).end_object();
        w.end_object();
    };
    emit_meta(0, "unattributed");
    for (const auto& [side, tid] : tids) emit_meta(tid, side);

    for (const span& s : events) {
        const bool use_cycles =
            timebase == trace_timebase::cycles && s.side != nullptr;
        const std::uint64_t ts = use_cycles ? s.begin_cycles : s.begin_us;
        const std::uint64_t dur =
            use_cycles ? s.end_cycles - s.begin_cycles : s.end_us - s.begin_us;
        w.begin_object();
        w.key("ph").string(s.kind == event_kind::instant ? "i" : "X");
        w.key("pid").u64(1).key("tid").u64(tid_of(s)).key("ts").u64(ts);
        if (s.kind == event_kind::span) {
            w.key("dur").u64(dur);
        } else {
            w.key("s").string("t");
        }
        w.key("cat").string(s.category).key("name").string(s.name);
        w.key("args").begin_object().key("seq").u64(s.seq);
        // Only flow-scoped spans carry a flow arg, so spans recorded outside
        // any flow (and the golden file) are unchanged.
        if (s.flow >= 0) w.key("flow").u64(s.flow);
        w.key("depth").u64(s.depth);
        w.key("sim_us").u64(s.begin_us);
        w.key("accesses").u64(s.incl.accesses());
        w.key("l1d_misses").u64(s.incl.l1d_misses);
        w.key("l2_misses").u64(s.incl.l2_misses);
        w.key("cycles").u64(s.incl.cycles);
        w.key("self_accesses").u64(s.self.accesses());
        w.key("self_l1d_misses").u64(s.self.l1d_misses);
        w.key("self_cycles").u64(s.self.cycles);
        w.end_object().end_object();
    }
    w.end_array();
    w.key("displayTimeUnit").string("ms");
    w.key("otherData").begin_object();
    w.key("generator").string("ilpstack obs::tracer");
    w.key("timebase").string(timebase == trace_timebase::cycles ? "cycles"
                                                                : "sim_us");
    w.key("dropped_events").u64(t.dropped());
    // Sampling telemetry only when the sampler actually kept events out, so
    // unsampled traces (and their golden files) render byte-identically.
    if (t.sampled_out() > 0) {
        w.key("sampled_out").u64(t.sampled_out());
        w.key("sampling_rate_permyriad").u64(t.sampler().rate_permyriad);
    }
    w.end_object().end_object();
    return w.take();
}

bool write_chrome_trace(const tracer& t, const std::string& path,
                        trace_timebase timebase) {
    return json::write_file(path, chrome_trace_json(t, timebase));
}

}  // namespace ilp::obs
