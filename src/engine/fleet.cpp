#include "engine/fleet.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "util/json.h"

namespace ilp::engine {
namespace {

// FNV-1a over the bytes of each mixed-in 64-bit word.
constexpr std::uint64_t fnv_offset = 14695981039346656037ull;
constexpr std::uint64_t fnv_prime = 1099511628211ull;

void mix(std::uint64_t& h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= fnv_prime;
    }
}

void write_latency(json::writer& w, const obs::histogram& h) {
    w.begin_object();
    w.key("count").u64(h.count());
    w.key("min_us").u64(h.min());
    w.key("max_us").u64(h.max());
    w.key("mean_us").number(h.mean());
    w.key("p50_us").number(h.percentile(50.0));
    w.key("p90_us").number(h.percentile(90.0));
    w.key("p99_us").number(h.percentile(99.0));
    w.end_object();
}

void write_slowest(json::writer& w, const std::vector<slow_flow>& slowest) {
    w.begin_array();
    for (const slow_flow& f : slowest) {
        w.begin_object();
        w.key("flow").u64(f.flow_id);
        w.key("elapsed_us").u64(f.elapsed_us);
        w.end_object();
    }
    w.end_array();
}

const char* outcome_name(const flow_outcome& o) {
    if (o.completed) return "completed";
    if (o.gave_up) return "gave_up";
    if (o.deadline_exceeded) return "deadline_exceeded";
    if (o.request_rejected) return "request_rejected";
    if (o.ports_exhausted) return "ports_exhausted";
    return "open";
}

}  // namespace

double fleet_report::aggregate_throughput_mbps() const {
    if (max_elapsed_us == 0) return 0.0;
    return static_cast<double>(payload_bytes) * 8.0 /
           static_cast<double>(max_elapsed_us);
}

std::uint64_t fleet_report::digest() const {
    // `flows` is sorted by finalize(), so the digest is independent of the
    // shard iteration order that collected the outcomes.  Shard-dependent
    // fields (shard index, scheduler grants, shared-queue drops) stay out:
    // the digest states what happened *to* each flow, not where it ran.
    std::uint64_t h = fnv_offset;
    for (const flow_outcome& o : flows) {
        mix(h, o.flow_id);
        std::uint64_t flags = 0;
        flags |= o.completed ? 1u : 0u;
        flags |= o.verified ? 2u : 0u;
        flags |= o.gave_up ? 4u : 0u;
        flags |= o.deadline_exceeded ? 8u : 0u;
        flags |= o.request_rejected ? 16u : 0u;
        flags |= o.ports_exhausted ? 32u : 0u;
        mix(h, flags);
        mix(h, o.payload_bytes);
        mix(h, o.elapsed_us);
        mix(h, o.rpc_retries);
        mix(h, o.tcp_retransmissions);
        mix(h, o.rekeys);
        mix(h, o.tag_failures);
        mix(h, o.epoch_skews);
        mix(h, o.epoch_window_hits);
    }
    return h;
}

void fleet_report::finalize() {
    std::sort(flows.begin(), flows.end(),
              [](const flow_outcome& a, const flow_outcome& b) {
                  return a.flow_id < b.flow_id;
              });
    completed = verified = failed = deadline_exceeded = trace_sampled = 0;
    payload_bytes = 0;
    max_elapsed_us = 0;
    for (const flow_outcome& o : flows) {
        if (o.completed) ++completed;
        if (o.verified) ++verified;
        if (o.gave_up || o.request_rejected || o.ports_exhausted) ++failed;
        if (o.deadline_exceeded) ++deadline_exceeded;
        if (o.trace_sampled) ++trace_sampled;
        payload_bytes += o.payload_bytes;
    }
    // The fleet latency view is the per-shard sketches merged — no per-flow
    // latency state anywhere — plus the shard top-k lists folded into one.
    flow_latency = obs::histogram{};
    slowest.clear();
    for (const shard_summary& s : shards) {
        max_elapsed_us = std::max(max_elapsed_us, s.elapsed_us);
        flow_latency += s.latency;
        slowest.insert(slowest.end(), s.slowest.begin(), s.slowest.end());
    }
    std::sort(slowest.begin(), slowest.end(),
              [](const slow_flow& a, const slow_flow& b) {
                  return a.elapsed_us != b.elapsed_us
                             ? a.elapsed_us > b.elapsed_us
                             : a.flow_id < b.flow_id;
              });
    if (slowest.size() > 8) slowest.resize(8);

    metrics = obs::registry{};
    metrics.add("engine.flows", flows.size());
    metrics.add("engine.completed", completed);
    metrics.add("engine.verified", verified);
    metrics.add("engine.failed", failed);
    metrics.add("engine.deadline_exceeded", deadline_exceeded);
    metrics.add("engine.payload_bytes", payload_bytes);
    metrics.add("engine.max_elapsed_us", max_elapsed_us);
    metrics.set_gauge("engine.aggregate_throughput_mbps",
                      aggregate_throughput_mbps());
    // Fleet observability: sampling coverage and the merged latency sketch,
    // whose p99 is the BENCH_scale gating quantity.
    metrics.add("obs.trace.sampled_flows", trace_sampled);
    metrics.set_gauge("obs.trace.sampling_rate_permyriad",
                      sampler.rate_permyriad);
    metrics.hist("fleet.flow_latency_us") += flow_latency;
    metrics.set_gauge("fleet.flow_latency.p99", flow_latency.percentile(99.0));
    obs::histogram& elapsed = metrics.hist("engine.flow_elapsed_us");
    obs::histogram& bytes = metrics.hist("engine.flow_payload_bytes");
    for (const flow_outcome& o : flows) {
        metrics.add("engine.rpc_retries", o.rpc_retries);
        metrics.add("engine.tcp_retransmissions", o.tcp_retransmissions);
        metrics.add("engine.reply_packets_dropped", o.reply_packets_dropped);
        metrics.add("engine.queue_dropped", o.queue_dropped);
        metrics.add("engine.crypto.rekeys", o.rekeys);
        metrics.add("engine.crypto.tag_failures", o.tag_failures);
        metrics.add("engine.crypto.epoch_skews", o.epoch_skews);
        metrics.add("engine.crypto.epoch_window_hits", o.epoch_window_hits);
        elapsed.record(o.elapsed_us);
        bytes.record(o.payload_bytes);
    }
    for (const shard_summary& s : shards) {
        // Pipelined-dataplane stall accounting (satellite of the ring
        // contract): how often stage A found every slot in flight and how
        // often stage C had to wait on the fused stage.
        metrics.add("pipeline.ring.full_waits", s.pipeline.full_waits);
        metrics.add("pipeline.ring.empty_waits", s.pipeline.empty_waits);
        metrics.add("pipeline.segments", s.pipeline.segments);
        metrics.add("pipeline.batches", s.pipeline.batches);
        metrics.add("analysis.gate.checks", s.gate.checks);
        metrics.add("analysis.gate.cache_hits", s.gate.cache_hits);
        metrics.add("analysis.gate.fallbacks", s.gate.fallbacks);
        metrics.add("engine.net.reply_packets_sent", s.reply_data.packets_sent);
        metrics.add("engine.net.reply_packets_delivered",
                    s.reply_data.packets_delivered);
        metrics.add("engine.net.reply_packets_dropped",
                    s.reply_data.packets_dropped);
        metrics.add("engine.net.reply_queue_dropped",
                    s.reply_data.packets_queue_dropped +
                        s.reply_ack.packets_queue_dropped);
        metrics.add("engine.mem.client.accesses", s.client_mem.accesses());
        metrics.add("engine.mem.client.l1d_misses", s.client_mem.l1d_misses);
        metrics.add("engine.mem.client.cycles", s.client_mem.cycles);
        metrics.add("engine.mem.server.accesses", s.server_mem.accesses());
        metrics.add("engine.mem.server.l1d_misses", s.server_mem.l1d_misses);
        metrics.add("engine.mem.server.cycles", s.server_mem.cycles);
        const std::string prefix =
            "engine.shard" + std::to_string(s.shard) + ".";
        metrics.add(prefix + "flows", s.flows);
        metrics.add(prefix + "completed", s.completed);
        metrics.add(prefix + "failed", s.failed);
        metrics.add(prefix + "fallbacks", s.fallbacks);
        metrics.add(prefix + "elapsed_us", s.elapsed_us);
        metrics.add(prefix + "mem_cycles",
                    s.client_mem.cycles + s.server_mem.cycles);
    }
}

std::string fleet_report_json(const fleet_report& report) {
    char digest[20];
    std::snprintf(digest, sizeof digest, "%016" PRIx64, report.digest());
    json::writer w;
    w.begin_object();
    w.key("schema_version").u64(1);
    w.key("kind").string("fleet_report");
    w.key("digest").string(digest);
    w.key("flows").u64(report.flows.size());
    w.key("completed").u64(report.completed);
    w.key("verified").u64(report.verified);
    w.key("failed").u64(report.failed);
    w.key("deadline_exceeded").u64(report.deadline_exceeded);
    w.key("payload_bytes").u64(report.payload_bytes);
    w.key("max_elapsed_us").u64(report.max_elapsed_us);

    w.key("sampling").begin_object();
    w.key("seed").u64(report.sampler.seed);
    w.key("rate_permyriad").u64(report.sampler.rate_permyriad);
    w.key("sampled_flows").u64(report.trace_sampled);
    w.key("trace_dropped").u64(report.metrics.counter("obs.trace.dropped"));
    w.end_object();

    w.key("latency");
    write_latency(w, report.flow_latency);
    w.key("top_slowest");
    write_slowest(w, report.slowest);

    w.key("shards").begin_array();
    for (const shard_summary& s : report.shards) {
        w.begin_object();
        w.key("shard").u64(s.shard);
        w.key("flows").u64(s.flows);
        w.key("completed").u64(s.completed);
        w.key("failed").u64(s.failed);
        w.key("fallbacks").u64(s.fallbacks);
        w.key("rekeys").u64(s.rekeys);
        w.key("elapsed_us").u64(s.elapsed_us);
        w.key("latency");
        write_latency(w, s.latency);
        w.key("top_slowest");
        write_slowest(w, s.slowest);
        w.end_object();
    }
    w.end_array();

    // The black boxes: one flight-recorder dump per flow that failed
    // explicitly or was demoted by the legality gate.  Healthy flows keep
    // their recorders private — the dump is the failure-debugging artifact,
    // not a per-flow firehose.
    w.key("black_boxes").begin_array();
    for (const flow_outcome& o : report.flows) {
        if (!o.failed_explicitly() && !o.composed_fallback) continue;
        w.begin_object();
        w.key("flow").u64(o.flow_id);
        w.key("shard").u64(o.shard);
        w.key("outcome").string(outcome_name(o));
        w.key("composed_fallback").boolean(o.composed_fallback);
        w.key("recorded").u64(o.black_box.recorded());
        w.key("events").begin_array();
        for (const obs::flight_entry& e : o.black_box.entries()) {
            w.begin_object();
            w.key("t_us").u64(e.at_us);
            w.key("ev").string(obs::flight_event_name(e.event));
            w.key("arg").u64(e.arg);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.take();
}

bool write_fleet_report_json(const fleet_report& report,
                             const std::string& path) {
    return json::write_file(path, fleet_report_json(report));
}

}  // namespace ilp::engine
