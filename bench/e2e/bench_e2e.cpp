// bench_e2e: wall-clock end-to-end and per-layer benchmark of the engine.
//
//   bench_e2e --workload=NAME [--seed=N] [--seconds=S] [--json=PATH]
//             [--traced [--probes]]
//   bench_e2e --smoke
//   bench_e2e compare [--bounds=BENCHMARK.json] PARENT.json... -- CHANGE.json...
//
// Untraced (the default), the workload runs one untimed reference fleet
// through engine::run_fleet_native, which doubles as the warm-up, then its
// fixed number of timed reps (or as many as fit in --seconds) through the
// bench's own fleet runner (fleet_runner.h), and reports every end-to-end
// metric as the median over reps.  With --traced the reps run with a tracer
// installed, alternating with untraced reps, and report per-layer counts
// and wall times instead; --probes adds the layer probes (probes.h) and the
// attribution table.  Every rep passes the correctness gate or the program
// exits 1.
#include <sys/resource.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "calibration.h"
#include "compare.h"
#include "crypto/aead.h"
#include "crypto/safer_simplified.h"
#include "fleet_runner.h"
#include "obs/bench_json.h"
#include "probes.h"
#include "stats.h"
#include "stats/table.h"
#include "workloads.h"

namespace ilp::bench_e2e {
namespace {

using obs::direction;

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    std::string json_path;
    bool traced = false;
    bool probes = false;
    double seconds = 0.0;  // 0: the workload's fixed rep count
    double probe_batch_s = 0.005;
};

std::string hex(std::uint64_t v) {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// The correctness gate: every fleet the bench runs must end exactly as the
// generator set it up, with the reference digest.
class correctness_gate {
public:
    explicit correctness_gate(const workload& w) : w_(w) {}

    void check(const engine::fleet_report& r, std::uint64_t reference,
               const char* what) {
        attempted_ += r.flows.size();
        const std::uint32_t off = w_.mismatches(r);
        mismatched_ += off;
        if (off != 0) fail(what, std::to_string(off) + " flows off their fate");
        const std::uint32_t transfers =
            w_.count(flow_fate::healthy) + w_.count(flow_fate::demoted);
        if (r.completed != transfers || r.verified != transfers) {
            fail(what, "completed " + std::to_string(r.completed) +
                           ", verified " + std::to_string(r.verified) +
                           ", expected " + std::to_string(transfers));
        }
        const std::uint32_t doomed =
            w_.count(flow_fate::gave_up) + w_.count(flow_fate::deadline);
        if (r.failed + r.deadline_exceeded != doomed) {
            fail(what, std::to_string(r.failed + r.deadline_exceeded) +
                           " explicit failures, " + std::to_string(doomed) +
                           " doomed");
        }
        const std::uint64_t fallbacks =
            r.metrics.counter("analysis.gate.fallbacks");
        if (fallbacks != w_.count(flow_fate::demoted)) {
            fail(what, std::to_string(fallbacks) + " gate fallbacks, " +
                           std::to_string(w_.count(flow_fate::demoted)) +
                           " demoted");
        }
        if (r.digest() != reference) {
            fail(what, "digest " + hex(r.digest()) + " != reference " +
                           hex(reference));
        }
    }

    void fail(const char* what, const std::string& why) {
        ok_ = false;
        std::fprintf(stderr, "ERROR: %s: %s: %s\n", w_.name.c_str(), what,
                     why.c_str());
    }

    bool ok() const { return ok_; }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t mismatched() const { return mismatched_; }

private:
    const workload& w_;
    bool ok_ = true;
    std::uint64_t attempted_ = 0;
    std::uint64_t mismatched_ = 0;
};

std::uint64_t verified_bytes(const engine::fleet_report& r) {
    std::uint64_t n = 0;
    for (const engine::flow_outcome& o : r.flows) {
        if (o.verified) n += o.payload_bytes;
    }
    return n;
}

std::uint32_t terminal_flows(const engine::fleet_report& r) {
    std::uint32_t n = 0;
    for (const engine::flow_outcome& o : r.flows) {
        if (o.completed || o.failed_explicitly()) ++n;
    }
    return n;
}

// Runs until the fixed rep count, or until `seconds` of wall time have
// passed (at least three reps, so quartiles exist).
bool more_reps(std::size_t done, std::uint32_t fixed, double seconds,
               wall::time_point start) {
    if (seconds <= 0.0) return done < fixed;
    return done < 3 || seconds_since(start) < seconds;
}

void add_summary(obs::bench_report& report, stats::table& t,
                 const std::string& name, const std::vector<double>& v,
                 const std::string& unit, direction dir) {
    const summary s = summarize(v);
    report.metric(name, s.median, unit, dir);
    report.metric(name + ".q1", s.q1, unit, direction::info);
    report.metric(name + ".q3", s.q3, unit, direction::info);
    report.metric(name + ".spread", s.spread(), "share", direction::info);
    t.row().cell(name).cell(s.median, 6).cell(s.q1, 6).cell(s.q3, 6)
        .cell(s.spread() * 100.0, 2).cell(static_cast<std::uint64_t>(s.n))
        .cell(unit);
}

template <crypto::block_cipher Cipher>
void measure_end_to_end(const workload& w, const options& o,
                        correctness_gate& gate, std::uint64_t reference,
                        obs::bench_report& report) {
    // Wall figures, and the same at the reference host speed.
    std::vector<double> setup, run, teardown, goodput, flows_per_s;
    std::vector<double> host_speed, norm_setup, norm_goodput, norm_flows_per_s;
    std::uint64_t attempted = 0;
    std::uint64_t good = 0;
    double packets = 0.0;
    host_calibration calibration;
    const wall::time_point start = wall::now();
    while (more_reps(run.size(), w.reps, o.seconds, start)) {
        rep_times t;
        const engine::fleet_report r =
            run_rep<Cipher>(w.fleet, t, nullptr, &calibration);
        gate.check(r, reference, "timed rep");
        setup.push_back(t.setup_s);
        run.push_back(t.run_s);
        teardown.push_back(t.teardown_s);
        goodput.push_back(static_cast<double>(verified_bytes(r)) / t.run_s /
                          1e6);
        flows_per_s.push_back(terminal_flows(r) / t.total_s());
        // Above 1 when the host ran faster than when the reference was taken.
        const double speed = host_calibration::reference_s / t.calibration_s;
        host_speed.push_back(speed);
        norm_setup.push_back(t.setup_s * speed);
        norm_goodput.push_back(goodput.back() / speed);
        norm_flows_per_s.push_back(flows_per_s.back() / speed);
        attempted += r.flows.size();
        good += r.verified;
        packets = static_cast<double>(
            r.metrics.counter("engine.net.reply_packets_delivered"));
    }

    stats::table t({"metric", "median", "q1", "q3", "IQR %", "n", "unit"});
    add_summary(report, t, "goodput_MBps", norm_goodput, "MB/s",
                direction::higher_is_better);
    add_summary(report, t, "flows_per_s", norm_flows_per_s, "1/s",
                direction::higher_is_better);
    add_summary(report, t, "setup_s", norm_setup, "s",
                direction::lower_is_better);
    add_summary(report, t, "goodput_MBps.wall", goodput, "MB/s",
                direction::info);
    add_summary(report, t, "flows_per_s.wall", flows_per_s, "1/s",
                direction::info);
    add_summary(report, t, "setup_s.wall", setup, "s", direction::info);
    add_summary(report, t, "host_speed", host_speed, "ratio", direction::info);
    add_summary(report, t, "teardown_s", teardown, "s", direction::info);
    add_summary(report, t, "run_s", run, "s", direction::info);

    const double rss = peak_rss_mb();
    report.metric("peak_rss_MB", rss, "MB", direction::lower_is_better);
    const double failed_share =
        attempted == 0 ? 0.0
                       : static_cast<double>(attempted - good) /
                             static_cast<double>(attempted);
    report.metric("failed_share", failed_share, "share",
                  direction::lower_is_better);

    const summary rs = summarize(run);
    report.metric("run_s.n", static_cast<double>(rs.n), "count",
                  direction::info);
    if (rs.tail.has_value()) {
        report.metric("run_s.tail", *rs.tail, "s", direction::info);
        report.metric("run_s.tail_pct", rs.tail_pct, "pct", direction::info);
    } else {
        report.meta("run_s.tail", "n/a (n <= 10)");
    }
    const double ns_per_packet =
        packets == 0.0 ? 0.0 : rs.median / packets * 1e9;
    report.metric("ns_per_packet", ns_per_packet, "ns", direction::info);

    t.row().cell("peak_rss_MB").cell(rss, 1).cell("").cell("").cell("")
        .cell("").cell("MB");
    t.row().cell("failed_share").cell(failed_share, 6).cell("").cell("")
        .cell("").cell(attempted).cell("share");
    t.row().cell(rs.tail.has_value()
                     ? "run_s.p" + std::to_string(static_cast<int>(rs.tail_pct))
                     : std::string("run_s.tail"))
        .cell(rs.tail.has_value() ? std::to_string(*rs.tail) : "n/a")
        .cell("").cell("").cell("").cell("").cell("s");
    t.row().cell("ns_per_packet").cell(ns_per_packet, 1).cell("").cell("")
        .cell("").cell("").cell("ns");
    std::printf("%s: end to end, %zu reps\n", w.name.c_str(), run.size());
    t.print();
}

// Sums the tracer's never-dropped stage aggregates over attribution sides,
// keyed "category.name".
std::map<std::string, std::uint64_t> stage_calls(const obs::tracer& tracer) {
    std::map<std::string, std::uint64_t> calls;
    for (const auto& [key, totals] : tracer.stages()) {
        calls[key.category + "." + key.name] += totals.count;
    }
    return calls;
}

struct attribution_row {
    const char* layer;
    const char* work;  // what the calls are
    double calls = 0.0;
    double est_s = 0.0;
};

// Estimated time per layer: probe ns per call times the traced call count.
// `pending` is the timer count the clock probe ran at.
std::vector<attribution_row> attribute(
    const std::map<std::string, std::uint64_t>& calls,
    const engine::fleet_report& r, const probe_results& p, double ticks,
    double pending) {
    const auto c = [&](const char* name) {
        const auto it = calls.find(name);
        return it == calls.end() ? 0.0 : static_cast<double>(it->second);
    };
    const double sent_ilp = c("app.send_ilp") + c("app.send_secure_ilp");
    const double recv_ilp = c("app.receive_ilp") + c("app.receive_secure_ilp");
    const double sent_layered =
        c("app.send_layered") + c("app.send_secure_layered");
    const double recv_layered =
        c("app.receive_layered") + c("app.receive_secure_layered");
    const double checks =
        static_cast<double>(r.metrics.counter("analysis.gate.checks"));
    const double hits =
        static_cast<double>(r.metrics.counter("analysis.gate.cache_hits"));
    const double check_ns =
        checks == 0.0 ? 0.0
                      : ((checks - hits) * p.gate_cold_us +
                         hits * p.gate_cached_us) * 1e3 / checks;
    const double checksums = c("app.checksum_pass") + c("tcp.checksum");
    std::vector<attribution_row> rows = {
        {"core", "fused send/receive loops", sent_ilp + recv_ilp,
         sent_ilp * p.fused_ns + recv_ilp * p.fused_rx_ns},
        {"xdr", "marshal/unmarshal passes", sent_layered + recv_layered,
         sent_layered * p.marshal_ns + recv_layered * p.unmarshal_ns},
        {"crypto", "cipher passes", c("app.cipher_pass"),
         c("app.cipher_pass") * p.cipher_ns},
        {"checksum", "checksum passes", checksums, checksums * p.checksum_ns},
        {"buffer", "tcp_send copies", c("app.tcp_send_copy"),
         c("app.tcp_send_copy") * p.copy_ns},
        {"net", "sends + deliveries", c("net.deliver"),
         c("net.deliver") * p.net_deliver_ns},
        // advance() rescans every pending timer once per timer it fires
        // (nearly all of them deliveries) and once more at the end.
        {"util", "clock scans", ticks + c("net.deliver"),
         (ticks + c("net.deliver")) * pending * p.clock_advance_ns_per_timer},
        {"analysis", "legality gate checks", checks, checks * check_ns},
    };
    for (attribution_row& row : rows) row.est_s /= 1e9;
    return rows;
}

// The pipelined dataplane on bulk: inline stepping and the worker thread,
// each over the serial path, interleaved so host speed phases hit all three.
template <crypto::block_cipher Cipher>
void measure_pipeline(const workload& w, correctness_gate& gate,
                      std::uint64_t reference, obs::bench_report& report) {
    engine::fleet_config inline_cfg = w.fleet;
    inline_cfg.defaults.pipeline_depth = 4;
    inline_cfg.defaults.pipeline_batch = 4;
    engine::fleet_config worker_cfg = inline_cfg;
    worker_cfg.pipeline_workers = true;
    std::vector<double> serial, inlined, worker;
    for (int i = 0; i < 3; ++i) {
        rep_times t;
        gate.check(run_rep<Cipher>(w.fleet, t), reference,
                   "pipeline serial rep");
        serial.push_back(t.run_s);
        gate.check(run_rep<Cipher>(inline_cfg, t), reference,
                   "pipeline inline rep");
        inlined.push_back(t.run_s);
        gate.check(run_rep<Cipher>(worker_cfg, t), reference,
                   "pipeline worker rep");
        worker.push_back(t.run_s);
    }
    const double base = median_of(serial);
    report.metric("pipeline.serial_run_s", base, "s", direction::info);
    report.metric("pipeline.inline_over_serial", median_of(inlined) / base,
                  "ratio", direction::info);
    report.metric("pipeline.worker_over_serial", median_of(worker) / base,
                  "ratio", direction::info);
    std::printf("%s: pipeline_depth=4,k=4 run time over serial (%.4f s): "
                "inline %.3f, worker %.3f\n",
                w.name.c_str(), base, median_of(inlined) / base,
                median_of(worker) / base);
}

template <crypto::block_cipher Cipher>
void measure_traced(const workload& w, const options& o,
                    correctness_gate& gate, std::uint64_t reference,
                    obs::bench_report& report) {
    std::vector<double> untraced_run, traced_run, setup, teardown, tick_total;
    std::vector<double> open_p50, open_p99, tick_p50, tick_p99;
    trace_samples last;
    std::map<std::string, std::uint64_t> calls;
    engine::fleet_report traced_report;
    const wall::time_point start = wall::now();
    do {
        rep_times t;
        gate.check(run_rep<Cipher>(w.fleet, t), reference,
                   "untraced rep");
        untraced_run.push_back(t.run_s);

        // A small ring: only the never-dropped stage aggregates are read.
        obs::tracer tracer(1 << 10);
        obs::tracer* prev = obs::tracer::install(&tracer);
        trace_samples s;
        traced_report = run_rep<Cipher>(w.fleet, t, &s);
        obs::tracer::install(prev);
        gate.check(traced_report, reference, "traced rep");
        traced_run.push_back(t.run_s);
        setup.push_back(t.setup_s);
        teardown.push_back(t.teardown_s);
        const std::vector<double> tick_us = s.tick_us();
        double sum = 0.0;
        for (const double us : tick_us) sum += us;
        tick_total.push_back(sum / 1e6);
        open_p50.push_back(percentile(s.open_flow_us, 50.0));
        open_p99.push_back(percentile(s.open_flow_us, 99.0));
        tick_p50.push_back(percentile(tick_us, 50.0));
        tick_p99.push_back(percentile(tick_us, 99.0));
        calls = stage_calls(tracer);
        last = std::move(s);
    } while (seconds_since(start) < o.seconds);

    const auto info = [&](const std::string& name, double v,
                          const std::string& unit) {
        report.metric(name, v, unit, direction::info);
    };
    const auto counter = [&](const std::string& name) {
        return static_cast<double>(traced_report.metrics.counter(name));
    };
    info("traced.reps", static_cast<double>(traced_run.size()), "count");
    info("obs.trace_overhead", median_of(traced_run) / median_of(untraced_run),
         "ratio");
    info("obs.untraced_run_s", median_of(untraced_run), "s");
    info("obs.traced_run_s", median_of(traced_run), "s");

    // engine: the bench's own wall-clock spans around each engine call.
    info("engine.setup_s", median_of(setup), "s");
    info("engine.open_flow_us.p50", median_of(open_p50), "us");
    info("engine.open_flow_us.p99", median_of(open_p99), "us");
    info("engine.open_flow.n", static_cast<double>(last.open_flow_us.size()),
         "count");
    info("engine.shard_construct_us.p50",
         percentile(last.shard_construct_us, 50.0), "us");
    info("engine.teardown_s", median_of(teardown), "s");
    info("engine.tick_us.p50", median_of(tick_p50), "us");
    info("engine.tick_us.p99", median_of(tick_p99), "us");
    info("engine.tick_s.total", median_of(tick_total), "s");
    const auto ticks = static_cast<double>(last.ticks.size());
    info("engine.ticks", ticks, "count");
    info("engine.active_flows.mean", last.mean(&tick_sample::active_flows),
         "count");
    for (const char* name :
         {"engine.rpc_retries", "engine.tcp_retransmissions",
          "engine.net.reply_packets_delivered",
          "engine.net.reply_packets_dropped", "engine.net.reply_queue_dropped",
          "engine.crypto.rekeys", "engine.crypto.tag_failures",
          "analysis.gate.checks", "analysis.gate.cache_hits",
          "analysis.gate.fallbacks"}) {
        info(name, counter(name), "count");
    }
    const double checks = counter("analysis.gate.checks");
    info("analysis.gate.cache_hit_share",
         checks == 0.0 ? 0.0 : counter("analysis.gate.cache_hits") / checks,
         "share");

    // util and net: state read around every tick.  The probes run at the
    // busy occupancy, weighted by tick time.
    const double pending =
        last.time_weighted(&tick_sample::busy_pending_timers);
    const double queued = last.time_weighted(&tick_sample::busy_pipe);
    info("util.clock.pending_timers.mean",
         last.mean(&tick_sample::pending_timers), "count");
    info("util.clock.pending_timers.max",
         last.max(&tick_sample::pending_timers), "count");
    info("util.clock.pending_timers.busy", pending, "count");
    info("net.in_flight.mean", last.mean(&tick_sample::in_flight), "count");
    info("net.busy_pipe", queued, "count");

    // Layer call counts from the tracer's stage aggregates; the named ones
    // are reported even when the workload never enters them.
    for (const char* name :
         {"net.enqueue", "net.deliver", "tcp.segmentize", "tcp.input",
          "tcp.ack_output", "tcp.checksum", "tcp.retransmit",
          "core.fused_part", "app.marshal_pass", "app.cipher_pass",
          "app.checksum_pass", "app.unmarshal_pass", "app.tcp_send_copy",
          "rpc.request", "rpc.retry"}) {
        calls.try_emplace(name, 0);
    }
    for (const auto& [name, n] : calls) {
        info(name + ".calls", static_cast<double>(n), "count");
    }

    std::printf("%s: traced run, %zu reps, overhead %.3fx, "
                "%.0f ticks, open_flow p50 %.2f us, tick p50 %.2f us\n",
                w.name.c_str(), traced_run.size(),
                median_of(traced_run) / median_of(untraced_run), ticks,
                median_of(open_p50), median_of(tick_p50));
    if (!o.probes) return;

    const probe_results p = run_probes<Cipher>(
        w.secure, w.fleet.defaults.packet_wire_bytes,
        static_cast<std::size_t>(std::lround(pending)),
        static_cast<std::size_t>(std::lround(queued)), o.probe_batch_s);
    const double b = p.wire_bytes;
    info("probe.message_bytes", b, "B");
    if (!p.round_trip_ok) {
        gate.fail("probes", "the fused receive did not return the payload");
    }
    info("core.fused_ns_per_B", p.fused_ns / b, "ns/B");
    info("core.fused_rx_ns_per_B", p.fused_rx_ns / b, "ns/B");
    info("xdr.marshal_ns_per_B", p.marshal_ns / b, "ns/B");
    info("xdr.unmarshal_ns_per_B", p.unmarshal_ns / b, "ns/B");
    info("crypto.cipher_ns_per_B", p.cipher_ns / b, "ns/B");
    info("crypto.aead_encrypt_ns_per_B", p.aead_ns / b, "ns/B");
    info("tcp.checksum_ns_per_B", p.checksum_ns / b, "ns/B");
    info("buffer.copy_ns_per_B", p.copy_ns / b, "ns/B");
    info("util.clock.advance_ns_per_timer", p.clock_advance_ns_per_timer, "ns");
    info("util.clock.cancel_ns", p.clock_cancel_ns, "ns");
    info("net.deliver_ns", p.net_deliver_ns, "ns");
    info("analysis.gate.check_us.cold", p.gate_cold_us, "us");
    info("analysis.gate.check_us.cached", p.gate_cached_us, "us");

    const double base = median_of(tick_total);
    info("attrib.base.tick_s", base, "s");
    stats::table t({"layer", "calls", "of", "est s", "share of tick"});
    double explained = 0.0;
    for (const attribution_row& row :
         attribute(calls, traced_report, p, ticks, pending)) {
        const double share = row.est_s / base;
        explained += share;
        const std::string key = std::string("attrib.") + row.layer;
        info(key + ".est_s", row.est_s, "s");
        info(key + ".share", share, "share");
        t.row().cell(row.layer).cell(static_cast<std::uint64_t>(row.calls))
            .cell(row.work).cell(row.est_s, 6).cell(share, 4);
    }
    info("attrib.unexplained.share", 1.0 - explained, "share");
    t.row().cell("unexplained").cell("").cell("")
        .cell(base * (1.0 - explained), 6).cell(1.0 - explained, 4);
    std::printf("%s: attribution, shares of the traced sum of tick time "
                "(base %.6f s over %.0f ticks)\n",
                w.name.c_str(), base, ticks);
    t.print();

    if (w.name == "bulk") measure_pipeline<Cipher>(w, gate, reference, report);
}

template <crypto::block_cipher Cipher>
bool run_workload(const workload& w, const options& o,
                  obs::bench_report& report) {
    correctness_gate gate(w);
    // The untimed reference: run_fleet_native on the same config, which is
    // also the warm-up.  Each rep below must reproduce its digest, which
    // shows the bench's fleet runner runs the same program.
    const engine::fleet_report ref = engine::run_fleet_native<Cipher>(w.fleet);
    const std::uint64_t reference = ref.digest();
    gate.check(ref, reference, "run_fleet_native reference");

    report.meta("workload", w.name);
    report.meta("seed", std::to_string(o.seed));
    report.meta("mode", o.traced ? "traced" : "end_to_end");
    report.meta("digest", hex(reference));
    report.meta("flows", std::to_string(w.fleet.flows));
    report.meta("shards", std::to_string(w.fleet.shards));
    report.meta("file_bytes", std::to_string(w.fleet.defaults.file_bytes));
    report.meta("packet_wire_bytes",
                std::to_string(w.fleet.defaults.packet_wire_bytes));
    report.meta("path", w.fleet.defaults.mode == app::path_mode::ilp
                            ? "ilp"
                            : "layered");
    report.meta("cipher", w.secure ? "aead_cipher" : "safer_simplified");
    report.meta("doomed", std::to_string(w.count(flow_fate::gave_up)) + "/" +
                              std::to_string(w.count(flow_fate::deadline)) +
                              "/" +
                              std::to_string(w.count(flow_fate::demoted)));
    report.meta("budget", o.seconds > 0.0
                              ? std::to_string(o.seconds) + " s"
                              : std::to_string(w.reps) + " reps");

    if (o.traced) {
        measure_traced<Cipher>(w, o, gate, reference, report);
    } else {
        measure_end_to_end<Cipher>(w, o, gate, reference, report);
    }
    report.meta("correct", gate.ok() ? "true" : "false");
    report.metric("gate.attempted_flows", static_cast<double>(gate.attempted()),
                  "count", direction::info);
    report.metric("gate.failed_flows", static_cast<double>(gate.mismatched()),
                  "count", direction::lower_is_better);
    return gate.ok();
}

bool run_any(const workload& w, const options& o, obs::bench_report& report) {
    return w.secure ? run_workload<crypto::aead_cipher>(w, o, report)
                    : run_workload<crypto::safer_simplified>(w, o, report);
}

// Every workload at about 1/100 size: two timed reps, then one traced rep
// with probes, all through the correctness gate.
int run_smoke() {
    bool ok = true;
    for (const std::string& name : workload_names()) {
        workload w = *make_workload(name, 1, true);
        w.reps = 2;
        options o;
        o.probe_batch_s = 0.0002;
        obs::bench_report timed("e2e");
        ok = run_any(w, o, timed) && ok;
        o.traced = o.probes = true;
        obs::bench_report traced("e2e");
        ok = run_any(w, o, traced) && ok;
    }
    std::printf("bench_e2e smoke: %s\n", ok ? "ok" : "FAILED");
    return ok ? 0 : 1;
}

int usage() {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload=NAME [--seed=N] [--seconds=S] "
                 "[--json=PATH] [--traced [--probes]]\n"
                 "       bench_e2e --smoke\n"
                 "       bench_e2e compare [--bounds=BENCHMARK.json] "
                 "PARENT.json... -- CHANGE.json...\n"
                 "workloads: bulk bulk_layered small_secure fleet10k\n");
    return 2;
}

int run_main(int argc, char** argv) {
    std::vector<std::string> args(argv + 1, argv + argc);
    if (!args.empty() && args[0] == "compare") {
        return run_compare({args.begin() + 1, args.end()});
    }
    options o;
    for (const std::string& arg : args) {
        const auto value = [&](const char* flag) {
            return arg.substr(std::string(flag).size());
        };
        if (arg == "--smoke") {
            return run_smoke();
        } else if (arg.rfind("--workload=", 0) == 0) {
            o.workload = value("--workload=");
        } else if (arg.rfind("--seed=", 0) == 0) {
            o.seed = std::stoull(value("--seed="));
        } else if (arg.rfind("--seconds=", 0) == 0) {
            o.seconds = std::stod(value("--seconds="));
        } else if (arg.rfind("--json=", 0) == 0) {
            o.json_path = value("--json=");
        } else if (arg == "--traced") {
            o.traced = true;
        } else if (arg == "--probes") {
            o.probes = true;
        } else {
            return usage();
        }
    }
    const std::optional<workload> w = make_workload(o.workload, o.seed, false);
    if (!w.has_value() || (o.probes && !o.traced)) return usage();

    obs::bench_report report("e2e");
    const bool ok = run_any(*w, o, report);
    if (o.json_path.empty()) {
        std::fputs(report.render().c_str(), stdout);
    } else if (!report.write(o.json_path)) {
        std::fprintf(stderr, "ERROR: cannot write %s\n", o.json_path.c_str());
        return 1;
    }
    return ok ? 0 : 1;
}

}  // namespace
}  // namespace ilp::bench_e2e

int main(int argc, char** argv) {
    try {
        return ilp::bench_e2e::run_main(argc, argv);
    } catch (const std::exception& e) {  // malformed numeric flag
        std::fprintf(stderr, "ERROR: %s\n", e.what());
        return 2;
    }
}
