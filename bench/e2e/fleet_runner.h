// The bench's own fleet runner: the calls engine::run_fleet makes, in the
// same order, with wall-clock timing around each phase.
//
//   setup     shard construction + every open_flow (file generation, port
//             and demux binding, legality gate, endpoint construction,
//             sending the request)
//   run       shard::run() on each shard in turn (a host_calibration
//             sample before each and after the last, outside the timing)
//   teardown  collecting outcomes, fleet_report::finalize(), shard
//             destruction
//
// A traced rep steps each shard with shard::tick() (what shard::run() loops
// over) so every tick can be timed and the clock and links sampled around
// it.  Sampling only reads state, so a traced rep has the same digest as an
// untraced one; the correctness gate checks that.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "calibration.h"
#include "engine/fleet.h"
#include "memsim/mem_policy.h"
#include "net/datagram.h"
#include "obs/tracer.h"
#include "util/rng.h"

namespace ilp::bench_e2e {

using wall = std::chrono::steady_clock;

inline double seconds_since(wall::time_point t0) {
    return std::chrono::duration<double>(wall::now() - t0).count();
}

struct rep_times {
    double setup_s = 0.0;
    double run_s = 0.0;
    double teardown_s = 0.0;
    double calibration_s = 0.0;  // mean host_calibration sample, if taken
    double total_s() const { return setup_s + run_s + teardown_s; }
};

// One tick's wall time and the shard state read around it.
struct tick_sample {
    double us = 0.0;
    // Read just before the tick.
    double pending_timers = 0.0;
    double in_flight = 0.0;  // packets queued on all four pipes
    double active_flows = 0.0;
    // Read 1 us into the tick's clock advance, once the service sweep has
    // queued its segments: the occupancy the advance's scans run at.
    double busy_pending_timers = 0.0;
    double busy_pipe = 0.0;  // packets queued on the fullest pipe
};

// What a traced rep records around the engine calls.
struct trace_samples {
    std::vector<double> shard_construct_us;
    std::vector<double> open_flow_us;
    std::vector<tick_sample> ticks;

    std::vector<double> tick_us() const {
        std::vector<double> v;
        for (const tick_sample& t : ticks) v.push_back(t.us);
        return v;
    }
    double mean(double tick_sample::*field) const {
        double sum = 0.0;
        for (const tick_sample& t : ticks) sum += t.*field;
        return ticks.empty() ? 0.0 : sum / static_cast<double>(ticks.size());
    }
    // Weighted by each tick's wall time: the state the time was spent in.
    // Most ticks of a fleet are cheap stragglers, so the plain mean
    // understates the occupancy the busy ticks ran at.
    double time_weighted(double tick_sample::*field) const {
        double sum = 0.0;
        double weight = 0.0;
        for (const tick_sample& t : ticks) {
            sum += t.*field * t.us;
            weight += t.us;
        }
        return weight == 0.0 ? 0.0 : sum / weight;
    }
    double max(double tick_sample::*field) const {
        double m = 0.0;
        for (const tick_sample& t : ticks) m = std::max(m, t.*field);
        return m;
    }
};

// Mirrors the option plumbing at the top of engine::run_fleet.
inline engine::shard_options shard_options_for(const engine::fleet_config& cfg) {
    engine::shard_options opts;
    opts.link_latency_us = cfg.link_latency_us;
    opts.poll_step_us = cfg.poll_step_us;
    opts.per_flow_queue_cap = cfg.per_flow_queue_cap;
    opts.policy = cfg.policy;
    opts.drr_quantum_bytes = cfg.drr_quantum_bytes;
    opts.trace_sampler = cfg.trace_sampler;
    opts.pipeline_workers = cfg.pipeline_workers;
    if (cfg.kernel_queue_packets != 0) {
        opts.request_forward_faults.max_queue_packets = cfg.kernel_queue_packets;
        opts.request_reverse_faults.max_queue_packets = cfg.kernel_queue_packets;
        opts.reply_forward_faults.max_queue_packets = cfg.kernel_queue_packets;
        opts.reply_reverse_faults.max_queue_packets = cfg.kernel_queue_packets;
    }
    return opts;
}

template <crypto::block_cipher Cipher>
using native_shard = engine::shard<memsim::direct_memory, Cipher>;

template <crypto::block_cipher Cipher>
std::array<const net::datagram_pipe*, 4> pipes(native_shard<Cipher>& w) {
    return {&w.request_link().forward(), &w.request_link().reverse(),
            &w.reply_link().forward(), &w.reply_link().reverse()};
}

// Runs one tick and samples the shard around it.  The mid-tick reading
// comes from a timer the bench adds to the shard's clock; it only reads
// state and keeps the engine's timers in their order, so the digest is
// unchanged (the correctness gate checks that).
template <crypto::block_cipher Cipher>
tick_sample sampled_tick(native_shard<Cipher>& w) {
    tick_sample s;
    s.pending_timers = static_cast<double>(w.clock().pending_timers());
    for (const net::datagram_pipe* p : pipes<Cipher>(w)) {
        s.in_flight += static_cast<double>(p->in_flight());
    }
    s.active_flows = static_cast<double>(w.active_flows());
    const std::uint64_t probe = w.clock().schedule_after(1, [&s, &w] {
        s.busy_pending_timers =
            static_cast<double>(w.clock().pending_timers());
        for (const net::datagram_pipe* p : pipes<Cipher>(w)) {
            s.busy_pipe =
                std::max(s.busy_pipe, static_cast<double>(p->in_flight()));
        }
    });
    const wall::time_point t = wall::now();
    w.tick();
    s.us = seconds_since(t) * 1e6;
    w.clock().cancel(probe);  // a no-op unless the tick advanced < 1 us
    return s;
}

// One rep of the fleet.  With `trace` set the rep fills it (the caller
// installs the tracer); with `calibration` set it samples the host's speed.
template <crypto::block_cipher Cipher>
engine::fleet_report run_rep(const engine::fleet_config& cfg,
                             rep_times& times,
                             trace_samples* trace = nullptr,
                             host_calibration* calibration = nullptr) {
    using shard_t = native_shard<Cipher>;
    const engine::shard_options opts = shard_options_for(cfg);
    const memsim::direct_memory mem;

    const wall::time_point setup_start = wall::now();
    std::vector<std::unique_ptr<shard_t>> shards;
    shards.reserve(cfg.shards);
    for (std::uint32_t s = 0; s < cfg.shards; ++s) {
        const wall::time_point t = wall::now();
        shards.push_back(std::make_unique<shard_t>(s, opts, mem, mem));
        if (trace != nullptr) {
            trace->shard_construct_us.push_back(seconds_since(t) * 1e6);
        }
    }
    for (std::uint32_t f = 0; f < cfg.flows; ++f) {
        const wall::time_point t = wall::now();
        engine::flow_config fc = cfg.defaults;
        if (cfg.per_flow) cfg.per_flow(f, fc);
        if (fc.secure && fc.flow_secret == 0) {
            fc.flow_secret = derive_seed(cfg.key_seed, 0x5ec00000ull + f);
        }
        std::array<std::byte, engine::cipher_key_bytes<Cipher>()> key{};
        rng key_rng(derive_seed(cfg.key_seed, f));
        key_rng.fill(key);
        const Cipher cipher{std::span<const std::byte>(key)};
        shards[f % cfg.shards]->open_flow(f, fc, cipher, cipher);
        if (trace != nullptr) {
            trace->open_flow_us.push_back(seconds_since(t) * 1e6);
        }
    }
    times.setup_s = seconds_since(setup_start);

    double calibration_sum = 0.0;
    const auto calibrate = [&] {
        if (calibration != nullptr) calibration_sum += calibration->sample();
    };
    obs::tracer* tracer = obs::tracer::current();
    times.run_s = 0.0;
    for (auto& w : shards) {
        calibrate();
        const wall::time_point t = wall::now();
        if (trace == nullptr) {
            w->run();
        } else {
            // What shard::run() does, one timed tick at a time.
            if (tracer != nullptr) {
                tracer->set_clock(&w->clock());
                tracer->set_sampler(cfg.trace_sampler);
            }
            while (w->active_flows() > 0) {
                trace->ticks.push_back(sampled_tick<Cipher>(*w));
            }
        }
        times.run_s += seconds_since(t);
    }
    calibrate();
    times.calibration_s =
        calibration_sum / static_cast<double>(shards.size() + 1);

    // The collection loop of engine::run_fleet.
    const wall::time_point teardown_start = wall::now();
    engine::fleet_report report;
    report.sampler = cfg.trace_sampler;
    report.shards.reserve(shards.size());
    for (auto& w : shards) {
        engine::shard_summary s;
        s.shard = w->index();
        s.elapsed_us = w->clock().now();
        s.reply_data = w->reply_link().forward().stats();
        s.reply_ack = w->reply_link().reverse().stats();
        s.gate = w->gate().stats();
        s.latency = w->latency_sketch();
        s.slowest = w->slowest_flows();
        s.pipeline = w->pipeline_stats();
        s.pipeline_threaded = w->pipeline_threaded();
        for (const engine::flow_outcome& o : w->outcomes()) {
            ++s.flows;
            if (o.completed) ++s.completed;
            if (o.failed_explicitly()) ++s.failed;
            if (o.composed_fallback) ++s.fallbacks;
            s.rekeys += o.rekeys;
            report.flows.push_back(o);
        }
        report.shards.push_back(std::move(s));
    }
    report.finalize();
    shards.clear();
    times.teardown_s = seconds_since(teardown_start);
    return report;
}

}  // namespace ilp::bench_e2e
