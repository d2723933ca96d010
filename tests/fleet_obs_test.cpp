// Tests for the fleet-observability layer: deterministic trace sampling
// (obs/sampler.h wired through the tracer ring), the per-flow flight
// recorder and its dump-on-explicit-failure-only contract in the fleet
// JSON export, and the log2-bucket latency sketch's p99 agreement with the
// exact distribution.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "golden.h"

#include "crypto/safer_simplified.h"
#include "engine/fleet.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "obs/tracer.h"
#include "util/json.h"
#include "util/rng.h"

namespace ilp {
namespace {

using cipher = crypto::safer_simplified;

// --- flow sampler ----------------------------------------------------------

TEST(FlowSampler, RateZeroSelectsNothingRateFullSelectsEverything) {
    const obs::flow_sampler none{.seed = 7, .rate_permyriad = 0};
    const obs::flow_sampler all{.seed = 7, .rate_permyriad = 10'000};
    for (std::int64_t f = 0; f < 1000; ++f) {
        EXPECT_FALSE(none.sampled(f));
        EXPECT_TRUE(all.sampled(f));
    }
}

TEST(FlowSampler, SelectionIsAPureFunctionOfSeedAndFlow) {
    const obs::flow_sampler a{.seed = 42, .rate_permyriad = 2'500};
    const obs::flow_sampler b{.seed = 42, .rate_permyriad = 2'500};
    const obs::flow_sampler other_seed{.seed = 43, .rate_permyriad = 2'500};
    std::uint32_t selected = 0;
    bool seeds_differ = false;
    for (std::int64_t f = 0; f < 4000; ++f) {
        EXPECT_EQ(a.sampled(f), b.sampled(f));
        if (a.sampled(f)) ++selected;
        seeds_differ |= a.sampled(f) != other_seed.sampled(f);
    }
    // ~25% of 4000 with splitmix-quality mixing; a loose band suffices.
    EXPECT_GT(selected, 700u);
    EXPECT_LT(selected, 1300u);
    EXPECT_TRUE(seeds_differ);
}

TEST(FlowSampler, NonFlowScopedSpansAreAlwaysSampled) {
    const obs::flow_sampler none{.seed = 7, .rate_permyriad = 0};
    EXPECT_TRUE(none.sampled(-1));  // flow -1 = not flow-scoped
}

// --- tracer ring vs. aggregates under sampling -----------------------------

TEST(TracerSampling, RingSkipsUnsampledFlowsButAggregatesKeepThem) {
    obs::tracer t(64);
    // Select nothing: every flow-scoped span is withheld from the ring.
    t.set_sampler({.seed = 1, .rate_permyriad = 0});
    obs::tracer* prev = obs::tracer::install(&t);
    for (std::int64_t f = 0; f < 5; ++f) {
        obs::scoped_flow scope(f);
        t.open("test", "stage");
        t.close();
    }
    obs::tracer::install(prev);

    EXPECT_EQ(t.events().size(), 0u);
    EXPECT_EQ(t.recorded(), 0u);
    EXPECT_EQ(t.sampled_out(), 5u);
    EXPECT_EQ(t.dropped(), 0u);  // sampling is policy, not data loss
    // The per-stage aggregates never drop: all five spans are counted.
    const auto& stages = t.stages();
    ASSERT_EQ(stages.size(), 1u);
    EXPECT_EQ(stages.begin()->second.count, 5u);
}

TEST(TracerSampling, DefaultSamplerKeepsEverything) {
    obs::tracer t(64);
    obs::tracer* prev = obs::tracer::install(&t);
    for (std::int64_t f = 0; f < 5; ++f) {
        obs::scoped_flow scope(f);
        t.open("test", "stage");
        t.close();
    }
    t.open("test", "unscoped");  // flow -1: always kept
    t.close();
    obs::tracer::install(prev);
    EXPECT_EQ(t.events().size(), 6u);
    EXPECT_EQ(t.sampled_out(), 0u);
}

TEST(TracerSampling, SampledOutDistinctFromRingDrops) {
    obs::tracer t(2);  // tiny ring: kept events overwrite each other
    t.set_sampler({.seed = 9, .rate_permyriad = 10'000});
    obs::tracer* prev = obs::tracer::install(&t);
    for (std::int64_t f = 0; f < 6; ++f) {
        obs::scoped_flow scope(f);
        t.open("test", "stage");
        t.close();
    }
    obs::tracer::install(prev);
    EXPECT_EQ(t.sampled_out(), 0u);
    EXPECT_EQ(t.recorded(), 6u);
    EXPECT_EQ(t.dropped(), 4u);  // 6 accepted, ring holds 2
}

// --- flight recorder -------------------------------------------------------

TEST(FlightRecorder, KeepsTheLastCapacityEntriesOldestFirst) {
    obs::flight_recorder fr;
    const std::size_t n = obs::flight_recorder::capacity + 5;
    for (std::size_t i = 0; i < n; ++i) {
        fr.record(static_cast<sim_time>(i * 10), obs::flight_event::segment,
                  static_cast<std::uint32_t>(i));
    }
    EXPECT_EQ(fr.recorded(), n);
    EXPECT_EQ(fr.size(), obs::flight_recorder::capacity);
    const std::vector<obs::flight_entry> entries = fr.entries();
    ASSERT_EQ(entries.size(), obs::flight_recorder::capacity);
    // The 5 oldest entries were overwritten; the survivors are in order.
    for (std::size_t i = 0; i < entries.size(); ++i) {
        EXPECT_EQ(entries[i].arg, static_cast<std::uint32_t>(i + 5));
        EXPECT_EQ(entries[i].at_us, static_cast<sim_time>((i + 5) * 10));
        EXPECT_EQ(entries[i].event, obs::flight_event::segment);
    }
}

TEST(FlightRecorder, EventNamesAreStable) {
    EXPECT_STREQ(obs::flight_event_name(obs::flight_event::connect),
                 "connect");
    EXPECT_STREQ(obs::flight_event_name(obs::flight_event::retransmit),
                 "retransmit");
    EXPECT_STREQ(obs::flight_event_name(obs::flight_event::gave_up),
                 "gave_up");
    EXPECT_STREQ(obs::flight_event_name(obs::flight_event::composed_fallback),
                 "composed_fallback");
}

// --- fleet JSON black boxes ------------------------------------------------

engine::fleet_config mixed_fleet() {
    engine::fleet_config cfg;
    cfg.flows = 8;
    cfg.shards = 2;
    cfg.policy = engine::sched_policy::deficit_round_robin;
    cfg.defaults.file_bytes = 4 * 1024;
    cfg.defaults.packet_wire_bytes = 1024;
    cfg.trace_sampler.seed = 0xfeed;
    cfg.trace_sampler.rate_permyriad = 5'000;
    cfg.per_flow = [](std::uint32_t f, engine::flow_config& fc) {
        if (f == 3) {  // total reply loss + no retry budget -> gave_up
            fc.forward_faults.drop_probability = 1.0;
            fc.retry.max_attempts = 1;
            fc.retry.response_timeout_us = 2'000;
        }
        if (f == 5) {  // illegal tap -> legality-gate demotion, completes
            fc.tap = app::compose_tap::crc32;
        }
    };
    return cfg;
}

TEST(FleetReportJson, BlackBoxesDumpOnlyFailedOrDemotedFlows) {
    const engine::fleet_report r =
        engine::run_fleet_native<cipher>(mixed_fleet());
    EXPECT_EQ(r.completed, 7u);
    EXPECT_EQ(r.failed, 1u);

    const std::optional<json::value> doc =
        json::parse(engine::fleet_report_json(r));
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->string_at("kind"), "fleet_report");
    EXPECT_EQ(doc->number_at("flows"), 8.0);
    EXPECT_EQ(doc->number_at("completed"), 7.0);

    const json::value* sampling = doc->find("sampling");
    ASSERT_NE(sampling, nullptr);
    EXPECT_EQ(sampling->number_at("rate_permyriad"), 5'000.0);
    EXPECT_EQ(sampling->number_at("sampled_flows"),
              static_cast<double>(r.trace_sampled));

    const json::value* shards = doc->find("shards");
    ASSERT_NE(shards, nullptr);
    ASSERT_NE(shards->as_array(), nullptr);
    EXPECT_EQ(shards->as_array()->size(), 2u);

    const json::value* boxes_v = doc->find("black_boxes");
    ASSERT_NE(boxes_v, nullptr);
    const json::array* boxes = boxes_v->as_array();
    ASSERT_NE(boxes, nullptr);
    // Exactly the gave_up flow and the demoted flow — completed healthy
    // flows never dump their recorders.
    ASSERT_EQ(boxes->size(), 2u);
    const json::value& failed = (*boxes)[0];
    EXPECT_EQ(failed.number_at("flow"), 3.0);
    EXPECT_EQ(failed.string_at("outcome"), "gave_up");
    const json::value* failed_events = failed.find("events");
    ASSERT_NE(failed_events, nullptr);
    ASSERT_NE(failed_events->as_array(), nullptr);
    EXPECT_GT(failed_events->as_array()->size(), 0u);
    // The terminal transition is the last ring entry.
    const json::array& ev = *failed_events->as_array();
    EXPECT_EQ(ev[ev.size() - 1].string_at("ev"), "gave_up");

    const json::value& demoted = (*boxes)[1];
    EXPECT_EQ(demoted.number_at("flow"), 5.0);
    EXPECT_EQ(demoted.string_at("outcome"), "completed");
    const json::value* fb = demoted.find("composed_fallback");
    ASSERT_NE(fb, nullptr);
    EXPECT_TRUE(fb->as_bool());
}

// The whole export pinned byte for byte: both black boxes, per-shard
// rollups, sampling and the latency sketches.
TEST(FleetReportJson, MatchesGoldenFile) {
    const std::string rendered = engine::fleet_report_json(
        engine::run_fleet_native<cipher>(mixed_fleet()));
    // The golden file ends with a newline (text file); the export does not.
    EXPECT_EQ(rendered + "\n", read_golden("fleet_report.json"))
        << "Fleet export changed.  If intentional, regenerate "
           "tests/golden/fleet_report.json from the output below.\n"
        << rendered;
}

TEST(FleetReportJson, MetricsSurfaceSamplingAndLatencySketch) {
    const engine::fleet_report r =
        engine::run_fleet_native<cipher>(mixed_fleet());
    EXPECT_EQ(r.metrics.counter("obs.trace.sampled_flows"), r.trace_sampled);
    EXPECT_GT(r.metrics.gauge("fleet.flow_latency.p99"), 0.0);
    const obs::histogram* sketch = r.metrics.find_hist("fleet.flow_latency_us");
    ASSERT_NE(sketch, nullptr);
    EXPECT_EQ(sketch->count(), r.flows.size());
    // The fleet sketch is exactly the per-shard sketches merged.
    std::uint64_t shard_total = 0;
    for (const engine::shard_summary& s : r.shards) {
        shard_total += s.latency.count();
    }
    EXPECT_EQ(shard_total, sketch->count());
}

// --- latency sketch fidelity -----------------------------------------------

// The log2-bucket sketch interpolates percentiles inside the bucket that
// holds the true quantile, so its p99 is within that bucket's bounds —
// never off by more than the bucket width (a factor of 2).
TEST(LatencySketch, P99AgreesWithExactDistributionWithinOneBucket) {
    obs::histogram sketch;
    std::vector<std::uint64_t> exact;
    rng r(0x5ca1e);
    for (int i = 0; i < 20'000; ++i) {
        // Heavy-tailed-ish: mostly small, occasional large.
        const std::uint64_t v = (r.next_u64() % 1000) + 1;
        const std::uint64_t value = (i % 100 == 0) ? v * 500 : v;
        sketch.record(value);
        exact.push_back(value);
    }
    std::sort(exact.begin(), exact.end());
    const std::uint64_t true_p99 =
        exact[static_cast<std::size_t>(0.99 * (exact.size() - 1))];
    const double est = sketch.percentile(99.0);
    EXPECT_GE(est * 2.0, static_cast<double>(true_p99));
    EXPECT_LE(est, static_cast<double>(true_p99) * 2.0);
}

}  // namespace
}  // namespace ilp
