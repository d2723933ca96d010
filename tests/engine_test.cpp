// Tests for the concurrent multi-flow engine: flow-table lifecycle and port
// recycling, DRR fairness bounds, backpressure under a pathological flow,
// chaos runs with bursty-lossy flows, and the determinism contract (same
// seed -> same fleet digest, invariant under shard count and under running
// shards on real threads).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "app/harness.h"
#include "crypto/aead.h"
#include "crypto/safer_simplified.h"
#include "engine/fleet.h"
#include "engine/shard.h"
#include "memsim/configs.h"
#include "memsim/mem_policy.h"
#include "util/rng.h"

namespace ilp::engine {
namespace {

using memsim::direct_memory;
using cipher = crypto::safer_simplified;
using test_shard = shard<direct_memory, cipher>;

cipher make_cipher(std::uint64_t seed) {
    std::array<std::byte, 8> key;
    rng key_rng(seed);
    key_rng.fill(key);
    return cipher{std::span<const std::byte>(key)};
}

flow_config small_flow(std::size_t file_bytes = 4 * 1024) {
    flow_config fc;
    fc.file_bytes = file_bytes;
    fc.packet_wire_bytes = 1024;
    return fc;
}

// --- flow table lifecycle --------------------------------------------------

TEST(EngineShard, SingleFlowCompletesAndRecyclesPorts) {
    shard_options opts;
    test_shard s(0, opts, direct_memory{}, direct_memory{});
    const cipher c = make_cipher(1);
    ASSERT_TRUE(s.open_flow(0, small_flow(), c, c));
    EXPECT_EQ(s.ports().allocated(), 4u);  // 4 pipe directions per flow
    EXPECT_EQ(s.active_flows(), 1u);
    s.run();
    const flow_outcome& o = s.outcome(0);
    EXPECT_TRUE(o.completed);
    EXPECT_TRUE(o.verified);
    EXPECT_GT(o.payload_bytes, 0u);
    // Teardown returned the flow's ports to the allocator.
    EXPECT_EQ(s.ports().allocated(), 0u);
    EXPECT_EQ(s.active_flows(), 0u);
}

TEST(EngineShard, PortExhaustionIsAnExplicitOutcome) {
    shard_options opts;
    opts.first_port = 100;
    opts.last_port = 107;  // room for exactly two flows (4 ports each)
    test_shard s(0, opts, direct_memory{}, direct_memory{});
    const cipher c = make_cipher(1);
    ASSERT_TRUE(s.open_flow(0, small_flow(), c, c));
    ASSERT_TRUE(s.open_flow(1, small_flow(), c, c));
    EXPECT_FALSE(s.open_flow(2, small_flow(), c, c));
    EXPECT_TRUE(s.outcome(2).ports_exhausted);
    EXPECT_EQ(s.active_flows(), 2u);  // the failed open holds no resources

    s.run();
    EXPECT_TRUE(s.outcome(0).completed && s.outcome(0).verified);
    EXPECT_TRUE(s.outcome(1).completed && s.outcome(1).verified);
    // With both flows torn down, a new flow can reuse the recycled ports.
    ASSERT_TRUE(s.open_flow(3, small_flow(), c, c));
    s.run();
    EXPECT_TRUE(s.outcome(3).completed && s.outcome(3).verified);
}

TEST(EngineShard, CloseFlowRecordsPartialOutcomeAndFreesResources) {
    shard_options opts;
    test_shard s(0, opts, direct_memory{}, direct_memory{});
    const cipher c = make_cipher(1);
    ASSERT_TRUE(s.open_flow(0, small_flow(64 * 1024), c, c));
    s.tick();  // a little progress, nowhere near completion
    s.close_flow(0);
    const flow_outcome& o = s.outcome(0);
    EXPECT_FALSE(o.completed);
    EXPECT_EQ(s.active_flows(), 0u);
    EXPECT_EQ(s.ports().allocated(), 0u);
    // The shard stays usable after an early close.
    ASSERT_TRUE(s.open_flow(1, small_flow(), c, c));
    s.run();
    EXPECT_TRUE(s.outcome(1).completed);
}

// --- one wiring for every flow ---------------------------------------------

// app::run_transfer is a one-flow shard wired like any fleet flow, so the
// same transfer run either way must end in the same outcome.  Returns the
// run_transfer result.
template <crypto::block_cipher Cipher>
app::transfer_result expect_transfer_matches_fleet(
    const flow_config& t, const char* name) {
    const app::transfer_result r = app::run_transfer_native<Cipher>(t);

    fleet_config cfg;
    cfg.defaults = t;
    const fleet_report fleet = run_fleet_native<Cipher>(cfg);
    EXPECT_EQ(fleet.flows.size(), 1u) << name;
    const flow_outcome& o = fleet.flows.at(0);

    EXPECT_TRUE(r.completed && r.verified) << name;
    EXPECT_EQ(r.completed, o.completed) << name;
    EXPECT_EQ(r.verified, o.verified) << name;
    EXPECT_EQ(r.elapsed_us, o.elapsed_us) << name;
    EXPECT_EQ(r.payload_bytes_delivered, o.payload_bytes) << name;
    EXPECT_EQ(r.recovery.rpc_retries, o.rpc_retries) << name;
    EXPECT_EQ(r.reply_tcp_sender.retransmissions, o.tcp_retransmissions)
        << name;
    EXPECT_EQ(r.reply_pipe.packets_dropped, o.reply_packets_dropped) << name;
    return r;
}

TEST(EngineSingleFlow, RunTransferMatchesAOneFlowFleet) {
    flow_config t;
    t.file_bytes = 16 * 1024;
    expect_transfer_matches_fleet<cipher>(t, "clean");

    flow_config lossy = t;
    lossy.forward_faults.drop_probability = 0.05;
    lossy.forward_faults.corrupt_probability = 0.05;
    lossy.forward_faults.seed = 5;
    const auto fired =
        expect_transfer_matches_fleet<cipher>(lossy, "5% drop+corrupt");
    EXPECT_GT(fired.reply_pipe.packets_dropped, 0u);
    EXPECT_GT(fired.reply_pipe.packets_corrupted, 0u);

    flow_config secure = t;
    secure.secure = true;
    secure.rekey_interval_bytes = 4096;
    const auto rekeyed = expect_transfer_matches_fleet<crypto::aead_cipher>(
        secure, "secure v3");
    EXPECT_GT(rekeyed.metrics.counter("crypto.rekeys"), 0u);

    flow_config zero_copy = t;
    zero_copy.zero_copy = true;
    expect_transfer_matches_fleet<cipher>(zero_copy, "zero-copy");
}

// A zero_copy fleet flow receives its reply data as in-place loans through
// the shard's demuxes: its client (receive side) makes measurably fewer
// memory accesses than an otherwise identical copying flow.
TEST(EngineZeroCopy, FleetFlowReceivesLoansAndTouchesLessMemory) {
    const auto client_accesses = [](bool zero_copy) {
        fleet_config cfg;
        cfg.defaults = small_flow(16 * 1024);
        cfg.defaults.zero_copy = zero_copy;
        const fleet_report r = run_fleet_simulated<cipher>(
            cfg, memsim::supersparc_with_l2());
        EXPECT_EQ(r.verified, 1u) << "zero_copy=" << zero_copy;
        return r.shards[0].client_mem.accesses();
    };
    const auto copying = static_cast<double>(client_accesses(false));
    const auto loaned = static_cast<double>(client_accesses(true));
    EXPECT_LE(loaned, 0.95 * copying)
        << "copying=" << copying << " zero_copy=" << loaned;
}

// --- DRR fairness ----------------------------------------------------------

// Two backlogged flows with very different segment sizes must be granted
// wire bytes at the same rate under deficit round-robin: over the whole
// contention period the cumulative grant difference stays bounded by one
// quantum plus one maximum segment (+ slack for TCP window stalls), instead
// of growing with the segment-size ratio.
TEST(EngineScheduler, DrrBoundsByteShareAcrossSegmentSizes) {
    shard_options opts;
    opts.policy = sched_policy::deficit_round_robin;
    opts.drr_quantum_bytes = 2048;
    test_shard s(0, opts, direct_memory{}, direct_memory{});
    const cipher c = make_cipher(1);
    flow_config small = small_flow(48 * 1024);
    small.packet_wire_bytes = 512;
    flow_config large = small_flow(48 * 1024);
    large.packet_wire_bytes = 1408;
    ASSERT_TRUE(s.open_flow(0, small, c, c));
    ASSERT_TRUE(s.open_flow(1, large, c, c));

    const std::uint64_t bound = opts.drr_quantum_bytes + 1408 + 2048;
    std::uint64_t max_diff = 0;
    while (s.active_flows() == 2) {
        s.tick();
        const std::uint64_t a = s.serviced_bytes(0);
        const std::uint64_t b = s.serviced_bytes(1);
        max_diff = std::max(max_diff, a > b ? a - b : b - a);
    }
    EXPECT_LE(max_diff, bound);
    s.run();
    EXPECT_TRUE(s.outcome(0).completed && s.outcome(0).verified);
    EXPECT_TRUE(s.outcome(1).completed && s.outcome(1).verified);
}

// Under plain round-robin the same pair diverges (each visit drains the TCP
// window, so per-visit grants track segment availability, not byte parity).
// This pins down that the DRR bound above is the policy's doing.
TEST(EngineScheduler, RoundRobinDoesNotMeterBytes) {
    shard_options opts;
    opts.policy = sched_policy::round_robin;
    test_shard s(0, opts, direct_memory{}, direct_memory{});
    const cipher c = make_cipher(1);
    flow_config small = small_flow(48 * 1024);
    small.packet_wire_bytes = 512;
    flow_config large = small_flow(48 * 1024);
    large.packet_wire_bytes = 1408;
    ASSERT_TRUE(s.open_flow(0, small, c, c));
    ASSERT_TRUE(s.open_flow(1, large, c, c));
    s.run();
    EXPECT_TRUE(s.outcome(0).completed && s.outcome(1).completed);
    // RR grants whole window bursts: the flows' serviced totals differ by
    // far more than the DRR bound at some point — weaker per-flow wire
    // efficiency for the small-segment flow means more wire bytes total.
    EXPECT_GT(s.serviced_bytes(0), s.serviced_bytes(1));
}

// --- backpressure ----------------------------------------------------------

// One pathological flow floods the shared kernel queue with tiny segments;
// the per-flow fair-share cap bounds its occupancy, so well-behaved flows
// keep completing and the flood's drops are charged to the flood alone.
TEST(EngineBackpressure, FairShareCapContainsAPathologicalFlow) {
    fleet_config cfg;
    cfg.flows = 5;
    cfg.shards = 1;
    cfg.per_flow_queue_cap = 8;
    cfg.defaults = small_flow();
    cfg.per_flow = [](std::uint32_t f, flow_config& fc) {
        if (f == 0) {
            fc.file_bytes = 24 * 1024;
            fc.packet_wire_bytes = 256;  // windowfuls of tiny segments
        }
    };
    const fleet_report report = run_fleet_native<cipher>(cfg);

    ASSERT_EQ(report.flows.size(), 5u);
    const flow_outcome& flood = report.flows[0];
    // The flood's window bursts exceeded its fair share and were dropped —
    // charged to the flood's own tag.
    EXPECT_GT(flood.queue_dropped, 0u);
    // Every flow still ends explicitly; the well-behaved ones complete
    // untouched by the flood's backpressure.
    for (std::uint32_t f = 1; f < 5; ++f) {
        EXPECT_TRUE(report.flows[f].completed) << "flow " << f;
        EXPECT_TRUE(report.flows[f].verified) << "flow " << f;
        EXPECT_EQ(report.flows[f].queue_dropped, 0u) << "flow " << f;
    }
    EXPECT_TRUE(flood.completed || flood.gave_up || flood.deadline_exceeded);
    EXPECT_GT(report.metrics.counter("engine.queue_dropped"), 0u);
}

// --- chaos -----------------------------------------------------------------

// Termination check: once a shard's run() returns, nothing its flows used
// is left behind — no pending timer, no packet in flight, no port.
void expect_nothing_outlived_the_flows(const fleet_report& report) {
    for (const shard_summary& s : report.shards) {
        EXPECT_EQ(s.leftover_timers, 0u) << "shard " << s.shard;
        EXPECT_EQ(s.leftover_packets, 0u) << "shard " << s.shard;
        EXPECT_EQ(s.leftover_ports, 0u) << "shard " << s.shard;
    }
}

void burst_loss(flow_config& fc) {
    fc.forward_faults.burst.enabled = true;
    fc.forward_faults.burst.p_good_to_bad = 0.05;
    fc.forward_faults.burst.p_bad_to_good = 0.3;
    fc.forward_faults.burst.bad_loss = 1.0;
}

TEST(EngineChaos, LossyFlowsEndExplicitlyCleanFlowsComplete) {
    fleet_config cfg;
    cfg.flows = 40;
    cfg.shards = 4;
    cfg.defaults = small_flow();
    cfg.per_flow = [](std::uint32_t f, flow_config& fc) {
        if (f % 10 == 0) burst_loss(fc);  // 10% of flows on a bursty link
    };
    const fleet_report report = run_fleet_native<cipher>(cfg);

    ASSERT_EQ(report.flows.size(), 40u);
    for (const flow_outcome& o : report.flows) {
        // No silent outcome: exactly one terminal flag.
        const int flags = (o.completed ? 1 : 0) + (o.gave_up ? 1 : 0) +
                          (o.deadline_exceeded ? 1 : 0) +
                          (o.request_rejected ? 1 : 0) +
                          (o.ports_exhausted ? 1 : 0);
        EXPECT_EQ(flags, 1) << "flow " << o.flow_id;
        if (o.completed) {
            EXPECT_TRUE(o.verified) << "flow " << o.flow_id;
        }
        if (o.flow_id % 10 != 0) {
            EXPECT_TRUE(o.completed && o.verified) << "flow " << o.flow_id;
        }
    }
    // The lossy flows actually saw loss (their tags' own coin streams).
    EXPECT_GT(report.metrics.counter("engine.reply_packets_dropped"), 0u);
    EXPECT_EQ(report.shards.size(), 4u);
    expect_nothing_outlived_the_flows(report);
}

// Flows that end every way a flow can end — clean, lossy, out of time with
// its reply path dead, out of retries — still leave nothing armed or
// allocated once their shard's run() returns.  The doomed flows are torn
// down with TCP timers armed, so this is where teardown's quiesce shows.
TEST(EngineChaos, DoomedFlowsLeaveNothingBehind) {
    fleet_config cfg;
    cfg.flows = 40;
    cfg.shards = 4;
    cfg.defaults = small_flow();
    cfg.per_flow = [](std::uint32_t f, flow_config& fc) {
        switch (f % 4) {
            case 1:
                fc.forward_faults.drop_probability = 0.2;
                break;
            case 2:  // deadline-doomed
                fc.forward_faults.drop_probability = 1.0;
                fc.deadline_us = 10'000;
                break;
            case 3:  // retry-doomed
                fc.forward_faults.drop_probability = 1.0;
                fc.retry.max_attempts = 2;
                fc.retry.response_timeout_us = 2'000;
                fc.retry.backoff_us = 1'000;
                fc.retry.max_backoff_us = 1'000;
                break;
        }
    };
    const fleet_report report = run_fleet_native<cipher>(cfg);

    ASSERT_EQ(report.flows.size(), 40u);
    for (const flow_outcome& o : report.flows) {
        switch (o.flow_id % 4) {
            case 0:
                EXPECT_TRUE(o.completed && o.verified) << "flow " << o.flow_id;
                break;
            case 2:
                EXPECT_TRUE(o.deadline_exceeded) << "flow " << o.flow_id;
                break;
            case 3:
                EXPECT_TRUE(o.gave_up) << "flow " << o.flow_id;
                break;
        }
    }
    expect_nothing_outlived_the_flows(report);
}

// --- composition-legality gate ---------------------------------------------

// A crc32 tap on the B,C,A send schedule composes an illegal graph (R1):
// the gate must demote exactly those flows to the layered path — counted,
// never silent — and the demoted flows must still complete verified.
TEST(EngineGate, IllegalComposedFlowFallsBackToLayeredAndCompletes) {
    fleet_config cfg;
    cfg.flows = 6;
    cfg.shards = 1;
    cfg.defaults = small_flow();
    cfg.per_flow = [](std::uint32_t f, flow_config& fc) {
        fc.tap = f % 2 == 0 ? app::compose_tap::crc32 : app::compose_tap::none;
    };
    const fleet_report report = run_fleet_native<cipher>(cfg);

    ASSERT_EQ(report.flows.size(), 6u);
    for (const flow_outcome& o : report.flows) {
        EXPECT_TRUE(o.completed && o.verified) << "flow " << o.flow_id;
        EXPECT_EQ(o.composed_fallback, o.flow_id % 2 == 0)
            << "flow " << o.flow_id;
    }
    // Every ILP flow was gated (send + receive graph) and each demoted flow
    // counted one fallback; identical graphs across flows hit the verdict
    // cache rather than re-running the composer.
    EXPECT_EQ(report.metrics.counter("analysis.gate.fallbacks"), 3u);
    EXPECT_GE(report.metrics.counter("analysis.gate.checks"), 12u);
    EXPECT_GT(report.metrics.counter("analysis.gate.cache_hits"), 0u);
    ASSERT_EQ(report.shards.size(), 1u);
    EXPECT_EQ(report.shards[0].gate.fallbacks, 3u);
}

// A legal tap (inet2 runs at the checksum's natural unit, legal anywhere)
// must pass the gate untouched: no demotion, fused path kept.
TEST(EngineGate, LegalTapStaysOnTheFusedPath) {
    shard_options opts;
    test_shard s(0, opts, direct_memory{}, direct_memory{});
    const cipher c = make_cipher(1);
    flow_config fc = small_flow();
    fc.tap = app::compose_tap::inet2;
    ASSERT_TRUE(s.open_flow(0, fc, c, c));
    s.run();
    EXPECT_TRUE(s.outcome(0).completed && s.outcome(0).verified);
    EXPECT_FALSE(s.outcome(0).composed_fallback);
    EXPECT_EQ(s.gate().stats().fallbacks, 0u);
    EXPECT_EQ(s.gate().stats().checks, 2u);  // send + receive graph
}

// --- determinism contract --------------------------------------------------

fleet_config invariance_config(std::uint32_t shards, bool threaded = false) {
    fleet_config cfg;
    cfg.flows = 12;
    cfg.shards = shards;
    cfg.threaded = threaded;
    cfg.policy = sched_policy::deficit_round_robin;
    cfg.defaults = small_flow();
    cfg.per_flow = [](std::uint32_t f, flow_config& fc) {
        if (f % 4 == 0) burst_loss(fc);
    };
    return cfg;
}

TEST(EngineDeterminism, SameSeedSameDigest) {
    const fleet_report a = run_fleet_native<cipher>(invariance_config(2));
    const fleet_report b = run_fleet_native<cipher>(invariance_config(2));
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_EQ(a.payload_bytes, b.payload_bytes);
    EXPECT_EQ(a.completed, b.completed);
    expect_nothing_outlived_the_flows(a);
    expect_nothing_outlived_the_flows(b);
}

// Per-flow outcomes must not depend on how flows are packed onto shards:
// every per-flow random stream (fault coins, cipher key) is split by flow
// id, and the scheduler couples no two flows.  (Holds with the shared
// kernel queue unbounded; a finite shared queue couples co-located flows by
// design.)
TEST(EngineDeterminism, ShardCountDoesNotChangePerFlowOutcomes) {
    const fleet_report one = run_fleet_native<cipher>(invariance_config(1));
    const fleet_report four = run_fleet_native<cipher>(invariance_config(4));
    EXPECT_EQ(one.digest(), four.digest());
    ASSERT_EQ(one.flows.size(), four.flows.size());
    for (std::size_t i = 0; i < one.flows.size(); ++i) {
        EXPECT_EQ(one.flows[i].payload_bytes, four.flows[i].payload_bytes);
        EXPECT_EQ(one.flows[i].elapsed_us, four.flows[i].elapsed_us);
        EXPECT_EQ(one.flows[i].rpc_retries, four.flows[i].rpc_retries);
    }
}

// One OS thread per shard must be behaviourally identical to running the
// shards serially — shards share nothing.  (This test is the TSan target.)
TEST(EngineDeterminism, ThreadedShardsMatchSerialExecution) {
    const fleet_report serial =
        run_fleet_native<cipher>(invariance_config(4, false));
    const fleet_report threaded =
        run_fleet_native<cipher>(invariance_config(4, true));
    EXPECT_EQ(serial.digest(), threaded.digest());
    EXPECT_EQ(serial.completed, threaded.completed);
    EXPECT_EQ(serial.payload_bytes, threaded.payload_bytes);
}

// --- trace-sampling determinism --------------------------------------------

fleet_config sampled_config(std::uint32_t shards, bool threaded = false,
                            std::uint32_t rate_permyriad = 5'000) {
    fleet_config cfg = invariance_config(shards, threaded);
    cfg.trace_sampler.seed = 0x0b5eed;
    cfg.trace_sampler.rate_permyriad = rate_permyriad;
    return cfg;
}

// Which flows get span-traced is a pure function of (sampler seed, flow
// id): re-packing the fleet onto a different shard count, or running the
// shards on real threads, must select exactly the same flows.  (Runs under
// the TSan CI leg via the EngineDeterminism filter.)
TEST(EngineDeterminism, SampledFlowSetInvariantUnderShardsAndThreads) {
    const fleet_report one = run_fleet_native<cipher>(sampled_config(1));
    const fleet_report four = run_fleet_native<cipher>(sampled_config(4));
    const fleet_report threaded =
        run_fleet_native<cipher>(sampled_config(4, true));
    ASSERT_EQ(one.flows.size(), four.flows.size());
    ASSERT_EQ(one.flows.size(), threaded.flows.size());
    const obs::flow_sampler reference{.seed = 0x0b5eed,
                                      .rate_permyriad = 5'000};
    for (std::size_t i = 0; i < one.flows.size(); ++i) {
        const bool expected = reference.sampled(one.flows[i].flow_id);
        EXPECT_EQ(one.flows[i].trace_sampled, expected);
        EXPECT_EQ(four.flows[i].trace_sampled, expected);
        EXPECT_EQ(threaded.flows[i].trace_sampled, expected);
    }
    EXPECT_EQ(one.trace_sampled, four.trace_sampled);
    EXPECT_EQ(one.trace_sampled, threaded.trace_sampled);
    // Non-vacuous at 50%: some but not all of the 12 flows selected.
    EXPECT_GT(one.trace_sampled, 0u);
    EXPECT_LT(one.trace_sampled, one.flows.size());
}

// Sampling gates only what the tracer ring keeps; the transfers themselves
// must be bit-identical whether the fleet samples nothing, everything, or
// some deterministic subset.
TEST(EngineDeterminism, SamplingRateCannotPerturbOutcomes) {
    const fleet_report none =
        run_fleet_native<cipher>(sampled_config(4, false, 0));
    const fleet_report half =
        run_fleet_native<cipher>(sampled_config(4, false, 5'000));
    const fleet_report all =
        run_fleet_native<cipher>(sampled_config(4, false, 10'000));
    EXPECT_EQ(none.digest(), half.digest());
    EXPECT_EQ(none.digest(), all.digest());
    EXPECT_EQ(none.trace_sampled, 0u);
    EXPECT_EQ(all.trace_sampled, all.flows.size());
}

// --- pipelined-dataplane determinism ---------------------------------------

// invariance_config with every flow opted into the pipelined reply path:
// depth slots in flight, k segments per stage-A burst, optionally stepping
// the fused stage on a dedicated worker thread per shard.
fleet_config pipelined_config(std::size_t depth, std::size_t k,
                              bool workers = false, std::uint32_t shards = 4,
                              bool threaded = false) {
    fleet_config cfg = invariance_config(shards, threaded);
    cfg.pipeline_workers = workers;
    const auto faults = cfg.per_flow;
    cfg.per_flow = [=](std::uint32_t f, flow_config& fc) {
        if (faults) faults(f, fc);
        fc.pipeline_depth = depth;
        fc.pipeline_batch = k;
    };
    return cfg;
}

// The tentpole contract: pipelining the reply path over SPSC rings is a
// scheduling transformation, not a behavioural one.  The fleet digest must
// be bit-identical to the serial path for every ring depth and batch size.
TEST(EngineDeterminism, PipelinedDigestMatchesSerialAcrossBatchSizes) {
    const fleet_report serial = run_fleet_native<cipher>(invariance_config(4));
    for (const std::size_t k : {std::size_t{1}, std::size_t{4},
                                std::size_t{16}}) {
        const fleet_report piped =
            run_fleet_native<cipher>(pipelined_config(4, k));
        EXPECT_EQ(serial.digest(), piped.digest()) << "k=" << k;
        EXPECT_EQ(serial.payload_bytes, piped.payload_bytes) << "k=" << k;
        EXPECT_EQ(serial.completed, piped.completed) << "k=" << k;
        // Non-vacuous: the pipelined path actually carried the segments.
        EXPECT_GT(piped.metrics.counter("pipeline.segments"), 0u)
            << "k=" << k;
        EXPECT_GT(piped.metrics.counter("pipeline.batches"), 0u) << "k=" << k;
    }
    EXPECT_EQ(serial.metrics.counter("pipeline.segments"), 0u);
}

// Ring depth only bounds how many segments are in flight; depth 1 (a
// mailbox pipeline) and a deep ring must agree with each other and with a
// fleet where only some flows opted in.
TEST(EngineDeterminism, PipelineDepthAndPartialOptInAreDigestNeutral) {
    const fleet_report shallow =
        run_fleet_native<cipher>(pipelined_config(1, 1));
    const fleet_report deep = run_fleet_native<cipher>(pipelined_config(8, 4));
    fleet_config mixed = invariance_config(4);
    const auto faults = mixed.per_flow;
    mixed.per_flow = [=](std::uint32_t f, flow_config& fc) {
        if (faults) faults(f, fc);
        if (f % 2 == 0) fc.pipeline_depth = 4;  // half pipelined, half serial
    };
    const fleet_report half = run_fleet_native<cipher>(mixed);
    EXPECT_EQ(shallow.digest(), deep.digest());
    EXPECT_EQ(shallow.digest(), half.digest());
}

// Stepping the fused stage on a real worker thread per shard — on top of
// one OS thread per shard — must still produce the serial digest.  (Runs
// under the TSan CI leg via the EngineDeterminism filter: this is the test
// that pins down the SPSC hand-off between shard and fused-stage worker.)
TEST(EngineDeterminism, ThreadedPipelineWorkersMatchInlineStepping) {
    const fleet_report serial = run_fleet_native<cipher>(invariance_config(4));
    const fleet_report inline_piped =
        run_fleet_native<cipher>(pipelined_config(4, 4, false));
    const fleet_report worker_piped =
        run_fleet_native<cipher>(pipelined_config(4, 4, true, 4, true));
    EXPECT_EQ(serial.digest(), inline_piped.digest());
    EXPECT_EQ(serial.digest(), worker_piped.digest());
    EXPECT_EQ(serial.payload_bytes, worker_piped.payload_bytes);
    // The worker leg really ran threaded (native memory: no demotion).
    bool any_threaded = false;
    for (const shard_summary& s : worker_piped.shards) {
        any_threaded = any_threaded || s.pipeline_threaded;
    }
    EXPECT_TRUE(any_threaded);
    for (const shard_summary& s : inline_piped.shards) {
        EXPECT_FALSE(s.pipeline_threaded);
    }
}

// Secure flows add the one ordering hazard the pipeline must respect: a
// rekey is a barrier (stage A predicts the epoch crossing and the shard
// drains the rings before segmentizing past it).  Staggered rekey cadence
// plus bursty loss, serial vs pipelined vs worker-threaded pipelined, must
// agree — including the digest-relevant epoch_window_hits.
TEST(EngineDeterminism, PipelinedSecureRekeyMatchesSerial) {
    auto secure_cfg = [](std::size_t depth, std::size_t k, bool workers,
                         bool threaded) {
        fleet_config cfg;
        cfg.flows = 12;
        cfg.shards = 4;
        cfg.threaded = threaded;
        cfg.pipeline_workers = workers;
        cfg.defaults = small_flow(8 * 1024);
        cfg.defaults.packet_wire_bytes = 512;
        cfg.defaults.secure = true;
        cfg.per_flow = [=](std::uint32_t f, flow_config& fc) {
            fc.rekey_interval_bytes = 1024 + 512 * (f % 4);
            if (f % 4 == 0) burst_loss(fc);
            fc.pipeline_depth = depth;
            fc.pipeline_batch = k;
        };
        return cfg;
    };
    const auto serial =
        run_fleet_native<crypto::aead_cipher>(secure_cfg(0, 4, false, false));
    const auto piped =
        run_fleet_native<crypto::aead_cipher>(secure_cfg(4, 4, false, false));
    const auto workers =
        run_fleet_native<crypto::aead_cipher>(secure_cfg(4, 16, true, true));
    EXPECT_EQ(serial.digest(), piped.digest());
    EXPECT_EQ(serial.digest(), workers.digest());
    // Non-vacuous: rekeys actually happened on the pipelined legs.
    EXPECT_GT(piped.metrics.counter("engine.crypto.rekeys"), 0u);
    EXPECT_GT(workers.metrics.counter("pipeline.segments"), 0u);
}

}  // namespace
}  // namespace ilp::engine
