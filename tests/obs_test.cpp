// Tests for the observability subsystem: metrics registry and histograms,
// the span tracer (ring wraparound, nesting, memsim attribution), the BENCH
// JSON schema writer and the Chrome trace_event exporter (golden file).
//
// The central invariant (ISSUE 4): per-span *self* attribution, summed over
// every span of one side, reproduces the attributed memory system's run
// totals exactly — no access is double-counted by nesting and none is lost.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "golden.h"

#include "app/harness.h"
#include "crypto/safer_simplified.h"
#include "memsim/configs.h"
#include "memsim/memory_system.h"
#include "obs/bench_json.h"
#include "obs/export_chrome.h"
#include "obs/export_text.h"
#include "obs/registry.h"
#include "obs/tracer.h"
#include "util/json.h"
#include "util/virtual_clock.h"

namespace ilp {
namespace {

// With ILP_OBS=OFF the instrumentation macros compile to nothing; the
// registry/JSON/exporter machinery still works, but no spans are recorded.
#if ILP_OBS_ENABLED
constexpr bool obs_compiled_in = true;
#else
constexpr bool obs_compiled_in = false;
#endif
#define ILP_OBS_REQUIRED() \
    if (!obs_compiled_in) GTEST_SKIP() << "built with ILP_OBS=OFF"

// ---------------------------------------------------------------- registry

TEST(Histogram, RecordsAndInterpolatesPercentiles) {
    obs::histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(99), 0.0);
    for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.sum(), 5050u);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 50.5);
    // Log buckets: the percentile is interpolated, so demand the right
    // bucket, not the exact rank.
    EXPECT_GE(h.percentile(99), 64.0);
    EXPECT_LE(h.percentile(99), 128.0);
    EXPECT_LE(h.percentile(10), h.percentile(90));
}

TEST(Histogram, HugeValuesClampToLastBucket) {
    obs::histogram h;
    h.record(~std::uint64_t{0});
    h.record(std::uint64_t{1} << 63);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.max(), ~std::uint64_t{0});
    EXPECT_EQ(h.buckets()[obs::histogram::bucket_count - 1], 2u);
}

TEST(Histogram, MergeSumsBuckets) {
    obs::histogram a, b;
    a.record(3);
    b.record(5);
    b.record(1000);
    a += b;
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.sum(), 1008u);
    EXPECT_EQ(a.min(), 3u);
    EXPECT_EQ(a.max(), 1000u);
}

TEST(Registry, CountersAreCumulative) {
    obs::registry r;
    EXPECT_EQ(r.counter("absent"), 0u);
    r.add("tcp.segments");
    r.add("tcp.segments", 4);
    EXPECT_EQ(r.counter("tcp.segments"), 5u);
    r.set_gauge("goodput_mbps", 1.5);
    EXPECT_DOUBLE_EQ(r.gauge("goodput_mbps"), 1.5);
    r.hist("latency_us").record(7);
    ASSERT_NE(r.find_hist("latency_us"), nullptr);
    EXPECT_EQ(r.find_hist("latency_us")->count(), 1u);
    EXPECT_EQ(r.find_hist("absent"), nullptr);
}

TEST(Registry, MergeSumsCountersAndHistograms) {
    obs::registry a, b;
    a.add("n", 2);
    b.add("n", 3);
    b.add("only_b");
    a.hist("h").record(1);
    b.hist("h").record(9);
    a.merge(b);
    EXPECT_EQ(a.counter("n"), 5u);
    EXPECT_EQ(a.counter("only_b"), 1u);
    EXPECT_EQ(a.find_hist("h")->count(), 2u);
}

// -------------------------------------------------------------- BENCH JSON

TEST(BenchJson, RendersValidSchemaV2) {
    obs::bench_report report("unit");
    report.meta("cipher", "none");
    report.metric("throughput", 42.5, "mbps",
                  obs::direction::higher_is_better);
    obs::histogram h;
    h.record(10);
    h.record(20);
    report.histogram_metric("latency_us", h, "us");

    const auto doc = json::parse(report.render());
    ASSERT_TRUE(doc.has_value());
    EXPECT_DOUBLE_EQ(doc->number_at("schema_version"), 2.0);
    EXPECT_EQ(doc->string_at("bench"), "unit");
    EXPECT_EQ(doc->find("meta")->string_at("cipher"), "none");

    const json::array* metrics = doc->find("metrics")->as_array();
    ASSERT_NE(metrics, nullptr);
    ASSERT_EQ(metrics->size(), 2u);  // throughput + latency_us.p99 gate
    EXPECT_EQ((*metrics)[0].string_at("name"), "throughput");
    EXPECT_EQ((*metrics)[0].string_at("better"), "higher");
    EXPECT_EQ((*metrics)[1].string_at("name"), "latency_us.p99");
    EXPECT_EQ((*metrics)[1].string_at("better"), "lower");

    const json::array* hists = doc->find("histograms")->as_array();
    ASSERT_NE(hists, nullptr);
    ASSERT_EQ(hists->size(), 1u);
    EXPECT_DOUBLE_EQ((*hists)[0].number_at("count"), 2.0);
    EXPECT_DOUBLE_EQ((*hists)[0].number_at("min"), 10.0);
    EXPECT_DOUBLE_EQ((*hists)[0].number_at("max"), 20.0);
}

// Every field kind the schema carries: meta, a metric in each direction,
// an empty and a filled histogram, and a bench name that needs escaping.
TEST(BenchJson, MatchesGoldenFile) {
    obs::bench_report report("golden \"quoted\" \\ tab\there");
    report.meta("cipher", "safer-k64");
    report.meta("machine", "ss10-41 \"sun4m\"");
    report.metric("throughput", 42.5, "mbps",
                  obs::direction::higher_is_better);
    report.metric("l1d_misses", 123456789.0, "count",
                  obs::direction::lower_is_better);
    report.metric("ratio", 1.0 / 3.0, "x", obs::direction::info);
    report.histogram_metric("idle_us", obs::histogram{}, "us");
    obs::histogram h;
    for (const std::uint64_t v : {3u, 10u, 20u, 300u, 4000u}) h.record(v);
    report.histogram_metric("latency_us", h, "us");

    const std::string rendered = report.render();
    EXPECT_EQ(rendered, read_golden("bench_report.json"))
        << "BENCH writer output changed.  If intentional, regenerate "
           "tests/golden/bench_report.json from the output below.\n"
        << rendered;
}

// ------------------------------------------------------------------ tracer

TEST(Tracer, MacrosAreSafeWithNoTracerInstalled) {
    ASSERT_EQ(obs::tracer::current(), nullptr);
    ILP_OBS_SPAN("test", "noop");
    ILP_OBS_ATTR("nobody", nullptr);
    ILP_OBS_INSTANT("test", "noop");
}

TEST(Tracer, RingWrapsButStageTotalsNeverDrop) {
    ILP_OBS_REQUIRED();
    obs::tracer t(4);
    obs::tracer* prev = obs::tracer::install(&t);
    for (int i = 0; i < 6; ++i) ILP_OBS_INSTANT("test", "tick");
    obs::tracer::install(prev);

    EXPECT_EQ(t.capacity(), 4u);
    EXPECT_EQ(t.recorded(), 6u);
    EXPECT_EQ(t.dropped(), 2u);
    const auto events = t.events();
    ASSERT_EQ(events.size(), 4u);
    // Oldest surviving first: seq 2, 3, 4, 5.
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].seq, i + 2);
    }
    // The aggregate side never loses wrapped events.
    const auto it = t.stages().find(obs::stage_key{"", "test", "tick"});
    ASSERT_NE(it, t.stages().end());
    EXPECT_EQ(it->second.count, 6u);
}

TEST(Tracer, NestedSpansSplitTimeIntoSelfAndChildren) {
    ILP_OBS_REQUIRED();
    virtual_clock clock;
    obs::tracer t;
    t.set_clock(&clock);
    obs::tracer* prev = obs::tracer::install(&t);
    {
        ILP_OBS_SPAN("test", "outer");
        clock.advance(10);
        {
            ILP_OBS_SPAN("test", "inner");
            clock.advance(5);
        }
        clock.advance(3);
    }
    obs::tracer::install(prev);

    const auto events = t.events();
    ASSERT_EQ(events.size(), 2u);  // inner closes first
    const obs::span& inner = events[0];
    const obs::span& outer = events[1];
    EXPECT_STREQ(inner.name, "inner");
    EXPECT_EQ(inner.begin_us, 10u);
    EXPECT_EQ(inner.end_us, 15u);
    EXPECT_EQ(inner.self_us, 5u);
    EXPECT_EQ(inner.depth, 1u);
    EXPECT_STREQ(outer.name, "outer");
    EXPECT_EQ(outer.end_us - outer.begin_us, 18u);
    EXPECT_EQ(outer.self_us, 13u);  // 18 minus the inner span's 5
    EXPECT_EQ(outer.depth, 0u);
}

TEST(Tracer, NestedSpansAttributeMemoryWithoutDoubleCounting) {
    ILP_OBS_REQUIRED();
    memsim::memory_system sys(memsim::test_tiny());
    const memsim::sim_memory mem(sys);
    std::byte buf[64] = {};

    obs::tracer t;
    obs::tracer* prev = obs::tracer::install(&t);
    {
        ILP_OBS_ATTR("client", &sys);
        ILP_OBS_SPAN("test", "outer");
        mem.store_u32(buf, 1);  // outer self: 1 write
        {
            ILP_OBS_SPAN("test", "inner");
            (void)mem.load_u32(buf);  // inner self: 1 read
            mem.store_u32(buf + 8, 2);
        }
        (void)mem.load_u32(buf + 8);  // outer self: 1 read
    }
    obs::tracer::install(prev);

    const auto events = t.events();
    ASSERT_EQ(events.size(), 2u);
    const obs::span& inner = events[0];
    const obs::span& outer = events[1];
    EXPECT_STREQ(inner.side, "client");
    EXPECT_EQ(inner.incl.reads, 1u);
    EXPECT_EQ(inner.incl.writes, 1u);
    EXPECT_EQ(inner.self, inner.incl);  // no children
    EXPECT_EQ(outer.incl.reads, 2u);
    EXPECT_EQ(outer.incl.writes, 2u);
    EXPECT_EQ(outer.self.reads, 1u);   // inner's read subtracted
    EXPECT_EQ(outer.self.writes, 1u);  // inner's write subtracted

    // Self totals over the side reproduce the memory system's run totals.
    const obs::mem_counters totals = t.side_self_totals("client");
    EXPECT_EQ(totals, obs::sample_counters(sys));
}

TEST(Tracer, AttributionFollowsTheScopedSide) {
    ILP_OBS_REQUIRED();
    memsim::memory_system client_sys(memsim::test_tiny());
    memsim::memory_system server_sys(memsim::test_tiny());
    const memsim::sim_memory client_mem(client_sys);
    const memsim::sim_memory server_mem(server_sys);
    std::byte buf[16] = {};

    obs::tracer t;
    obs::tracer* prev = obs::tracer::install(&t);
    {
        ILP_OBS_ATTR("client", &client_sys);
        ILP_OBS_SPAN("test", "work");
        client_mem.store_u32(buf, 1);
        {
            // Nested different-source span: charged to the server side,
            // not transferred to the client parent's children.
            ILP_OBS_ATTR("server", &server_sys);
            ILP_OBS_SPAN("test", "work");
            server_mem.store_u32(buf + 8, 2);
        }
    }
    obs::tracer::install(prev);

    EXPECT_EQ(t.side_self_totals("client"),
              obs::sample_counters(client_sys));
    EXPECT_EQ(t.side_self_totals("server"),
              obs::sample_counters(server_sys));
    EXPECT_EQ(t.side_self_totals("client").writes, 1u);
    EXPECT_EQ(t.side_self_totals("server").writes, 1u);
}

// The flagship invariant over the real stack: a full simulated transfer,
// every client/server memory access inside attributed spans, and the
// per-stage self totals summing exactly to each side's run totals.
TEST(Tracer, TransferSelfAttributionSumsExactlyToMemorySystemTotals) {
    ILP_OBS_REQUIRED();
    engine::flow_config config;
    config.file_bytes = 4 * 1024;
    config.packet_wire_bytes = 1024;
    memsim::memory_system client(memsim::supersparc_with_l2());
    memsim::memory_system server(memsim::supersparc_with_l2());

    obs::tracer t(1 << 14);
    obs::tracer* prev = obs::tracer::install(&t);
    const auto result = app::run_transfer_simulated<crypto::safer_simplified>(
        config, client, server);
    obs::tracer::install(prev);

    ASSERT_TRUE(result.completed);
    ASSERT_TRUE(result.verified);
    EXPECT_EQ(t.dropped(), 0u);

    const obs::mem_counters client_spans = t.side_self_totals("client");
    const obs::mem_counters server_spans = t.side_self_totals("server");
    EXPECT_EQ(client_spans, obs::sample_counters(client));
    EXPECT_EQ(server_spans, obs::sample_counters(server));
    // And they are real numbers, not an empty-equals-empty pass.
    EXPECT_GT(client_spans.accesses(), 1000u);
    EXPECT_GT(server_spans.accesses(), 1000u);
    EXPECT_GT(client_spans.l1d_misses, 0u);

    // The breakdown covers the whole stack: app, tcp and net stages exist
    // on both sides.
    const auto has_stage = [&](const char* side, const char* category) {
        for (const auto& [key, totals] : t.stages()) {
            if (key.side == side && key.category == category) return true;
        }
        return false;
    };
    for (const char* side : {"client", "server"}) {
        EXPECT_TRUE(has_stage(side, "app")) << side;
        EXPECT_TRUE(has_stage(side, "tcp")) << side;
        EXPECT_TRUE(has_stage(side, "net")) << side;
    }

    // The text exporter renders every stage row.
    const std::string table = obs::stage_summary(t);
    EXPECT_NE(table.find("fused_part"), std::string::npos);
    EXPECT_NE(table.find("segmentize"), std::string::npos);
}

// --------------------------------------------------------- chrome exporter

obs::tracer make_golden_tracer(virtual_clock& clock) {
    obs::tracer t(8);
    t.set_clock(&clock);
    obs::tracer* prev = obs::tracer::install(&t);
    {
        ILP_OBS_ATTR("client", nullptr);
        ILP_OBS_SPAN("app", "send");
        clock.advance(4);
        {
            ILP_OBS_SPAN("tcp", "segmentize");
            clock.advance(2);
        }
        ILP_OBS_INSTANT("net", "drop_random");
        clock.advance(1);
    }
    obs::tracer::install(prev);
    return t;
}

TEST(ChromeExport, MatchesGoldenFile) {
    ILP_OBS_REQUIRED();
    virtual_clock clock;
    const obs::tracer t = make_golden_tracer(clock);
    const std::string rendered = obs::chrome_trace_json(t);

    // The golden file ends with a newline (text file); the renderer's
    // output does not.
    EXPECT_EQ(rendered + "\n", read_golden("chrome_trace.json"))
        << "Chrome exporter output changed.  If intentional, regenerate "
           "tests/golden/chrome_trace.json (the test prints the new "
           "output below).\n"
        << rendered;
}

TEST(ChromeExport, IsValidJsonWithExpectedStructure) {
    ILP_OBS_REQUIRED();
    virtual_clock clock;
    const obs::tracer t = make_golden_tracer(clock);
    const auto doc = json::parse(obs::chrome_trace_json(t));
    ASSERT_TRUE(doc.has_value());
    const json::array* events = doc->find("traceEvents")->as_array();
    ASSERT_NE(events, nullptr);
    // 2 thread_name metadata records + 2 spans + 1 instant.
    ASSERT_EQ(events->size(), 5u);
    EXPECT_EQ((*events)[0].string_at("ph"), "M");
    int spans = 0, instants = 0;
    for (const auto& e : *events) {
        const std::string ph = e.string_at("ph");
        if (ph == "X") {
            ++spans;
            EXPECT_NE(e.find("dur"), nullptr);
            EXPECT_NE(e.find("args")->find("self_accesses"), nullptr);
        } else if (ph == "i") {
            ++instants;
        }
    }
    EXPECT_EQ(spans, 2);
    EXPECT_EQ(instants, 1);
    EXPECT_DOUBLE_EQ(doc->find("otherData")->number_at("dropped_events"),
                     0.0);
}

}  // namespace
}  // namespace ilp
