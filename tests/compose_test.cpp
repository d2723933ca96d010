// Composition-legality engine tests: graph hashing, the symbolic composer's
// verdicts (rules, offenders, trailer obligations, boundary geometry), the
// verdict-caching gate, and the full `--compose` sweep the CI job runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/compose.h"
#include "analysis/gate.h"
#include "analysis/graph.h"
#include "app/compose_models.h"
#include "app/compose_sweep.h"
#include "core/stage.h"
#include "crypto/aead.h"
#include "crypto/safer_k64.h"

namespace {

using namespace ilp;

using enc = core::encrypt_stage<crypto::safer_k64>;
using aead_enc = core::aead_encrypt_stage<crypto::aead_cipher>;

// A linear send-side graph: encrypt then checksum-tap, one 1 KiB part.
analysis::stage_graph linear_graph() {
    analysis::stage_graph g;
    g.name = "test/linear";
    g.site = "tests/compose_test.cpp";
    g.side = analysis::graph_side::send;
    g.kind = analysis::pipeline_kind::fused;
    g.nodes.push_back({enc::footprint_decl, 0});
    g.nodes.push_back({core::checksum_tap8::footprint_decl, 0});
    g.parts = {{0, 1024}};
    return g;
}

bool has_rule(const analysis::verdict& v, const char* rule) {
    for (const analysis::finding& f : v.findings) {
        if (std::string(f.rule) == rule) return true;
    }
    return false;
}

TEST(GraphHash, DeterministicAndSensitiveToEveryVerdictInput) {
    const analysis::stage_graph a = linear_graph();
    const analysis::stage_graph b = linear_graph();
    EXPECT_EQ(analysis::graph_hash(a), analysis::graph_hash(b));

    // The epoch-relevant node parameter is part of the hash: a rekey must
    // produce a new cache key.
    analysis::stage_graph rekeyed = linear_graph();
    rekeyed.nodes[0].param = 1;
    EXPECT_NE(analysis::graph_hash(a), analysis::graph_hash(rekeyed));

    // So are the framing facts and the geometry.
    analysis::stage_graph framed = linear_graph();
    framed.trailer_reserved_bytes = 8;
    EXPECT_NE(analysis::graph_hash(a), analysis::graph_hash(framed));
    analysis::stage_graph recut = linear_graph();
    recut.parts = {{0, 512}, {512, 512}};
    EXPECT_NE(analysis::graph_hash(a), analysis::graph_hash(recut));
    analysis::stage_graph flipped = linear_graph();
    flipped.side = analysis::graph_side::receive;
    EXPECT_NE(analysis::graph_hash(a), analysis::graph_hash(flipped));
}

TEST(Composer, CyclicGraphIsRejectedUnderR4) {
    analysis::stage_graph g = linear_graph();
    g.edges = {{0, 1}, {1, 0}};
    EXPECT_FALSE(analysis::topo_order(g).has_value());

    const analysis::verdict v = analysis::compose_and_check(g);
    EXPECT_FALSE(v.legal);
    EXPECT_EQ(v.rule, "R4-footprint");
    EXPECT_EQ(v.offender, "graph cycle");
}

TEST(Composer, ExplicitDagFoldsInTopologicalOrder) {
    // Diamond declared in scrambled node order: tap8 first, encrypt last,
    // with edges forcing encrypt -> {tap8, tap2} -> opaque.
    analysis::stage_graph g;
    g.name = "test/diamond";
    g.site = "tests/compose_test.cpp";
    g.nodes.push_back({core::checksum_tap8::footprint_decl, 0});  // 0
    g.nodes.push_back({core::checksum_tap2::footprint_decl, 0});  // 1
    g.nodes.push_back({core::opaque_stage::footprint_decl, 0});   // 2
    g.nodes.push_back({enc::footprint_decl, 0});                  // 3
    g.edges = {{3, 0}, {3, 1}, {0, 2}, {1, 2}};
    g.parts = {{0, 1024}};

    const analysis::verdict v = analysis::compose_and_check(g);
    EXPECT_TRUE(v.legal) << v.rule << " on " << v.offender;
    ASSERT_EQ(v.composed.stages.size(), 4u);
    EXPECT_STREQ(v.composed.stages[0].name, "encrypt");
    EXPECT_STREQ(v.composed.stages[3].name, "opaque");
    // Le folds every unit: lcm(8, 8, 2, 1) over the base 8.
    EXPECT_EQ(v.composed.exchange_unit_bytes, 8u);
}

TEST(Composer, WordChainExchangesFourByteWords) {
    // The chain hands data on as 4-byte words whatever its filters process:
    // the 8-byte cipher does not widen Le, it draws the W1 handoff warning.
    analysis::stage_graph g = linear_graph();
    g.kind = analysis::pipeline_kind::word_chain;
    const analysis::verdict v = analysis::compose_and_check(g);
    EXPECT_TRUE(v.legal) << v.rule << " on " << v.offender;
    EXPECT_EQ(v.composed.exchange_unit_bytes, 4u);
    EXPECT_TRUE(has_rule(v, "W1-word-handoff"));
}

TEST(Composer, TrailerObligationMustMatchReservationExactly) {
    // AEAD obliges 8 trailer bytes; the v3 framing reserves 8: legal.
    analysis::stage_graph g = linear_graph();
    g.nodes[0] = {aead_enc::footprint_decl, 0};
    g.trailer_reserved_bytes = 8;
    EXPECT_TRUE(analysis::compose_and_check(g).legal);

    // Obligation without a reservation: the tag has nowhere to go.
    g.trailer_reserved_bytes = 0;
    analysis::verdict v = analysis::compose_and_check(g);
    EXPECT_FALSE(v.legal);
    EXPECT_EQ(v.rule, "R2-header-size");
    EXPECT_EQ(v.offender, "aead_encrypt × framing");

    // Reservation without an obliger: uninitialized bytes on the wire.
    analysis::stage_graph plain = linear_graph();
    plain.trailer_reserved_bytes = 8;
    v = analysis::compose_and_check(plain);
    EXPECT_FALSE(v.legal);
    EXPECT_EQ(v.rule, "R2-header-size");
    EXPECT_EQ(v.offender, "framing × (no trailer-emitting stage)");

    // Zero-length trailer on both sides is a match, not a degenerate case:
    // no R2 finding at all.
    const analysis::verdict zero = analysis::compose_and_check(linear_graph());
    EXPECT_TRUE(zero.legal);
    EXPECT_FALSE(has_rule(zero, "R2-header-size"));
}

TEST(Composer, PartCutExactlyOnGranularityBoundaryIsLegal) {
    // Le = 8 for encrypt+tap8.  A cut exactly on the unit boundary passes;
    // moving the same cut one byte off straddles a cipher block and fails
    // both R3 clauses (torn length, misaligned offset).
    analysis::stage_graph g = linear_graph();
    g.parts = {{0, 8}, {8, 1016}};
    EXPECT_TRUE(analysis::compose_and_check(g).legal);

    g.parts = {{0, 7}, {7, 1017}};
    const analysis::verdict v = analysis::compose_and_check(g);
    EXPECT_FALSE(v.legal);
    EXPECT_EQ(v.rule, "R3-granularity");
    EXPECT_TRUE(has_rule(v, "R3-granularity"));
}

TEST(Gate, CachesVerdictsByHashAndRekeyInvalidates) {
    analysis::legality_gate gate;
    const analysis::stage_graph g = linear_graph();

    const analysis::verdict& first = gate.check(g);
    EXPECT_TRUE(first.legal);
    EXPECT_EQ(gate.stats().checks, 1u);
    EXPECT_EQ(gate.stats().cache_hits, 0u);
    EXPECT_EQ(gate.cached_verdicts(), 1u);

    const analysis::verdict& again = gate.check(g);
    EXPECT_EQ(&again, &first);  // served from the cache, same storage
    EXPECT_EQ(gate.stats().checks, 2u);
    EXPECT_EQ(gate.stats().cache_hits, 1u);
    EXPECT_EQ(gate.cached_verdicts(), 1u);

    // A rekey changes the epoch-relevant node param: new hash, fresh
    // compose_and_check — the cached verdict cannot outlive the key.
    analysis::stage_graph rekeyed = linear_graph();
    rekeyed.nodes[0].param = 1;
    const analysis::verdict& fresh = gate.check(rekeyed);
    EXPECT_TRUE(fresh.legal);
    EXPECT_NE(fresh.hash, first.hash);
    EXPECT_EQ(gate.stats().checks, 3u);
    EXPECT_EQ(gate.stats().cache_hits, 1u);
    EXPECT_EQ(gate.cached_verdicts(), 2u);

    EXPECT_EQ(gate.stats().fallbacks, 0u);
    gate.count_fallback();
    EXPECT_EQ(gate.stats().fallbacks, 1u);
}

// Reports and diagnostics key on the pipeline name, so a second entry under
// an existing name would shadow the first.
TEST(Inventory, NamesAreUnique) {
    std::set<std::string> names;
    for (const analysis::stage_graph& g : app::pipeline_inventory()) {
        EXPECT_TRUE(names.insert(g.name).second) << "duplicate: " << g.name;
    }
    EXPECT_FALSE(names.empty());
}

// An ad-hoc stage with no footprint declaration: composing it still works,
// but the conservative default must be flagged so "legal" is not mistaken
// for "verified".
struct undeclared_test_stage {
    static constexpr std::size_t unit_bytes = 8;
    static constexpr bool ordering_constrained = false;
};

TEST(Composer, UndeclaredStageDrawsConservativeFootprintWarning) {
    const analysis::footprint fp =
        analysis::footprint_of<undeclared_test_stage>();
    EXPECT_FALSE(fp.declared);

    analysis::stage_graph g = linear_graph();
    g.nodes.push_back({fp, 0});
    const analysis::verdict v = analysis::compose_and_check(g);
    EXPECT_TRUE(v.legal);  // warning, not error: the composition still runs
    EXPECT_TRUE(has_rule(v, "W4-conservative-footprint"));
}

TEST(FlowGraphs, EngineBuildersMatchTheGateContract) {
    const app::secure_params classic{};
    app::secure_params secure;
    secure.enabled = true;
    secure.flow_secret = 1;

    // The plain flow graphs are legal on both sides.
    EXPECT_TRUE(analysis::compose_and_check(
                    app::flow_send_graph<crypto::safer_k64>(
                        classic, app::compose_tap::none, 0))
                    .legal);
    EXPECT_TRUE(analysis::compose_and_check(
                    app::flow_receive_graph<crypto::safer_k64>(
                        classic, app::compose_tap::none, 0))
                    .legal);

    // crc32 is ordering-constrained: illegal under the B,C,A send schedule,
    // legal on the linear receive side — the canonical demotion case.
    const analysis::verdict send = analysis::compose_and_check(
        app::flow_send_graph<crypto::safer_k64>(classic,
                                                app::compose_tap::crc32, 0));
    EXPECT_FALSE(send.legal);
    EXPECT_EQ(send.rule, "R1-ordering");
    EXPECT_EQ(send.offender, "crc32_tap × B,C,A schedule");
    EXPECT_TRUE(analysis::compose_and_check(
                    app::flow_receive_graph<crypto::safer_k64>(
                        classic, app::compose_tap::crc32, 0))
                    .legal);

    // v3 framing requires the AEAD trailer obligation.
    EXPECT_TRUE(analysis::compose_and_check(
                    app::flow_send_graph<crypto::aead_cipher>(
                        secure, app::compose_tap::none, 0))
                    .legal);
    const analysis::verdict unfilled = analysis::compose_and_check(
        app::flow_send_graph<crypto::safer_k64>(secure,
                                                app::compose_tap::none, 0));
    EXPECT_FALSE(unfilled.legal);
    EXPECT_EQ(unfilled.rule, "R2-header-size");
}

// The key epoch feeds only the graph hash, never the rules, so a verdict
// the gate gives a flow at setup holds at every later epoch.  Checked on
// every flow graph the compose sweep builds: cipher x v2/v3 x schedule x
// tap.
template <typename Cipher>
void expect_verdicts_epoch_invariant(std::size_t& graphs) {
    constexpr std::array<std::uint64_t, 3> epochs = {0, 1,
                                                     (1ull << 32) + 1};
    for (const bool v3 : {false, true}) {
        app::secure_params params;
        params.enabled = v3;
        params.flow_secret = 0x5ec0u;
        for (const app::compose_schedule sched :
             {app::compose_schedule::send_bca,
              app::compose_schedule::send_linear,
              app::compose_schedule::receive}) {
            for (const app::compose_tap tap :
                 {app::compose_tap::none, app::compose_tap::inet2,
                  app::compose_tap::crc32}) {
                ++graphs;
                const analysis::verdict base = analysis::compose_and_check(
                    app::flow_graph<Cipher>(params, tap, sched, epochs[0]));
                for (std::size_t i = 1; i < epochs.size(); ++i) {
                    const analysis::stage_graph g =
                        app::flow_graph<Cipher>(params, tap, sched, epochs[i]);
                    const analysis::verdict v = analysis::compose_and_check(g);
                    SCOPED_TRACE(g.name + " @ epoch " +
                                 std::to_string(epochs[i]));
                    EXPECT_EQ(v.legal, base.legal);
                    EXPECT_EQ(v.rule, base.rule);
                    EXPECT_EQ(v.offender, base.offender);
                    EXPECT_NE(v.hash, base.hash);
                    ASSERT_EQ(v.findings.size(), base.findings.size());
                    for (std::size_t k = 0; k < v.findings.size(); ++k) {
                        const analysis::finding& a = v.findings[k];
                        const analysis::finding& b = base.findings[k];
                        EXPECT_EQ(a.sev, b.sev);
                        EXPECT_STREQ(a.rule, b.rule);
                        EXPECT_EQ(a.site, b.site);
                        EXPECT_EQ(a.pipeline, b.pipeline);
                        EXPECT_EQ(a.message, b.message);
                        EXPECT_EQ(a.stage, b.stage);
                    }
                }
            }
        }
    }
}

TEST(FlowGraphs, VerdictIsTheSameAtEveryEpoch) {
    std::size_t graphs = 0;
    expect_verdicts_epoch_invariant<crypto::null_cipher>(graphs);
    expect_verdicts_epoch_invariant<crypto::simple_cipher>(graphs);
    expect_verdicts_epoch_invariant<crypto::safer_simplified>(graphs);
    expect_verdicts_epoch_invariant<crypto::safer_k64>(graphs);
    expect_verdicts_epoch_invariant<crypto::des>(graphs);
    expect_verdicts_epoch_invariant<crypto::aead_cipher>(graphs);
    expect_verdicts_epoch_invariant<crypto::rc4>(graphs);
    EXPECT_EQ(graphs, 7u * 2 * 3 * 3);
}

TEST(ComposeSweep, CoversTheSpaceWithZeroMiscomputations) {
    const app::compose_sweep_report rep = app::run_compose_sweep();
    EXPECT_GE(rep.cases.size(), 100u);
    EXPECT_EQ(rep.miscomputations, 0u);
    EXPECT_EQ(rep.unexplained_rejections, 0u);
    EXPECT_GT(rep.accepted, 0u);
    EXPECT_GT(rep.rejected, 0u);
    EXPECT_GT(rep.executed, 0u);
    EXPECT_TRUE(rep.ok());
    for (const app::compose_case& c : rep.cases) {
        EXPECT_TRUE(c.ok) << c.name << ": " << c.status;
    }
}

// The differential runs the graph it is handed: reordering the graph's
// nodes or parts changes what both sides execute.
TEST(ComposeSweep, ExecutesTheGraphItJudges) {
    const app::secure_params classic{};
    const analysis::stage_graph send = app::flow_graph<crypto::safer_k64>(
        classic, app::compose_tap::none, app::compose_schedule::send_bca, 0);
    ASSERT_STREQ(send.nodes[1].fp.name, "checksum_tap8");
    const app::differential_run base =
        app::run_differential<crypto::safer_k64>(send);
    EXPECT_TRUE(base.outputs_match);
    EXPECT_TRUE(base.taps_match);

    // Tap ahead of the cipher: both sides now checksum the plaintext, so
    // they still agree, on a different checksum.
    analysis::stage_graph swapped = send;
    std::swap(swapped.nodes[0], swapped.nodes[1]);
    const app::differential_run tap_first =
        app::run_differential<crypto::safer_k64>(swapped);
    EXPECT_TRUE(tap_first.outputs_match);
    EXPECT_TRUE(tap_first.taps_match);
    EXPECT_NE(tap_first.fused.inet8, base.fused.inet8);

    // The B,C,A crc32 graph diverges; walked in linear part order, the
    // same nodes agree.
    analysis::stage_graph crc = app::flow_graph<crypto::safer_k64>(
        classic, app::compose_tap::crc32, app::compose_schedule::send_bca, 0);
    const app::differential_run bca =
        app::run_differential<crypto::safer_k64>(crc);
    EXPECT_TRUE(bca.outputs_match);
    EXPECT_FALSE(bca.taps_match);
    std::sort(crc.parts.begin(), crc.parts.end(),
              [](const analysis::part_info& a, const analysis::part_info& b) {
                  return a.offset < b.offset;
              });
    const app::differential_run linear =
        app::run_differential<crypto::safer_k64>(crc);
    EXPECT_TRUE(linear.outputs_match);
    EXPECT_TRUE(linear.taps_match);

    // A node no stage answers to fails the run; it is never skipped.
    analysis::stage_graph unbound = send;
    unbound.nodes.push_back({core::xdr_encode_stage::footprint_decl, 0});
    EXPECT_FALSE(
        app::run_differential<crypto::safer_k64>(unbound).outputs_match);
}

// The word-filter sweep's reference runs the chain's own nodes: a chain
// that checksums the plaintext before encrypting it is a legal composition,
// and the reference checksums the plaintext too.
TEST(ComposeSweep, WordChainReferenceFollowsTheChainOrder) {
    using enum app::word_filter_kind;
    constexpr app::word_filter_kind checksum_first[] = {checksum, encrypt};
    constexpr app::word_filter_kind cipher_first[] = {encrypt, checksum};
    const app::compose_sweep_report swapped =
        app::run_word_case<crypto::safer_k64>("word/safer-k64/checksum/encrypt",
                                              checksum_first);
    const app::compose_sweep_report usual =
        app::run_word_case<crypto::safer_k64>("word/safer-k64/encrypt",
                                              cipher_first);
    for (const app::compose_sweep_report* rep : {&swapped, &usual}) {
        ASSERT_EQ(rep->cases.size(), 1u);
        const app::compose_case& c = rep->cases.front();
        SCOPED_TRACE(c.name);
        EXPECT_TRUE(c.legal) << c.rule << " on " << c.offender;
        EXPECT_TRUE(c.executed);
        EXPECT_TRUE(c.outputs_match);
        EXPECT_TRUE(c.taps_match);
        EXPECT_TRUE(c.ok) << c.status;
        EXPECT_EQ(rep->miscomputations, 0u);
    }
    EXPECT_NE(swapped.cases.front().hash, usual.cases.front().hash);
}

}  // namespace
