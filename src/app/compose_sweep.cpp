#include "app/compose_sweep.h"

#include <algorithm>
#include <array>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "analysis/compose.h"
#include "app/compose_models.h"
#include "core/dynamic_pipeline.h"
#include "core/fused_pipeline.h"
#include "core/layered_path.h"
#include "core/word_filter.h"
#include "memsim/mem_policy.h"
#include "util/rng.h"

namespace ilp::app {

namespace {

using mem_t = memsim::direct_memory;

template <typename Cipher>
Cipher make_cipher() {
    if constexpr (std::is_same_v<Cipher, crypto::null_cipher>) {
        return crypto::null_cipher{};
    } else {
        std::vector<std::byte> key;
        if constexpr (std::is_same_v<Cipher, crypto::rc4>) {
            key.resize(16);
        } else {
            key.resize(Cipher::key_bytes);
        }
        rng(0xC0FFEEull).fill(key);
        return Cipher{std::span<const std::byte>(key)};
    }
}

// Every stage a flow graph's node can name for this cipher.
template <typename Cipher>
auto make_stages(Cipher& cipher, checksum::inet_accumulator& acc8,
                 checksum::inet_accumulator& acc2, checksum::crc32& crc,
                 crypto::aead_tag_accumulator& tag) {
    std::tuple taps{core::checksum_tap8(acc8), core::checksum_tap2(acc2),
                    core::crc32_tap(crc)};
    if constexpr (std::is_same_v<Cipher, crypto::rc4>) {
        return std::tuple_cat(taps, std::tuple{crypto::rc4_stage(cipher)});
    } else if constexpr (crypto::aead_capable<Cipher>) {
        return std::tuple_cat(
            taps, std::tuple{core::encrypt_stage<Cipher>(cipher),
                             core::decrypt_stage<Cipher>(cipher),
                             core::aead_encrypt_stage<Cipher>(cipher, tag),
                             core::aead_decrypt_stage<Cipher>(cipher, tag)});
    } else {
        return std::tuple_cat(
            taps, std::tuple{core::encrypt_stage<Cipher>(cipher),
                             core::decrypt_stage<Cipher>(cipher)});
    }
}

// The concrete stages a graph's nodes bind to, by footprint name, and the
// state they feed.  Each side of a differential run builds its own set, so
// the RC4 keystream and the AEAD tag start afresh on both.
template <typename Cipher>
struct stage_set {
    Cipher cipher = make_cipher<Cipher>();
    checksum::inet_accumulator acc8;
    checksum::inet_accumulator acc2;
    checksum::crc32 crc;
    crypto::aead_tag_accumulator tag;
    decltype(make_stages(cipher, acc8, acc2, crc, tag)) stages =
        make_stages(cipher, acc8, acc2, crc, tag);

    stage_set() = default;
    stage_set(const stage_set&) = delete;  // the stages point into *this
    stage_set& operator=(const stage_set&) = delete;

    // Calls `use` on the stage whose footprint is named `name`; false when
    // the set has no such stage.
    template <typename F>
    bool bind(std::string_view name, F&& use) {
        return std::apply(
            [&](auto&... s) {
                return ((name == s.footprint_decl.name && (use(s), true)) ||
                        ...);
            },
            stages);
    }

    compose_taps taps() const {
        return {acc8.folded(), acc2.folded(), crc.value(), tag.fold()};
    }
};

}  // namespace

template <typename Cipher>
differential_run run_differential(const analysis::stage_graph& g) {
    mem_t mem;
    std::size_t bytes = 0;
    for (const analysis::part_info& p : g.parts) {
        bytes = std::max(bytes, p.offset + p.len);
    }
    std::vector<std::byte> input(bytes);
    rng(7).fill(input);
    std::vector<std::byte> fused_out(bytes);
    std::vector<std::byte> layered_out = input;
    differential_run r;

    stage_set<Cipher> fused;
    core::dynamic_pipeline<mem_t> pipe;
    for (const analysis::block_node& n : g.nodes) {
        if (!fused.bind(n.fp.name, [&](auto& s) { pipe.add_stage(s); })) {
            return r;  // a node with no stage to run fails the run
        }
    }
    for (const analysis::part_info& p : g.parts) {
        pipe.run(mem,
                 core::span_source(std::span<const std::byte>(input).subspan(
                     p.offset, p.len)),
                 core::span_dest(std::span<std::byte>(fused_out).subspan(
                     p.offset, p.len)));
    }

    // The reference stays independent of dynamic_pipeline: each node's
    // stage is its own linear pass over the whole message (every name
    // bound above, so none fails here).
    stage_set<Cipher> layered;
    const std::span<std::byte> buf(layered_out);
    for (const analysis::block_node& n : g.nodes) {
        layered.bind(n.fp.name, [&](auto& s) {
            core::apply_stage_in_place(mem, s, buf);
        });
    }

    r.fused = fused.taps();
    r.layered = layered.taps();
    r.outputs_match = fused_out == layered_out;
    r.taps_match = r.fused == r.layered;
    return r;
}

template differential_run run_differential<crypto::null_cipher>(
    const analysis::stage_graph&);
template differential_run run_differential<crypto::simple_cipher>(
    const analysis::stage_graph&);
template differential_run run_differential<crypto::safer_simplified>(
    const analysis::stage_graph&);
template differential_run run_differential<crypto::safer_k64>(
    const analysis::stage_graph&);
template differential_run run_differential<crypto::des>(
    const analysis::stage_graph&);
template differential_run run_differential<crypto::aead_cipher>(
    const analysis::stage_graph&);
template differential_run run_differential<crypto::rc4>(
    const analysis::stage_graph&);

namespace {

// ---------------------------------------------------------------------------
// Classification: hold each verdict to the differential truth.

void record_case(compose_sweep_report& rep, const analysis::stage_graph& g,
                 bool expect_r1, bool expect_r2,
                 const std::function<differential_run()>& exec) {
    const analysis::verdict v = analysis::compose_and_check(g);
    compose_case c;
    c.name = g.name;
    c.hash = v.hash;
    c.legal = v.legal;
    c.rule = v.rule;
    c.offender = v.offender;
    const bool expected_legal = !expect_r1 && !expect_r2;
    c.mismatch_expected = expect_r1;

    if (v.legal != expected_legal) {
        if (v.legal) {
            ++rep.accepted;
            ++rep.miscomputations;
            c.status = std::string("accepted, but the sweep model expects ") +
                       (expect_r1 ? "R1-ordering" : "R2-header-size");
        } else {
            ++rep.rejected;
            ++rep.unexplained_rejections;
            c.status = "rejected (" + v.rule +
                       ") but the sweep model expects this graph to be legal";
        }
    } else if (!v.legal) {
        ++rep.rejected;
        const char* want = expect_r1 ? "R1-ordering" : "R2-header-size";
        if (v.rule != want) {
            ++rep.unexplained_rejections;
            c.status = "rejected under '" + v.rule + "' where '" + want +
                       "' was expected";
        } else if (expect_r1) {
            // R1 graphs are executable — run them and require the predicted
            // out-of-order divergence to actually appear.
            const differential_run r = exec();
            c.executed = true;
            ++rep.executed;
            c.outputs_match = r.outputs_match;
            c.taps_match = r.taps_match;
            if (r.outputs_match && r.taps_match) {
                ++rep.unexplained_rejections;
                c.status =
                    "rejected (R1-ordering) but the differential run did "
                    "not diverge";
            } else {
                c.ok = true;
                c.status = "rejected (R1-ordering: " + v.offender +
                           "); divergence confirmed by execution";
            }
        } else {
            // R2 trailer mismatches are not executable (there is no stage
            // to fill — or consume — the reservation); the named rule and
            // offender are the explanation.
            c.ok = true;
            c.status = "rejected (R2-header-size: " + v.offender +
                       "); unexecutable by construction";
        }
    } else {
        ++rep.accepted;
        const differential_run r = exec();
        c.executed = true;
        ++rep.executed;
        c.outputs_match = r.outputs_match;
        c.taps_match = r.taps_match;
        if (r.outputs_match && r.taps_match) {
            c.ok = true;
            c.status = "accepted; fused == layered, bit-identical";
        } else {
            ++rep.miscomputations;
            c.status = std::string("accepted but the differential run "
                                   "diverged (outputs ") +
                       (r.outputs_match ? "match" : "differ") + ", taps " +
                       (r.taps_match ? "match" : "differ") + ")";
        }
    }
    rep.cases.push_back(std::move(c));
}

constexpr std::array<compose_schedule, 3> all_schedules = {
    compose_schedule::send_bca, compose_schedule::send_linear,
    compose_schedule::receive};
constexpr std::array<compose_tap, 3> all_taps = {
    compose_tap::none, compose_tap::inet2, compose_tap::crc32};

template <typename Cipher>
void sweep_flow_family(compose_sweep_report& rep) {
    for (int framing = 0; framing < 2; ++framing) {
        const bool v3 = framing == 1;
        secure_params params;
        params.enabled = v3;
        params.flow_secret = 0x5ec0u;
        for (const compose_schedule sched : all_schedules) {
            for (const compose_tap tap : all_taps) {
                const analysis::stage_graph g =
                    flow_graph<Cipher>(params, tap, sched, 0);
                // rc4 itself is ordering-constrained, so *any* B,C,A
                // schedule is an R1 rejection regardless of tap.
                const bool r1 =
                    sched == compose_schedule::send_bca &&
                    (std::is_same_v<Cipher, crypto::rc4> ||
                     tap == compose_tap::crc32);
                // Only an AEAD cipher fills the v3 trailer reservation.
                const bool r2 = v3 && !crypto::aead_capable<Cipher>;
                record_case(rep, g, r1, r2,
                            [&] { return run_differential<Cipher>(g); });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Word-filter chains (Abbott & Peterson shape)

constexpr std::size_t word_case_bytes = 1024;

// Calls `use` on the block stage the layered reference runs for a word
// filter, by the filter's footprint name; false for a name no filter
// declares.  The sink binds to nothing: the reference's buffer is the sink.
template <typename Cipher, typename F>
bool bind_word_stage(std::string_view name, const Cipher& cipher,
                     checksum::inet_accumulator& acc, F&& use) {
    if (name == "xdr_filter") {
        core::xdr_encode_stage s;
        use(s);
    } else if (name == "cipher_filter(encrypt)") {
        core::encrypt_stage<Cipher> s(cipher);
        use(s);
    } else if (name == "cipher_filter(decrypt)") {
        core::decrypt_stage<Cipher> s(cipher);
        use(s);
    } else if (name == "checksum_filter") {
        core::checksum_tap8 s(acc);
        use(s);
    } else {
        return name == "sink_filter";
    }
    return true;
}

// One chain case: `filters` in push order, then the sink.  The graph's
// nodes are the footprints of the very chain the differential then drives,
// so the two cannot drift apart; the layered reference runs each node's
// block stage as a linear pass, in node order.
template <crypto::block_cipher Cipher>
void sweep_word_case(compose_sweep_report& rep, const Cipher& cipher,
                     std::string name,
                     std::span<const word_filter_kind> filters) {
    std::vector<std::byte> chain_out(word_case_bytes);
    checksum::inet_accumulator acc;
    core::xdr_word_filter<mem_t> xdr;
    core::cipher_word_filter<mem_t, Cipher, true> enc(cipher);
    core::cipher_word_filter<mem_t, Cipher, false> dec(cipher);
    core::checksum_word_filter<mem_t> ck(acc);
    core::sink_word_filter<mem_t> sink(chain_out);
    std::vector<core::word_filter<mem_t>*> chain;
    for (const word_filter_kind k : filters) {
        core::word_filter<mem_t>* f = &ck;
        switch (k) {
            case word_filter_kind::xdr: f = &xdr; break;
            case word_filter_kind::encrypt: f = &enc; break;
            case word_filter_kind::decrypt: f = &dec; break;
            case word_filter_kind::checksum: break;
        }
        // One object per kind: a repeat would link the chain into a loop.
        ILP_EXPECT(std::find(chain.begin(), chain.end(), f) == chain.end());
        chain.push_back(f);
    }
    chain.push_back(&sink);
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
        chain[i]->set_next(chain[i + 1]);
    }
    core::word_filter<mem_t>& head = *chain.front();

    analysis::stage_graph g;
    g.name = std::move(name);
    g.site = "src/app/compose_sweep.cpp:sweep_word_case";
    g.side = std::find(filters.begin(), filters.end(),
                       word_filter_kind::decrypt) != filters.end()
                 ? analysis::graph_side::receive
                 : analysis::graph_side::send;
    g.kind = analysis::pipeline_kind::word_chain;
    g.parts = {{0, word_case_bytes}};
    for (const analysis::footprint& fp : core::chain_footprints(head)) {
        g.nodes.push_back({fp, 0});
    }

    record_case(rep, g, false, false, [&] {
        mem_t mem;
        std::vector<std::byte> input(word_case_bytes);
        rng(11).fill(input);
        differential_run r;
        core::feed_words(mem, head, input);
        if (sink.bytes_written() != word_case_bytes) {
            return r;  // chain lost words: unconditional mismatch
        }
        r.fused.inet8 = acc.folded();

        std::vector<std::byte> layered_out = input;
        const std::span<std::byte> buf(layered_out);
        checksum::inet_accumulator ref;
        for (const analysis::block_node& n : g.nodes) {
            if (!bind_word_stage(n.fp.name, cipher, ref, [&](auto& stage) {
                    core::apply_stage_in_place(mem, stage, buf);
                })) {
                return r;  // a node with no stage to run fails the run
            }
        }
        r.layered.inet8 = ref.folded();

        r.outputs_match = chain_out == layered_out;
        r.taps_match = r.fused == r.layered;
        return r;
    });
}

template <crypto::block_cipher Cipher>
void sweep_word_family(compose_sweep_report& rep) {
    using enum word_filter_kind;
    const Cipher cipher = make_cipher<Cipher>();
    const std::string prefix = std::string("word/") + cipher_label<Cipher>();
    constexpr word_filter_kind encrypt_chain[] = {encrypt, checksum};
    constexpr word_filter_kind xdr_chain[] = {xdr, encrypt, checksum};
    constexpr word_filter_kind decrypt_chain[] = {decrypt, checksum};
    sweep_word_case(rep, cipher, prefix + "/encrypt", encrypt_chain);
    sweep_word_case(rep, cipher, prefix + "/xdr/encrypt", xdr_chain);
    sweep_word_case(rep, cipher, prefix + "/decrypt", decrypt_chain);
}

}  // namespace

template <typename Cipher>
compose_sweep_report run_word_case(std::string name,
                                   std::span<const word_filter_kind> filters) {
    compose_sweep_report rep;
    sweep_word_case(rep, make_cipher<Cipher>(), std::move(name), filters);
    return rep;
}

template compose_sweep_report run_word_case<crypto::null_cipher>(
    std::string, std::span<const word_filter_kind>);
template compose_sweep_report run_word_case<crypto::simple_cipher>(
    std::string, std::span<const word_filter_kind>);
template compose_sweep_report run_word_case<crypto::safer_simplified>(
    std::string, std::span<const word_filter_kind>);
template compose_sweep_report run_word_case<crypto::safer_k64>(
    std::string, std::span<const word_filter_kind>);
template compose_sweep_report run_word_case<crypto::des>(
    std::string, std::span<const word_filter_kind>);

compose_sweep_report run_compose_sweep() {
    compose_sweep_report rep;
    sweep_flow_family<crypto::null_cipher>(rep);
    sweep_flow_family<crypto::simple_cipher>(rep);
    sweep_flow_family<crypto::safer_simplified>(rep);
    sweep_flow_family<crypto::safer_k64>(rep);
    sweep_flow_family<crypto::des>(rep);
    sweep_flow_family<crypto::aead_cipher>(rep);
    sweep_flow_family<crypto::rc4>(rep);
    sweep_word_family<crypto::null_cipher>(rep);
    sweep_word_family<crypto::simple_cipher>(rep);
    sweep_word_family<crypto::safer_simplified>(rep);
    sweep_word_family<crypto::safer_k64>(rep);
    sweep_word_family<crypto::des>(rep);
    return rep;
}

}  // namespace ilp::app
