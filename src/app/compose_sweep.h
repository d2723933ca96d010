// ilp-lint --compose: the composition-space sweep.
//
// Enumerates the cross-product of runtime-assemblable flow graphs — every
// cipher × wire framing (v2/v3) × optional tap (inet2/crc32) × schedule
// (send B,C,A / send linear / receive), plus the word-filter chains — and
// holds each composer verdict to the executable truth:
//
//   * every ACCEPTED graph is run both ways (fused out-of-order vs layered
//     linear passes) and must be bit-identical, tap values included;
//   * every REJECTED graph must name its rule, and R1 rejections are run
//     anyway to confirm the predicted divergence actually happens.
//
// The differential runs the graph the composer judged: its stages come from
// the graph's nodes, in node order, and the fused side walks the graph's
// parts in part order (run_differential below).  A verdict the differential
// contradicts is a *miscomputation*; a rejection the model can't justify
// (or whose divergence fails to appear) is an *unexplained rejection*.  CI
// fails on either.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/graph.h"

namespace ilp::app {

struct compose_case {
    std::string name;           // graph name (cipher/framing/tap/schedule)
    std::uint64_t hash = 0;     // graph_hash — the gate's cache key
    bool legal = false;         // composer verdict
    std::string rule;           // first violated rule ("" when legal)
    std::string offender;       // offending stage (pair)
    bool executed = false;      // differential run performed
    bool outputs_match = false; // fused buffer == layered buffer
    bool taps_match = false;    // checksums / CRC / AEAD tag agree
    bool mismatch_expected = false;  // R1 rejection: divergence is the proof
    bool ok = false;            // verdict consistent with the differential
    std::string status;         // human-readable outcome
};

struct compose_sweep_report {
    std::vector<compose_case> cases;
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    std::size_t executed = 0;
    std::size_t miscomputations = 0;
    std::size_t unexplained_rejections = 0;

    bool ok() const noexcept {
        return cases.size() >= 100 && miscomputations == 0 &&
               unexplained_rejections == 0;
    }
};

compose_sweep_report run_compose_sweep();

// Every observable a differential run compares.  A tap the graph lacks keeps
// its initial value on both sides, so plain equality covers every graph.
struct compose_taps {
    std::uint16_t inet8 = 0;  // checksum_tap8 (the TCP checksum)
    std::uint16_t inet2 = 0;  // checksum_tap2
    std::uint32_t crc = 0;    // crc32_tap
    std::uint32_t tag = 0;    // AEAD tag

    bool operator==(const compose_taps&) const = default;
};

struct differential_run {
    bool outputs_match = false;  // fused buffer == layered buffer
    bool taps_match = false;     // fused == layered, every tap
    compose_taps fused;
    compose_taps layered;
};

// Runs `g` both ways over one seeded message.  Fused: a dynamic_pipeline
// with one stage per node, in node order, driven over g.parts in that
// order.  Layered: each node's stage as a whole-message in-place pass, in
// node order.  Nodes bind to Cipher's stages by footprint name
// (checksum_tap8, checksum_tap2, crc32_tap, encrypt/decrypt,
// aead_encrypt/aead_decrypt, rc4); a name with no stage fails the run
// (outputs_match = false).  Instantiated for every cipher the sweep covers:
// null, simple, safer-simplified, safer-k64, des, aead and rc4.
template <typename Cipher>
differential_run run_differential(const analysis::stage_graph& g);

// The filters a word-filter chain can hold, head first; a sink always ends
// the chain, and a kind appears at most once.
enum class word_filter_kind { xdr, encrypt, decrypt, checksum };

// One word-filter chain case, as the sweep runs it: the chain `filters` ->
// sink is composed as a graph named `name` and its verdict held to a
// differential.  Fused: the chain itself, word by word.  Layered: the
// block stage each node's footprint names (xdr_filter, cipher_filter(
// encrypt|decrypt), checksum_filter), as whole-message passes in node
// order.  The report holds the one case.  Instantiated for the block
// ciphers the sweep's word family covers: null, simple, safer-simplified,
// safer-k64 and des.
template <typename Cipher>
compose_sweep_report run_word_case(std::string name,
                                   std::span<const word_filter_kind> filters);

}  // namespace ilp::app
