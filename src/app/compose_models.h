// Stage graphs: the app's input to the legality engine and to ilp-lint.
//
// A flow's stage composition is assembled at run time from its config
// (cipher, wire framing, optional observation tap, side), described as an
// analysis::stage_graph, and handed to analysis::legality_gate before any
// fused loop runs.  This header builds those graphs.  The same builders
// drive the `ilp-lint --compose` sweep, whose differential executes each
// graph's own nodes and parts in the graph's order (app::run_differential),
// so the graph the engine gates is byte-for-byte the graph CI verified
// differentially.  pipeline_inventory() adds the compositions the stack
// compiles in, so `ilp-lint` checks every pipeline through the one composer.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/graph.h"
#include "app/secure_path.h"
#include "core/message_plan.h"
#include "core/stage.h"
#include "crypto/des.h"
#include "crypto/rc4.h"
#include "crypto/safer_k64.h"
#include "crypto/safer_simplified.h"
#include "crypto/simple_cipher.h"
#include "rpc/messages.h"

namespace ilp::app {

// Optional observe-only tap a flow can splice into its data path.  inet2
// forces the loop down to the checksum's natural 2-byte unit (legal
// anywhere); crc32 is ordering-constrained, so it is legal only on
// linearly-scheduled sides — splicing it into a B,C,A send path is the
// canonical verified-illegal composition the gate demotes to layered.
enum class compose_tap : std::uint8_t { none, inet2, crc32 };

inline const char* to_string(compose_tap t) noexcept {
    switch (t) {
        case compose_tap::none: return "none";
        case compose_tap::inet2: return "inet2";
        case compose_tap::crc32: return "crc32";
    }
    return "?";
}

// How the composition traverses the message parts.
enum class compose_schedule : std::uint8_t {
    send_bca,     // send side, paper's out-of-order B,C,A part plan
    send_linear,  // send side pinned to stream order (A,B,C)
    receive,      // receive side: header region then body, in order
};

inline const char* to_string(compose_schedule s) noexcept {
    switch (s) {
        case compose_schedule::send_bca: return "send-bca";
        case compose_schedule::send_linear: return "send-linear";
        case compose_schedule::receive: return "receive";
    }
    return "?";
}

// Representative marshalled size the composed graphs (and the sweep's
// differential runs) use: header + a 1 KB payload.  The geometry rules are
// invariant in the payload size as long as marshalling pads to the cipher
// unit, so one exemplar plan stands in for the whole family.
inline constexpr std::size_t compose_marshalled_bytes =
    rpc::reply_payload_offset + 1024;

inline analysis::block_node tap_node(compose_tap t) {
    if (t == compose_tap::crc32) {
        return {core::crc32_tap::footprint_decl, 0};
    }
    return {core::checksum_tap2::footprint_decl, 0};
}

template <typename Cipher>
constexpr const char* cipher_label() {
    if constexpr (std::is_same_v<Cipher, crypto::null_cipher>) {
        return "null";
    } else if constexpr (std::is_same_v<Cipher, crypto::simple_cipher>) {
        return "simple";
    } else if constexpr (std::is_same_v<Cipher, crypto::safer_simplified>) {
        return "safer-simplified";
    } else if constexpr (std::is_same_v<Cipher, crypto::safer_k64>) {
        return "safer-k64";
    } else if constexpr (std::is_same_v<Cipher, crypto::des>) {
        return "des";
    } else if constexpr (std::is_same_v<Cipher, crypto::aead_cipher>) {
        return "aead";
    } else if constexpr (std::is_same_v<Cipher, crypto::rc4>) {
        return "rc4";
    } else {
        return "cipher";
    }
}

// Builds the stage graph for one flow data path.  `epoch` is the
// epoch-relevant parameter folded into the graph hash: a new epoch gives a
// new hash, so the gate's verdict cache cannot serve a stale verdict across
// a key change.  It feeds no rule, so the verdict itself is the same at
// every epoch, and the engine gates a flow once, at epoch 0.
template <typename Cipher>
analysis::stage_graph flow_graph(const secure_params& params, compose_tap tap,
                                 compose_schedule sched, std::uint64_t epoch) {
    const bool secure = secure_framing(params);
    analysis::stage_graph g;
    g.name = std::string("flow/") + cipher_label<Cipher>() + "/" +
             (secure ? "v3" : "v2") + "/tap-" + to_string(tap) + "/" +
             to_string(sched);
    g.site = "src/app/compose_models.h:flow_graph";
    g.side = sched == compose_schedule::receive ? analysis::graph_side::receive
                                                : analysis::graph_side::send;
    g.kind = analysis::pipeline_kind::fused;
    g.out_of_order_parts = sched == compose_schedule::send_bca;
    g.trailer_reserved_bytes = secure ? secure_trailer_reserved_bytes : 0;

    const core::message_plan plan = core::plan_parts(compose_marshalled_bytes);
    const auto parts = g.out_of_order_parts ? plan.ilp_order()
                                            : plan.linear_order();
    for (const core::message_part& p : parts) {
        if (!p.empty()) g.parts.push_back({p.offset, p.len});
    }

    const bool decrypting = sched == compose_schedule::receive;
    analysis::block_node cipher_node;
    if constexpr (std::is_same_v<Cipher, crypto::rc4>) {
        cipher_node = {crypto::rc4_stage::footprint_decl, epoch};
    } else if constexpr (crypto::aead_capable<Cipher>) {
        if (secure) {
            cipher_node = {
                decrypting
                    ? core::aead_decrypt_stage<Cipher>::footprint_decl
                    : core::aead_encrypt_stage<Cipher>::footprint_decl,
                epoch};
        } else {
            cipher_node = {decrypting
                               ? core::decrypt_stage<Cipher>::footprint_decl
                               : core::encrypt_stage<Cipher>::footprint_decl,
                           epoch};
        }
    } else {
        // A non-AEAD cipher cannot claim the v3 trailer reservation; the
        // composer rejects such graphs under R2 (unfilled reservation).
        cipher_node = {decrypting
                           ? core::decrypt_stage<Cipher>::footprint_decl
                           : core::encrypt_stage<Cipher>::footprint_decl,
                       epoch};
    }

    // Send: transform first, TCP checksum taps the ciphertext on its way
    // out.  Receive: checksum the wire image first, then invert.  The
    // optional extra tap rides at the plaintext-adjacent end in both cases.
    if (decrypting) {
        g.nodes.push_back({core::checksum_tap8::footprint_decl, 0});
        g.nodes.push_back(cipher_node);
    } else {
        g.nodes.push_back(cipher_node);
        g.nodes.push_back({core::checksum_tap8::footprint_decl, 0});
    }
    if (tap != compose_tap::none) g.nodes.push_back(tap_node(tap));
    return g;
}

template <typename Cipher>
analysis::stage_graph flow_send_graph(const secure_params& params,
                                      compose_tap tap, std::uint64_t epoch) {
    return flow_graph<Cipher>(params, tap, compose_schedule::send_bca, epoch);
}

template <typename Cipher>
analysis::stage_graph flow_receive_graph(const secure_params& params,
                                         compose_tap tap,
                                         std::uint64_t epoch) {
    return flow_graph<Cipher>(params, tap, compose_schedule::receive, epoch);
}

// Every pipeline `ilp-lint` checks, in report order: the static
// compositions the TCP, RPC and app layers compile in (stage footprints
// taken from the types they fuse; the schedule, part plan and trailer
// reservation restated, because they live in runtime control flow) and the
// flow graphs above.  Names are unique.
std::vector<analysis::stage_graph> pipeline_inventory();

}  // namespace ilp::app
