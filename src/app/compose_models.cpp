#include "app/compose_models.h"

#include <array>

#include "checksum/internet_checksum.h"
#include "core/fused_pipeline.h"
#include "core/word_filter.h"
#include "crypto/aead.h"
#include "memsim/mem_policy.h"

namespace ilp::app {

namespace {

using analysis::footprint;
using analysis::footprint_of;
using analysis::graph_side;
using analysis::pipeline_kind;
using analysis::stage_graph;

using enc = core::encrypt_stage<crypto::safer_k64>;
using dec = core::decrypt_stage<crypto::safer_k64>;
using aead_enc = core::aead_encrypt_stage<crypto::aead_cipher>;
using aead_dec = core::aead_decrypt_stage<crypto::aead_cipher>;

// A static composition as a linear stage graph: one node per stage
// footprint, in loop order.
stage_graph static_graph(const char* name, const char* site, graph_side side,
                         pipeline_kind kind,
                         const std::vector<footprint>& stages) {
    stage_graph g;
    g.name = name;
    g.site = site;
    g.side = side;
    g.kind = kind;
    for (const footprint& fp : stages) g.nodes.push_back({fp, 0});
    return g;
}

template <typename Loop>
stage_graph fused(const char* name, const char* site, graph_side side) {
    return static_graph(name, site, side, pipeline_kind::fused,
                        Loop::footprints());
}

// The word-filter baseline (bench_ablation_unit_size): an actual chain is
// built and walked so the stages are exactly what the bench runs, footprint
// virtuals included.  Expect the W1 word-handoff warning on the 8-byte
// cipher filter: that warning *is* the paper's §2.2 critique of the scheme.
stage_graph word_chain_baseline() {
    using mem_t = memsim::direct_memory;
    const std::array<std::byte, crypto::safer_simplified::key_bytes> key{};
    const crypto::safer_simplified cipher(key);
    checksum::inet_accumulator acc;
    std::array<std::byte, 4> sink_buf{};
    core::cipher_word_filter<mem_t, crypto::safer_simplified, true> enc_filter(
        cipher);
    core::checksum_word_filter<mem_t> sum_filter(acc);
    core::sink_word_filter<mem_t> sink(sink_buf);
    enc_filter.set_next(&sum_filter);
    sum_filter.set_next(&sink);
    return static_graph("app-wordchain-baseline",
                        "bench/bench_ablation_unit_size.cpp:main",
                        graph_side::send, pipeline_kind::word_chain,
                        core::chain_footprints(enc_filter));
}

}  // namespace

std::vector<stage_graph> pipeline_inventory() {
    constexpr graph_side send = graph_side::send;
    constexpr graph_side receive = graph_side::receive;
    const core::message_plan plan = core::plan_parts(compose_marshalled_bytes);
    std::vector<stage_graph> out;

    // TCP: the output/input checksum passes over the wire bytes, and the ring
    // copy of the non-fused send path (a pure move, no stages).
    using tap_loop = core::fused_pipeline<core::checksum_tap8>;
    out.push_back(fused<tap_loop>("tcp-output-checksum",
                                  "src/tcp/connection.h:tcp_output", send));
    out.push_back(fused<tap_loop>("tcp-input-checksum",
                                  "src/tcp/connection.h:tcp_input", receive));
    out.push_back(fused<core::fused_pipeline<>>(
        "tcp-ring-copy", "src/tcp/connection.h:tcp_sender::send_message",
        send));

    // RPC trailer framing runs front to back, so the ordering-constrained
    // CRC-32 tap is legal there: R1 fires only under a B,C,A part plan.
    using recv_loop = core::fused_pipeline<core::checksum_tap8, dec>;
    out.push_back(fused<core::fused_pipeline<enc, core::checksum_tap8>>(
        "rpc-trailer-send", "src/rpc/trailer.h:make_trailer_source", send));
    out.push_back(fused<recv_loop>("rpc-trailer-recv",
                                   "src/rpc/trailer.h:read_trailer", receive));
    out.push_back(fused<core::fused_pipeline<enc, core::crc32_tap>>(
        "rpc-trailer-crc-send", "src/rpc/trailer.h:make_trailer_source",
        send));
    out.push_back(fused<core::fused_pipeline<core::xdr_encode_stage>>(
        "rpc-reply-header-marshal", "src/rpc/messages.h:make_reply_source",
        send));

    // Early send encrypts the parts B, C, A into staging ahead of ring
    // space (§3.2.2).  The fused reply receive runs in two linear phases
    // split at the 24-byte header region, a part cut that must clear the
    // same geometry rules; the request receive is one linear pass.
    stage_graph early = fused<core::fused_pipeline<enc>>(
        "app-send-early", "src/app/early_send.h:early_sender::prepare", send);
    early.out_of_order_parts = true;
    for (const core::message_part& p : plan.ilp_order()) {
        if (!p.empty()) early.parts.push_back({p.offset, p.len});
    }
    out.push_back(std::move(early));
    const std::vector<analysis::part_info> reply_phases = {
        {0, 24}, {24, plan.total_bytes - 24}};
    out.push_back(fused<recv_loop>("app-recv-reply-ilp",
                                   "src/app/receive_path.h:receive_reply_ilp",
                                   receive));
    out.back().parts = reply_phases;
    out.push_back(fused<recv_loop>("app-recv-request-ilp",
                                   "src/app/receive_path.h:receive_request",
                                   receive));
    out.back().parts = {{0, plan.total_bytes}};
    out.push_back(word_chain_baseline());

    // Secure (AEAD) paths: the keystream+tag cipher replaces the block
    // cipher, and the framing reserves the clear [epoch|tag] trailer the
    // AEAD stage obliges.  Layered baselines make one pass per layer; the
    // fused-only rules (R1/R3 geometry, W3) do not apply to them.
    out.push_back(fused<core::fused_pipeline<core::checksum_tap8, aead_dec>>(
        "app-recv-secure-ilp", "src/app/secure_path.h:receive_reply_secure_ilp",
        receive));
    out.back().parts = reply_phases;
    out.back().trailer_reserved_bytes = secure_trailer_reserved_bytes;
    out.push_back(static_graph(
        "app-send-secure-layered", "src/app/send_path.h:fill_layered", send,
        pipeline_kind::layered,
        {footprint_of<core::xdr_encode_stage>(), footprint_of<aead_enc>(),
         footprint_of<core::opaque_stage>(),
         footprint_of<core::checksum_tap8>()}));
    out.back().trailer_reserved_bytes = secure_trailer_reserved_bytes;
    out.push_back(static_graph(
        "app-recv-secure-layered",
        "src/app/secure_path.h:receive_reply_secure_layered", receive,
        pipeline_kind::layered,
        {footprint_of<core::checksum_tap8>(), footprint_of<aead_dec>(),
         footprint_of<core::xdr_decode_stage>()}));
    out.back().trailer_reserved_bytes = secure_trailer_reserved_bytes;

    // The flow graphs the engine's legality gate admits at flow setup; the
    // fused send paths (fill_message_ilp, fill_message_secure_ilp) are
    // checked as these.
    const secure_params classic{};
    secure_params secure;
    secure.enabled = true;
    secure.flow_secret = 1;
    out.push_back(
        flow_send_graph<crypto::safer_k64>(classic, compose_tap::none, 0));
    out.push_back(
        flow_receive_graph<crypto::safer_k64>(classic, compose_tap::none, 0));
    out.push_back(
        flow_send_graph<crypto::aead_cipher>(secure, compose_tap::none, 0));
    out.push_back(
        flow_receive_graph<crypto::aead_cipher>(secure, compose_tap::none, 0));
    out.push_back(
        flow_send_graph<crypto::safer_k64>(classic, compose_tap::inet2, 0));

    out.push_back(static_graph(
        "app-send-layered", "src/app/send_path.h:fill_layered", send,
        pipeline_kind::layered,
        {footprint_of<core::xdr_encode_stage>(), footprint_of<enc>(),
         footprint_of<core::opaque_stage>(),
         footprint_of<core::checksum_tap8>()}));
    out.push_back(static_graph(
        "app-recv-reply-layered",
        "src/app/receive_path.h:receive_reply_layered", receive,
        pipeline_kind::layered,
        {footprint_of<core::checksum_tap8>(), footprint_of<dec>(),
         footprint_of<core::xdr_decode_stage>()}));
    return out;
}

}  // namespace ilp::app
