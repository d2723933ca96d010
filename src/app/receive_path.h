// Receiving-side data paths (paper Fig. 5), written once over a wire framing
// policy (framing.h).
//
// Every path runs as the tcp_receiver's processor: after the system copy and
// header parse (initial stage) and before TCP commits anything (final
// stage).  They must *always* return the folded checksum of the complete
// wire payload — even when the message is malformed, stale or forged —
// because the final stage needs it for the accept/reject verdict.  Framing
// decides what is judged on top: v2 only the structure, v3 the epoch window
// and the tag as well (secure_path.h lists the verdicts).
//
//   ILP:      checksum + decrypt + unmarshal fused into the copy out of the
//             receive buffer.  The first cipher blocks are decrypted first
//             to learn the encryption header's length field and the RPC
//             header ("as soon as enough data is decrypted for
//             unmarshalling, it performs the appropriate unmarshalling
//             operations", §3.2.3), then the rest streams straight into the
//             application's destination buffer.  The wire is a loaned
//             kernel-segment chain (zero-copy) or a single-piece chain over
//             a staged copy; both run the same accesses.
//
//   layered:  1. checksum pass        receive buffer        (r)
//             2. decryption pass      in place              (r/w)
//             3. unmarshal + copy     buffer -> application (r/w)
//
// receive_reply_ilp / receive_reply_layered are the v2 entry points;
// secure_path.h adds the v3 ones and picks the framing per flow.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>

#include "app/framing.h"
#include "checksum/internet_checksum.h"
#include "core/fused_pipeline.h"
#include "core/layered_path.h"
#include "core/stage.h"
#include "obs/tracer.h"
#include "rpc/messages.h"

namespace ilp::app {

// Gives the receive path the destination for a reply's payload once the RPC
// header is known; returns an empty span to reject (unknown request id, bad
// offset, ...).  The span must be exactly `payload_bytes` long.
template <typename F>
concept reply_dest_resolver =
    requires(F f, const rpc::reply_header& h, std::size_t n) {
        { f(h, n) } -> std::convertible_to<std::span<std::byte>>;
    };

namespace detail {

// Region of the wire holding the encryption header + the five RPC header
// words: exactly the first three cipher blocks.
inline constexpr std::size_t reply_header_region = 24;

// Host-order staging for the unmarshalled length field and RPC header.
struct reply_header_staging {
    std::uint32_t words[6] = {};  // length, msg_type, request_id, copy_index,
                                  // offset, total_bytes

    std::span<std::byte> bytes() {
        return {reinterpret_cast<std::byte*>(words), sizeof words};
    }
    rpc::reply_header to_header() const {
        rpc::reply_header h;
        h.msg_type = words[1];
        h.request_id = words[2];
        h.copy_index = words[3];
        h.offset = words[4];
        h.total_bytes = words[5];
        return h;
    }
};

// Body-phase destination: the opaque length word, the payload (straight
// into the application's buffer) and the discarded padding.
inline core::scatter_dest reply_body_dest(std::uint32_t& opaque_len,
                                          std::span<std::byte> payload,
                                          std::size_t body) {
    core::scatter_dest dst;
    dst.add({reinterpret_cast<std::byte*>(&opaque_len), 4},
            core::segment_op::xdr_words);
    if (!payload.empty()) dst.add(payload);
    const std::size_t pad = body - rpc::reply_payload_offset - payload.size();
    if (pad > 0) dst.add_discard(pad);
    return dst;
}

// A delivery as a chain: a zero-copy loan already is one, a staged copy is
// its single piece.
inline const_ring_span as_chain(const const_ring_span& wire) { return wire; }
inline const_ring_span as_chain(std::span<const std::byte> wire) {
    return {wire, {}};
}

// The verdict both reply paths end in once the body is unmarshalled.
template <typename Framing, typename Opener>
tcp::rx_process_result finish_reply(Opener& open,
                                    checksum::inet_accumulator& acc,
                                    bool well_formed,
                                    const rpc::reply_header& header,
                                    std::size_t payload_bytes,
                                    rpc::reply_header* out_header,
                                    secure_rx_status* status,
                                    path_counters& counters) {
    if (well_formed) open.accept(status);
    if (well_formed || !Framing::authenticated) {
        ++counters.messages;
        counters.payload_bytes += payload_bytes;
        if (out_header != nullptr) *out_header = header;
    }
    return {acc.folded(), well_formed};
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Reply receive paths

// The fused reply receive.  Any trailer is decoded off the chain before the
// loop starts (rule R2: every header and trailer size is known up front), so
// the loop streams the ciphertext in place with no reassembly.
template <typename Framing, memsim::memory_policy Mem, typename Key,
          reply_dest_resolver Resolver>
tcp::rx_process_result receive_ilp(const Mem& mem, Key& key,
                                   const const_ring_span& wire,
                                   Resolver&& resolve,
                                   rpc::reply_header* out_header,
                                   secure_rx_status* status,
                                   path_counters& counters) {
    const std::size_t n = wire.size();
    counters.wire_bytes += n;
    ILP_OBS_SPAN("app", Framing::spans.receive_ilp);
    checksum::inet_accumulator acc;
    if (status != nullptr) *status = {};
    const core::gather_source src = core::chain_source(wire);
    if (n < rpc::reply_payload_offset + 4 + Framing::trailer_bytes ||
        n % core::encryption_unit_bytes != 0) {
        return detail::fail_with_remainder(mem, acc, src, 0, counters);
    }
    const std::size_t body = n - Framing::trailer_bytes;
    typename Framing::opener open(
        key, wire.subspan(body, Framing::trailer_bytes), status);
    if (!open.has_key()) {
        // Stale epoch: nothing to decrypt; checksum everything so TCP can
        // verdict.
        return detail::fail_with_remainder(mem, acc, src, 0, counters);
    }

    core::checksum_tap8 tap(acc);  // over the ciphertext...
    auto decrypt = open.stage();   // ...then decrypt
    auto loop = core::make_pipeline(tap, decrypt);
    // The two-phase split at reply_header_region is itself a part cut; it
    // must land on a cipher-block boundary (analyzer rule R3).
    static_assert(detail::reply_header_region %
                          decltype(loop)::required_alignment ==
                      0,
                  "header phase must end on a fused-unit boundary");

    // Phase 1: decrypt the header region to learn the message geometry.
    detail::reply_header_staging staging;
    {
        ILP_OBS_SPAN("app", "receive_header_phase");
        core::scatter_dest dst;
        dst.add(staging.bytes(), core::segment_op::xdr_words);
        loop.run(mem, src.slice(0, detail::reply_header_region), dst);
    }
    counters.fused_loop_bytes += detail::reply_header_region;
    counters.cipher_bytes += detail::reply_header_region;

    const auto marshalled = rpc::validate_enc_header(staging.words[0], body);
    const rpc::reply_header header = staging.to_header();
    if (!marshalled.has_value() || *marshalled < rpc::reply_payload_offset ||
        header.msg_type != rpc::msg_type_reply) {
        return open.fail(mem, loop, acc, src, detail::reply_header_region,
                         status, counters);
    }
    const std::size_t payload_bytes = *marshalled - rpc::reply_payload_offset;
    const std::span<std::byte> dest = resolve(header, payload_bytes);
    if (dest.size() != payload_bytes) {
        return open.fail(mem, loop, acc, src, detail::reply_header_region,
                         status, counters);
    }

    // Phase 2: the rest of the body, then the clear trailer's checksum.
    std::uint32_t opaque_len = 0;
    {
        ILP_OBS_SPAN("app", "receive_body_phase");
        loop.run(mem,
                 src.slice(detail::reply_header_region,
                           body - detail::reply_header_region),
                 detail::reply_body_dest(opaque_len, dest, body));
    }
    counters.fused_loop_bytes += body - detail::reply_header_region;
    counters.cipher_bytes += body - detail::reply_header_region;
    detail::checksum_rest(mem, acc, src, body, counters);
    if (!open.tag_ok(status)) return {acc.folded(), false};
    return detail::finish_reply<Framing>(open, acc,
                                         opaque_len == payload_bytes, header,
                                         payload_bytes, out_header, status,
                                         counters);
}

// The layered reply receive: checksum pass (trailer included), cipher pass
// in place (tag included), unmarshal passes.
template <typename Framing, memsim::memory_policy Mem, typename Key,
          reply_dest_resolver Resolver>
tcp::rx_process_result receive_layered(const Mem& mem, Key& key,
                                       std::span<std::byte> wire,
                                       Resolver&& resolve,
                                       rpc::reply_header* out_header,
                                       secure_rx_status* status,
                                       path_counters& counters) {
    const std::size_t n = wire.size();
    counters.wire_bytes += n;
    ILP_OBS_SPAN("app", Framing::spans.receive_layered);
    checksum::inet_accumulator acc;
    if (status != nullptr) *status = {};

    // Pass 1: checksum over the ciphertext.
    {
        ILP_OBS_SPAN("app", "checksum_pass");
        core::checksum_pass(mem, acc, wire, 8);
    }
    counters.checksum_pass_bytes += n;
    if (n < rpc::reply_payload_offset + 4 + Framing::trailer_bytes ||
        n % core::encryption_unit_bytes != 0) {
        return {acc.folded(), false};
    }
    const std::size_t body = n - Framing::trailer_bytes;
    typename Framing::opener open(key, const_ring_span{wire.subspan(body), {}},
                                  status);
    if (!open.has_key()) return {acc.folded(), false};

    // Pass 2: decrypt in place.
    {
        ILP_OBS_SPAN("app", "cipher_pass");
        auto decrypt = open.stage();
        core::apply_stage_in_place(mem, decrypt, wire.first(body));
    }
    counters.cipher_pass_bytes += body;
    counters.cipher_bytes += body;
    if (!open.tag_ok(status)) return {acc.folded(), false};

    // Pass 3: unmarshal + copy.  Headers first...
    detail::reply_header_staging staging;
    {
        ILP_OBS_SPAN("app", "unmarshal_pass");
        core::scatter_dest dst;
        dst.add(staging.bytes(), core::segment_op::xdr_words);
        core::unmarshal_from_buffer(
            mem, wire.first(detail::reply_header_region), dst);
    }
    counters.marshal_pass_bytes += detail::reply_header_region;

    const auto marshalled = rpc::validate_enc_header(staging.words[0], body);
    const rpc::reply_header header = staging.to_header();
    if (!marshalled.has_value() || *marshalled < rpc::reply_payload_offset ||
        header.msg_type != rpc::msg_type_reply) {
        return {acc.folded(), false};
    }
    const std::size_t payload_bytes = *marshalled - rpc::reply_payload_offset;
    const std::span<std::byte> dest = resolve(header, payload_bytes);
    if (dest.size() != payload_bytes) return {acc.folded(), false};

    // ...then the body.
    std::uint32_t opaque_len = 0;
    {
        ILP_OBS_SPAN("app", "unmarshal_pass");
        core::unmarshal_from_buffer(
            mem,
            wire.subspan(detail::reply_header_region,
                         body - detail::reply_header_region),
            detail::reply_body_dest(opaque_len, dest, body));
    }
    counters.marshal_pass_bytes += body - detail::reply_header_region;
    return detail::finish_reply<Framing>(open, acc,
                                         opaque_len == payload_bytes, header,
                                         payload_bytes, out_header, status,
                                         counters);
}

// Either reply path for one delivery.  A chain (zero-copy loan) only reaches
// the data path in ILP mode: the layered path decrypts in place, which a
// read-only loan cannot support, so the TCP layer stages a counted copy for
// it instead.
template <typename Framing, memsim::memory_policy Mem, typename Key,
          typename Wire, reply_dest_resolver Resolver>
tcp::rx_process_result receive_reply_framed(path_mode mode, const Mem& mem,
                                            Key& key, const Wire& wire,
                                            Resolver&& resolve,
                                            rpc::reply_header* out_header,
                                            secure_rx_status* status,
                                            path_counters& counters) {
    if constexpr (std::is_same_v<Wire, std::span<std::byte>>) {
        if (mode == path_mode::layered) {
            return receive_layered<Framing>(mem, key, wire, resolve,
                                            out_header, status, counters);
        }
    }
    ILP_EXPECT(mode == path_mode::ilp);
    return receive_ilp<Framing>(mem, key, detail::as_chain(wire), resolve,
                                out_header, status, counters);
}

// v2 entry points (the audits, probes and unit fixtures drive them); the
// wire is a chain or a contiguous span.
template <memsim::memory_policy Mem, crypto::block_cipher Cipher,
          typename Wire, reply_dest_resolver Resolver>
tcp::rx_process_result receive_reply_ilp(const Mem& mem, const Cipher& cipher,
                                         const Wire& wire, Resolver&& resolve,
                                         rpc::reply_header* out_header,
                                         path_counters& counters) {
    return receive_ilp<v2_framing<Cipher>>(mem, cipher, detail::as_chain(wire),
                                           resolve, out_header, nullptr,
                                           counters);
}

template <memsim::memory_policy Mem, crypto::block_cipher Cipher,
          reply_dest_resolver Resolver>
tcp::rx_process_result receive_reply_layered(const Mem& mem,
                                             const Cipher& cipher,
                                             std::span<std::byte> wire,
                                             Resolver&& resolve,
                                             rpc::reply_header* out_header,
                                             path_counters& counters) {
    return receive_layered<v2_framing<Cipher>>(mem, cipher, wire, resolve,
                                               out_header, nullptr, counters);
}

// ---------------------------------------------------------------------------
// Request receive (server side; requests are small but still flow through
// the full data-manipulation machinery)

// Decrypts a request body into `staging` (the caller parses it with
// rpc::unmarshal_request), checksums the whole wire and judges the frame.
// A chain (zero-copy loan) reaches it only in ILP mode, as above.
template <typename Framing, memsim::memory_policy Mem,
          crypto::block_cipher Cipher, typename Wire>
tcp::rx_process_result receive_request(path_mode mode, const Mem& mem,
                                       const Cipher& key, const Wire& wire,
                                       std::span<std::byte> staging,
                                       secure_rx_status* status,
                                       path_counters& counters) {
    constexpr std::size_t trailer = Framing::trailer_bytes;
    const std::size_t n = wire.size();
    counters.wire_bytes += n;
    ILP_OBS_SPAN("app", Framing::spans.receive_request);
    checksum::inet_accumulator acc;
    if (status != nullptr) *status = {};
    const const_ring_span chain = detail::as_chain(wire);
    const core::gather_source src = core::chain_source(chain);
    // A trailer-framed request must also carry a body.
    if ((trailer > 0 && n <= trailer) ||
        n % core::encryption_unit_bytes != 0 || n - trailer > staging.size()) {
        return detail::fail_with_remainder(mem, acc, src, 0, counters);
    }
    const std::size_t body = n - trailer;
    typename Framing::opener open(key, chain.subspan(body, trailer), status);
    auto decrypt = open.stage();
    if (mode == path_mode::ilp) {
        core::checksum_tap8 tap(acc);
        auto loop = core::make_pipeline(tap, decrypt);
        loop.run(mem, src.slice(0, body), core::span_dest(staging.first(body)));
        counters.fused_loop_bytes += body;
    } else if constexpr (std::is_same_v<Wire, std::span<std::byte>>) {
        core::checksum_pass(mem, acc, wire.first(body), 8);
        counters.checksum_pass_bytes += body;
        core::apply_stage_in_place(mem, decrypt, wire.first(body));
        counters.cipher_pass_bytes += body;
        core::copy_pass(mem, wire.first(body), staging.first(body));
        counters.copy_pass_bytes += body;
    } else {
        ILP_EXPECT(mode == path_mode::ilp);
    }
    counters.cipher_bytes += body;
    detail::checksum_rest(mem, acc, src, body, counters);
    if (!open.tag_ok(status)) return {acc.folded(), false};
    open.accept(status);
    ++counters.messages;
    return {acc.folded(), true};
}

}  // namespace ilp::app
