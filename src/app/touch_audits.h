// Word-touch audit drivers for the application data paths.
//
// Each driver runs a real fused path under `sim_memory` with a
// `memsim::touch_map` shadowing the payload-carrying buffers, then asks the
// analyzer (analysis/touch_audit.h) to verify the Figure 13 property: every
// source byte read exactly once, every destination byte written exactly
// once, nothing else.  The send driver runs the genuine `fill_message_ilp`
// over a one-piece ring span standing in for the TCP ring reservation; the
// receive driver calls the genuine `receive_reply_ilp` over a one- or
// two-piece wire.  Both round-trip the payload so a cipher or plan bug fails
// loudly rather than producing a clean-but-wrong audit.
//
// `ilp-lint --audit` runs these as the dynamic half of the lint pass;
// tests/analysis_test.cpp runs them plus a seeded double-reading stage that
// the auditor must catch.
#pragma once

#include <cstring>
#include <vector>

#include "analysis/touch_audit.h"
#include "buffer/byte_buffer.h"
#include "core/fused_pipeline.h"
#include "core/stage.h"
#include "crypto/block_cipher.h"
#include "memsim/configs.h"
#include "memsim/mem_policy.h"
#include "memsim/touch_map.h"
#include "rpc/messages.h"
#include "util/contracts.h"
#include "util/rng.h"

// The drivers need the real paths; include them last to keep the dependency
// direction obvious (this header sits above the paths).
#include "app/receive_path.h"
#include "app/send_path.h"

namespace ilp::app {

struct audit_outcome {
    std::vector<analysis::finding> findings;
    bool round_trip_ok = false;  // data survived the path; guards the audit
};

namespace detail {

inline rpc::reply_header audit_header(std::size_t payload_bytes) {
    rpc::reply_header h;
    h.request_id = 1;
    h.copy_index = 0;
    h.offset = 0;
    h.total_bytes = static_cast<std::uint32_t>(payload_bytes);
    return h;
}

// Builds the encrypted wire image of an audit reply with the fused send
// path over direct memory (unaudited — this is the fixture, not the
// subject).
template <crypto::block_cipher Cipher>
void build_wire(const Cipher& cipher, const rpc::reply_layout& layout,
                std::span<const std::byte> payload,
                std::span<std::byte> wire) {
    rpc::reply_staging staging;
    const core::gather_source src =
        rpc::make_reply_source(detail::audit_header(payload.size()), payload,
                               staging);
    fill_message_ilp(memsim::direct_memory{}, cipher, src, layout.plan,
                     ring_span{wire, {}});
}

}  // namespace detail

// Audits the fused send path: the genuine fill_message_ilp, application
// memory -> wire image.
template <crypto::block_cipher Cipher>
audit_outcome audit_fused_send(const Cipher& cipher,
                               std::size_t payload_bytes = 1024) {
    const rpc::reply_layout layout = rpc::layout_reply(payload_bytes);
    byte_buffer payload(payload_bytes);
    rng(11).fill(payload.span());
    rpc::reply_staging staging;
    const core::gather_source src = rpc::make_reply_source(
        detail::audit_header(payload_bytes), payload.span(), staging);
    byte_buffer wire(layout.wire_bytes);

    memsim::memory_system sys(memsim::test_tiny());
    memsim::touch_map map;
    map.watch("msg-staging", staging.bytes, sizeof staging.bytes);
    map.watch("msg-payload", payload.data(), payload.size());
    map.watch("wire", wire.data(), wire.size());
    sys.set_touch_map(&map);
    fill_message_ilp(memsim::sim_memory(sys), cipher, src, layout.plan,
                     ring_span{wire.span(), {}});
    sys.set_touch_map(nullptr);

    audit_outcome out;
    out.findings = analysis::audit_touches(
        map,
        {{"msg-staging", 1, 0}, {"msg-payload", 1, 0}, {"wire", 0, 1}},
        "src/app/send_path.h:fill_message_ilp",
        "flow/safer-k64/v2/tap-none/send-bca");

    // Round trip: decrypt the wire with a plain pass and compare payloads.
    byte_buffer plain(layout.wire_bytes);
    {
        const memsim::direct_memory raw;
        core::decrypt_stage<Cipher> dec(cipher);
        auto undo = core::make_pipeline(dec);
        undo.run(raw, core::span_source(wire.span()),
                 core::span_dest(plain.span()));
    }
    out.round_trip_ok =
        payload_bytes == 0 ||
        std::memcmp(plain.data() + rpc::reply_payload_offset, payload.data(),
                    payload_bytes) == 0;
    return out;
}

// Audits the fused receive path: the genuine receive_reply_ilp, wire image
// -> application destination buffer.  With `split` == 0 the wire is one
// contiguous piece ("app-recv-reply-ilp").  Otherwise it is staged as a
// two-piece ring loan cut `split` bytes in — the arena's tail holds the
// first piece, its head the second, exactly the shape datagram_pipe hands
// out across the ring wrap ("app-recv-zero-copy").  On top of the
// exactly-once expectations, the copy-count audit (A3) proves no staging
// pass survives: the only writes on the whole watched path are the payload
// bytes landing in their destination.
template <crypto::block_cipher Cipher>
audit_outcome audit_fused_receive(const Cipher& cipher,
                                  std::size_t payload_bytes = 1024,
                                  std::size_t split = 0) {
    const rpc::reply_layout layout = rpc::layout_reply(payload_bytes);
    ILP_EXPECT(split < layout.wire_bytes);
    byte_buffer payload(payload_bytes);
    rng(13).fill(payload.span());
    byte_buffer wire(layout.wire_bytes);
    detail::build_wire(cipher, layout, payload.span(), wire.span());

    const char* pipeline =
        split == 0 ? "app-recv-reply-ilp" : "app-recv-zero-copy";
    byte_buffer arena(split == 0 ? 0 : layout.wire_bytes + 64);
    const_ring_span chain{wire.span(), {}};
    if (split != 0) {
        std::byte* piece_a = arena.data() + arena.size() - split;
        std::memcpy(piece_a, wire.data(), split);
        std::memcpy(arena.data(), wire.data() + split,
                    layout.wire_bytes - split);
        chain = {{piece_a, split}, {arena.data(), layout.wire_bytes - split}};
    }

    byte_buffer dest(payload_bytes);
    memsim::memory_system sys(memsim::test_tiny());
    memsim::touch_map map;
    const char* first = split == 0 ? "wire" : "kernel-a";
    std::vector<analysis::touch_expectation> expect = {{first, 1, 0},
                                                       {"reply-dest", 0, 1}};
    map.watch(first, chain.first.data(), chain.first.size());
    map.watch("reply-dest", dest.data(), dest.size());
    if (split != 0) {
        map.watch("kernel-b", chain.second.data(), chain.second.size());
        expect.push_back({"kernel-b", 1, 0});
    }
    sys.set_touch_map(&map);
    const memsim::sim_memory mem(sys);

    path_counters counters;
    rpc::reply_header header;
    const tcp::rx_process_result result = receive_reply_ilp(
        mem, cipher, chain,
        [&](const rpc::reply_header&, std::size_t n) -> std::span<std::byte> {
            return n == dest.size() ? dest.span() : std::span<std::byte>{};
        },
        &header, counters);
    sys.set_touch_map(nullptr);

    const char* site = "src/app/receive_path.h:receive_reply_ilp";
    audit_outcome out;
    out.findings = analysis::audit_touches(map, expect, site, pipeline);
    const auto copies =
        analysis::audit_copy_count(map, payload_bytes, site, pipeline);
    out.findings.insert(out.findings.end(), copies.begin(), copies.end());
    out.round_trip_ok =
        result.ok && (payload_bytes == 0 ||
                      std::memcmp(dest.data(), payload.data(),
                                  payload_bytes) == 0);
    return out;
}

}  // namespace ilp::app
