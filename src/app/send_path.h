// Sending-side data paths (paper Fig. 3), written once over a wire framing
// policy (framing.h).
//
// Both fills take a `gather_source` describing the complete unencrypted body
// of one message (headers already staged in XDR form, payload, generated
// padding) and write the encrypted wire image, plus whatever the framing
// appends, into a segment reserved on a tcp_sender.  Every send has the
// shape tcp_sender::reserve_segment → fill → commit_segment; per §3.2.2 *all*
// manipulations are delayed until the whole message fits ("we decided to
// perform all data manipulations within a single loop and to delay all
// manipulations until they are all possible"), so a refused reservation
// costs nothing.
//
//   ILP:      marshal + encrypt + checksum fused into the single copy from
//             application memory to the TCP ring, processing message parts
//             in the order B, C, A (§3.2.2).  One read of the application
//             data, one write into the ring; the payload checksum falls out
//             of the loop's tap.
//
//   layered:  1. marshalling pass   app -> staging        (r/w)
//             2. encryption pass    staging, in place     (r/w)
//             3. tcp_send copy      staging -> ring       (r/w)
//             4. checksum pass      ring                  (r)   [tcp_output]
//             5. system copy        ring -> kernel        (r/w) [pipe]
//
// fill_message_ilp is the v2 entry point; secure_path.h adds the v3 one and
// picks the framing per flow.
#pragma once

#include <optional>

#include "app/framing.h"
#include "checksum/internet_checksum.h"
#include "core/fused_pipeline.h"
#include "core/layered_path.h"
#include "core/message_plan.h"
#include "core/stage.h"
#include "obs/tracer.h"

namespace ilp::app {

// The fused marshal+encrypt+checksum loop over one message, writing directly
// into a reserved TCP ring span in B,C,A part order, then the framing's
// trailer through a copy mini-loop whose tap covers it too; returns the
// folded checksum over everything written.  Self-contained, so the
// pipelined dataplane runs it as its own stage.
template <typename Framing, memsim::memory_policy Mem,
          crypto::block_cipher Cipher>
std::uint16_t fill_ilp(const Mem& mem, const Cipher& key,
                       crypto::key_epoch epoch,
                       const core::gather_source& src,
                       const core::message_plan& plan, const ring_span& dst) {
    ILP_EXPECT(src.total_size() == plan.total_bytes);
    checksum::inet_accumulator acc;
    typename Framing::sealer seal(key, epoch);
    auto encrypt = seal.stage();
    core::checksum_tap8 tap(acc);
    auto loop = core::make_pipeline(encrypt, tap);
    static_assert(!decltype(loop)::ordering_constrained,
                  "out-of-order parts require unconstrained stages");
    // Construction-time fusion-legality guard (analyzer rule R3): every
    // part cut must respect the strictest stage alignment or a cipher
    // block would straddle the cut.
    ILP_EXPECT(plan.well_formed() &&
               plan.aligned_for(decltype(loop)::required_alignment));
    const core::scatter_dest ring = core::ring_dest(dst);
    for (const core::message_part& part : plan.ilp_order()) {
        if (part.empty()) continue;
        ILP_OBS_SPAN("core", "fused_part");
        loop.run(mem, src.slice(part.offset, part.len),
                 ring.slice(part.offset, part.len));
    }
    if constexpr (Framing::trailer_bytes > 0) {
        alignas(8) std::byte trailer[Framing::trailer_bytes];
        seal.write_trailer(trailer);
        core::opaque_stage copy;
        core::checksum_tap8 trailer_tap(acc);
        auto trailer_loop = core::make_pipeline(copy, trailer_tap);
        trailer_loop.run(mem, core::span_source({trailer, sizeof trailer}),
                         ring.slice(plan.total_bytes, sizeof trailer));
    }
    return acc.folded();
}

// Conventional layered fill: marshal pass, cipher pass in place, trailer
// encode, then tcp_send's copy into the ring.  The checksum is left to
// tcp_output (commit_segment with no sum).  `staging` holds the
// intermediate packet: per-connection scratch kept allocated so repeated
// sends have stable addresses, like the static buffers of a real 1995
// implementation.
template <typename Framing, memsim::memory_policy Mem,
          crypto::block_cipher Cipher>
void fill_layered(const Mem& mem, const Cipher& key, crypto::key_epoch epoch,
                  const core::gather_source& src,
                  const core::message_plan& plan, const ring_span& dst,
                  std::span<std::byte> staging) {
    const std::size_t body = plan.total_bytes;
    ILP_EXPECT(src.total_size() == body &&
               staging.size() == body + Framing::trailer_bytes &&
               dst.size() == staging.size());

    // Pass 1: marshalling (application data -> intermediate packet).
    {
        ILP_OBS_SPAN("app", "marshal_pass");
        core::marshal_to_buffer(mem, src, staging.first(body));
    }
    // Pass 2: encryption, in place.
    typename Framing::sealer seal(key, epoch);
    {
        ILP_OBS_SPAN("app", "cipher_pass");
        auto encrypt = seal.stage();
        core::apply_stage_in_place(mem, encrypt, staging.first(body));
    }
    seal.write_trailer(staging.subspan(body));
    // Pass 3: tcp_send's copy into the ring; pass 4 (checksum) happens in
    // tcp_output.
    ILP_OBS_SPAN("app", "tcp_send_copy");
    mem.copy(dst.first.data(), staging.data(), dst.first.size());
    if (!dst.second.empty()) {
        mem.copy(dst.second.data(), staging.data() + dst.first.size(),
                 dst.second.size());
    }
}

// Either fill for one reserved segment: the folded checksum for ILP, nullopt
// (tcp_output checksums) for layered.  `staging` is only used by layered.
template <typename Framing, memsim::memory_policy Mem,
          crypto::block_cipher Cipher>
std::optional<std::uint16_t> fill_framed(path_mode mode, const Mem& mem,
                                         const Cipher& key,
                                         crypto::key_epoch epoch,
                                         const core::gather_source& src,
                                         const core::message_plan& plan,
                                         const ring_span& dst,
                                         std::span<std::byte> staging) {
    if (mode == path_mode::ilp) {
        return fill_ilp<Framing>(mem, key, epoch, src, plan, dst);
    }
    fill_layered<Framing>(mem, key, epoch, src, plan, dst, staging);
    return std::nullopt;
}

// v2 entry point of the fused fill (the probes and audits drive it).
template <memsim::memory_policy Mem, crypto::block_cipher Cipher>
std::uint16_t fill_message_ilp(const Mem& mem, const Cipher& cipher,
                               const core::gather_source& src,
                               const core::message_plan& plan,
                               const ring_span& dst) {
    return fill_ilp<v2_framing<Cipher>>(mem, cipher, 0, src, plan, dst);
}

// Accounting for one committed message of `body` bytes sent as `wire` bytes
// (body plus trailer) — the bookkeeping every send path shares.
inline void count_sent(path_counters& counters, path_mode mode,
                       std::size_t body, std::size_t wire) {
    ++counters.messages;
    counters.wire_bytes += wire;
    counters.cipher_bytes += body;
    if (mode == path_mode::ilp) {
        counters.fused_loop_bytes += wire;
    } else {
        counters.marshal_pass_bytes += body;
        counters.cipher_pass_bytes += body;
        counters.copy_pass_bytes += wire;
        counters.checksum_pass_bytes += wire;
    }
}

}  // namespace ilp::app
