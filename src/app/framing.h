// Wire framing as a compile-time policy.
//
// A framing policy is everything a wire format adds around the body the
// data paths stream: the cipher stage the fused loop (or the cipher pass)
// runs, the bytes appended after the body, how a receiver picks its key, and
// how it judges a frame.  The data paths are written once over a policy:
//
//   send_path.h     fill_ilp / fill_layered    — one ILP and one layered fill
//   receive_path.h  receive_ilp / receive_layered / receive_request
//
// and each flow picks its policy once, at the message boundary, never inside
// the per-part loop (secure_path.h: fill_segment, flow_keys).
//
//   v2_framing  the classic format: the body alone under one fixed key.
//   v3_framing  (secure_path.h) AEAD stages, the clear 8-byte [epoch | tag]
//               trailer, keychain key selection and the four-way verdict.
//
// A policy provides:
//   trailer_bytes   bytes after the body (the receive paths size-check it);
//   authenticated   false: a frame whose length word disagrees still counts
//                   what it delivered (v2 has no tag to judge it by);
//   spans           the per-path span names the attribution table counts;
//   sealer          per-message send state: stage() and write_trailer();
//   opener          per-message receive state, built from a key and a view
//                   of the trailer: has_key(), stage(), tag_ok(), accept()
//                   and fail() for a frame rejected after its header phase.
#pragma once

#include <cstdint>
#include <span>

#include "app/path_mode.h"
#include "buffer/ring_buffer.h"
#include "checksum/internet_checksum.h"
#include "core/gather.h"
#include "core/stage.h"
#include "crypto/block_cipher.h"
#include "crypto/kdf.h"
#include "tcp/connection.h"

namespace ilp::app {

enum class secure_rx_cause : std::uint8_t {
    ok,
    malformed,
    epoch_skew,
    tag_mismatch,
};

inline const char* to_string(secure_rx_cause cause) noexcept {
    switch (cause) {
        case secure_rx_cause::ok: return "ok";
        case secure_rx_cause::malformed: return "malformed";
        case secure_rx_cause::epoch_skew: return "epoch_skew";
        case secure_rx_cause::tag_mismatch: return "tag_mismatch";
    }
    return "?";
}

// A receive path's verdict.  Only v3 framing sets anything beyond the
// default `malformed`; v2 paths leave it as they found it after the reset.
struct secure_rx_status {
    secure_rx_cause cause = secure_rx_cause::malformed;
    crypto::key_epoch epoch = 0;  // trailer epoch as received
    bool window_hit = false;      // accepted under the *previous* epoch
    bool adopted = false;         // keychain jumped forward to this epoch
};

// Span names per framing; the attribution table in bench_e2e counts them.
struct path_span_names {
    const char* send_ilp;
    const char* send_layered;
    const char* receive_ilp;
    const char* receive_layered;
    const char* receive_request;
};

namespace detail {

// Folds wire bytes [from, end) into the accumulator segment by segment (the
// accumulator's odd-parity tracking makes that correct for any chain split)
// and charges them as a checksum pass.  Used for the clear v3 trailer and
// for the untouched remainder of a rejected frame.
template <memsim::memory_policy Mem>
void checksum_rest(const Mem& mem, checksum::inet_accumulator& acc,
                   const core::gather_source& wire, std::size_t from,
                   path_counters& counters) {
    const std::size_t n = wire.total_size();
    // Named: segments() views the slice, which must outlive the loop.
    const core::gather_source rest = wire.slice(from, n - from);
    for (const core::gather_segment& s : rest.segments()) {
        acc.add_bytes(mem, std::span<const std::byte>{s.data, s.len}, 8);
    }
    counters.checksum_pass_bytes += n - from;
}

// Rejects a frame: folds the rest of the wire so TCP can still verdict it.
template <memsim::memory_policy Mem>
tcp::rx_process_result fail_with_remainder(const Mem& mem,
                                           checksum::inet_accumulator& acc,
                                           const core::gather_source& wire,
                                           std::size_t from,
                                           path_counters& counters) {
    checksum_rest(mem, acc, wire, from, counters);
    return {acc.folded(), false};
}

}  // namespace detail

template <crypto::block_cipher Cipher>
struct v2_framing {
    static constexpr std::size_t trailer_bytes = 0;
    static constexpr bool authenticated = false;
    static constexpr path_span_names spans{"send_ilp", "send_layered",
                                           "receive_ilp", "receive_layered",
                                           "receive_request"};

    class sealer {
    public:
        sealer(const Cipher& key, crypto::key_epoch) : key_(&key) {}
        core::encrypt_stage<Cipher> stage() const {
            return core::encrypt_stage<Cipher>(*key_);
        }
        void write_trailer(std::span<std::byte>) const noexcept {}

    private:
        const Cipher* key_;
    };

    class opener {
    public:
        opener(const Cipher& key, const const_ring_span&, secure_rx_status*)
            : key_(&key) {}
        bool has_key() const noexcept { return true; }
        core::decrypt_stage<Cipher> stage() const {
            return core::decrypt_stage<Cipher>(*key_);
        }
        bool tag_ok(secure_rx_status*) const noexcept { return true; }
        void accept(secure_rx_status*) const noexcept {}

        // No tag to finish: the rest of the wire is only checksummed.
        template <memsim::memory_policy Mem, typename Loop>
        tcp::rx_process_result fail(const Mem& mem, Loop&,
                                    checksum::inet_accumulator& acc,
                                    const core::gather_source& wire,
                                    std::size_t from, secure_rx_status*,
                                    path_counters& counters) const {
            return detail::fail_with_remainder(mem, acc, wire, from, counters);
        }

    private:
        const Cipher* key_;
    };
};

}  // namespace ilp::app
