// Secure framing (wire v3) and the per-flow choice between it and v2.
//
// A secure message is the v2 wire image encrypted under the flow's current
// epoch key, followed by an 8-byte clear trailer [epoch | tag]
// (rpc::secure_trailer).  The tag is accumulated *inside* the same fused
// loop that marshals, encrypts and checksums — authentication costs no
// extra pass and no extra memory traffic, which is the modern re-run of the
// paper's ILP claim.  The layered baselines pay the conventional
// pass-per-layer price, tag included in the cipher pass.
//
// v3_framing is the framing policy (framing.h) the shared data paths in
// send_path.h and receive_path.h run under; this header adds the v3 entry
// points and flow_keys, the key state both endpoints hold, which picks the
// framing once per message.  The receive side owns the failure taxonomy the
// robustness contract demands:
//
//   epoch_skew    — trailer epoch is *behind* the two-epoch key window
//                   (stale beyond any legal retransmit); nothing decrypted.
//   tag_mismatch  — key window (or forward derivation) produced a key, but
//                   the accumulated tag disagrees with the trailer: wrong
//                   key or tampered ciphertext.  A malformed-looking header
//                   whose tag also disagrees is classified here, so a key
//                   mismatch is *always* explicit, never "malformed".
//   malformed     — tag verified but the plaintext is structurally invalid.
//   ok            — decrypted, parsed and tag-verified; the keychain has
//                   adopted the epoch if it was ahead of the window.
//
// All failure paths still fold the complete TCP checksum (including the
// clear trailer) so the transport can deliver its verdict, exactly like the
// plain receive paths.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>

#include "app/framing.h"
#include "app/path_mode.h"
#include "app/receive_path.h"
#include "app/send_path.h"
#include "crypto/aead.h"
#include "crypto/kdf.h"
#include "obs/tracer.h"
#include "rpc/messages.h"

namespace ilp::app {

// Per-flow security configuration, set identically on both endpoints (the
// deterministic KDF plays the role of the key exchange).  wire_version 2
// negotiates the flow down to the classic format: no trailers, a pinned
// epoch-0 key, no rekeying — the compatibility mode for old peers.
struct secure_params {
    bool enabled = false;
    std::uint64_t flow_secret = 0;
    std::uint32_t wire_version = rpc::wire_version_secure;
    // Server-side policy: rekey after this many reply-stream bytes
    // (0 = never).  Only meaningful with wire v3 framing.
    std::uint64_t rekey_interval_bytes = 0;
};

// Trailer framing is active only for secure wire-v3 flows.
inline bool secure_framing(const secure_params& params) noexcept {
    return params.enabled && params.wire_version == rpc::wire_version_secure;
}

// Bytes the v3 framing reserves after the body for the clear [epoch | tag]
// trailer — the reservation the composition-legality engine matches against
// the trailer obligation the AEAD stages declare in their footprints.
inline constexpr std::size_t secure_trailer_reserved_bytes =
    rpc::secure_trailer_bytes;
static_assert(core::aead_encrypt_stage<crypto::aead_cipher>::footprint_decl
                      .trailer_bytes == rpc::secure_trailer_bytes,
              "AEAD footprint trailer obligation must match the wire-v3 "
              "trailer reservation");
static_assert(core::aead_decrypt_stage<crypto::aead_cipher>::footprint_decl
                      .trailer_bytes == rpc::secure_trailer_bytes,
              "AEAD footprint trailer obligation must match the wire-v3 "
              "trailer reservation");

// Per-endpoint security counters, merged into flow outcomes and metrics.
struct secure_flow_stats {
    std::uint64_t rekeys = 0;           // key-window advances initiated
    std::uint64_t tag_failures = 0;     // explicit tag_mismatch rejections
    std::uint64_t epoch_skews = 0;      // epochs behind the key window
    std::uint64_t window_hits = 0;      // previous-epoch acceptances
    std::uint64_t epoch_adoptions = 0;  // forward jumps committed
};

// Selects the decryption key for `epoch` from the keychain: a window hit
// uses the held cipher; an epoch *ahead* of the window is trial-derived into
// `derived` (committed to the chain only after the tag verifies); an epoch
// behind the window is an explicit epoch_skew.  Returns nullptr on skew.
template <crypto::aead_capable Cipher>
const Cipher* select_rx_cipher(crypto::keychain<Cipher>& chain,
                               crypto::key_epoch epoch,
                               std::optional<Cipher>& derived,
                               secure_rx_status* status) {
    if (status != nullptr) status->epoch = epoch;
    if (const Cipher* held = chain.cipher_for(epoch)) {
        if (status != nullptr && epoch != chain.current_epoch()) {
            status->window_hit = true;
        }
        return held;
    }
    if (epoch > chain.current_epoch()) {
        derived.emplace(
            crypto::derive_epoch_cipher<Cipher>(chain.secret(), epoch));
        return &*derived;
    }
    if (status != nullptr) status->cause = secure_rx_cause::epoch_skew;
    return nullptr;
}

template <crypto::aead_capable Cipher>
struct v3_framing {
    static constexpr std::size_t trailer_bytes = rpc::secure_trailer_bytes;
    static constexpr bool authenticated = true;
    static constexpr path_span_names spans{
        "send_secure_ilp", "send_secure_layered", "receive_secure_ilp",
        "receive_secure_layered", "receive_request_secure"};

    class sealer {
    public:
        sealer(const Cipher& key, crypto::key_epoch epoch)
            : key_(&key), epoch_(epoch) {}
        sealer(const sealer&) = delete;  // the stage points at tag_
        sealer& operator=(const sealer&) = delete;

        core::aead_encrypt_stage<Cipher> stage() {
            return core::aead_encrypt_stage<Cipher>(*key_, tag_);
        }
        void write_trailer(std::span<std::byte> out) const {
            rpc::encode_secure_trailer({.key_epoch = epoch_, .tag = tag_.fold()},
                                       out);
        }

    private:
        const Cipher* key_;
        crypto::key_epoch epoch_;
        crypto::aead_tag_accumulator tag_;
    };

    class opener {
    public:
        // Reply direction: the key for the trailer's epoch out of the
        // window (or trial-derived ahead of it), adopted once the tag
        // verifies.
        opener(crypto::keychain<Cipher>& chain, const const_ring_span& trailer,
               secure_rx_status* status)
            : trailer_(decode(trailer)),
              chain_(&chain),
              key_(select_rx_cipher(chain, trailer_.key_epoch, derived_,
                                    status)) {}
        // Request direction: the epoch-free control key; the trailer epoch
        // is informational (the server re-centres its window on it).
        opener(const Cipher& control, const const_ring_span& trailer,
               secure_rx_status* status)
            : trailer_(decode(trailer)), key_(&control) {
            if (status != nullptr) status->epoch = trailer_.key_epoch;
        }
        opener(const opener&) = delete;  // the stage points at tag_
        opener& operator=(const opener&) = delete;

        bool has_key() const noexcept { return key_ != nullptr; }
        core::aead_decrypt_stage<Cipher> stage() {
            return core::aead_decrypt_stage<Cipher>(*key_, tag_);
        }
        bool tag_ok(secure_rx_status* status) const {
            if (tag_.fold() == trailer_.tag) return true;
            if (status != nullptr) status->cause = secure_rx_cause::tag_mismatch;
            return false;
        }
        void accept(secure_rx_status* status) {
            const bool adopted =
                chain_ != nullptr && chain_->adopt(trailer_.key_epoch);
            if (status != nullptr) {
                status->cause = secure_rx_cause::ok;
                status->adopted = adopted;
            }
        }

        // A failure discovered after decryption started: finish decrypting
        // the rest of the body into a discard destination so the tag is
        // complete, checksum the clear trailer, and classify — a
        // disagreeing tag means wrong key / tampering (tag_mismatch) and
        // outranks the structural complaint.
        template <memsim::memory_policy Mem, typename Loop>
        tcp::rx_process_result fail(const Mem& mem, Loop& loop,
                                    checksum::inet_accumulator& acc,
                                    const core::gather_source& wire,
                                    std::size_t from, secure_rx_status* status,
                                    path_counters& counters) const {
            const std::size_t body = wire.total_size() - trailer_bytes;
            if (from < body) {
                loop.run(mem, wire.slice(from, body - from),
                         core::null_dest(body - from));
                counters.fused_loop_bytes += body - from;
                counters.cipher_bytes += body - from;
            }
            detail::checksum_rest(mem, acc, wire, body, counters);
            tag_ok(status);  // else the status keeps its `malformed`
            return {acc.folded(), false};
        }

    private:
        // The flatten is raw and uncounted, like every read of the clear
        // trailer; the *counted* trailer touches are the checksum ones.
        static rpc::secure_trailer decode(const const_ring_span& t) {
            alignas(8) std::byte tmp[trailer_bytes];
            ILP_EXPECT(t.size() == trailer_bytes);
            std::memcpy(tmp, t.first.data(), t.first.size());
            if (!t.second.empty()) {
                std::memcpy(tmp + t.first.size(), t.second.data(),
                            t.second.size());
            }
            return rpc::decode_secure_trailer({tmp, trailer_bytes});
        }

        rpc::secure_trailer trailer_;
        crypto::keychain<Cipher>* chain_ = nullptr;
        std::optional<Cipher> derived_;
        const Cipher* key_;
        crypto::aead_tag_accumulator tag_;
    };
};

// ---------------------------------------------------------------------------
// Per-message framing choice

// What one message is sealed under, snapshotted when its segment is
// reserved so the fill can run later (a pipeline stage, possibly on another
// thread) under exactly that key.
template <crypto::block_cipher Cipher>
struct seal_key {
    const Cipher* cipher = nullptr;
    crypto::key_epoch epoch = 0;
    bool framed = false;  // wire v3 trailer framing
};

// The span a send opens around its fill and commit.
template <crypto::block_cipher Cipher>
const char* send_span(const seal_key<Cipher>& key, path_mode mode) noexcept {
    const path_span_names* spans = &v2_framing<Cipher>::spans;
    if constexpr (crypto::aead_capable<Cipher>) {
        if (key.framed) spans = &v3_framing<Cipher>::spans;
    }
    return mode == path_mode::ilp ? spans->send_ilp : spans->send_layered;
}

// Fills one reserved segment under the framing its key calls for.
template <memsim::memory_policy Mem, crypto::block_cipher Cipher>
std::optional<std::uint16_t> fill_segment(path_mode mode, const Mem& mem,
                                          const seal_key<Cipher>& key,
                                          const core::gather_source& src,
                                          const core::message_plan& plan,
                                          const ring_span& dst,
                                          std::span<std::byte> staging) {
    if constexpr (crypto::aead_capable<Cipher>) {
        if (key.framed) {
            return fill_framed<v3_framing<Cipher>>(mode, mem, *key.cipher,
                                                   key.epoch, src, plan, dst,
                                                   staging);
        }
    }
    return fill_framed<v2_framing<Cipher>>(mode, mem, *key.cipher, key.epoch,
                                           src, plan, dst, staging);
}

// A flow's keys and the framing they imply — what both endpoints hold.
// Plain flows run v2 under the caller's static cipher; secure flows hold a
// keychain for the reply stream and an epoch-free control key for
// requests, and run v3 unless negotiated down to v2 (then under the
// keychain's pinned epoch-0 key).
template <crypto::block_cipher Cipher>
class flow_keys {
public:
    flow_keys(const Cipher& cipher, const secure_params& params)
        : cipher_(&cipher), params_(params) {
        if constexpr (crypto::aead_capable<Cipher>) {
            if (params_.enabled) {
                chain_.emplace(params_.flow_secret);
                control_.emplace(
                    crypto::derive_control_cipher<Cipher>(params_.flow_secret));
            }
        } else {
            // Secure mode needs a KDF-derivable, tag-capable cipher.
            ILP_EXPECT(!params_.enabled);
        }
    }

    bool framed() const noexcept { return secure_framing(params_); }
    std::size_t trailer_bytes() const noexcept {
        return framed() ? rpc::secure_trailer_bytes : 0;
    }
    std::uint32_t wire_version() const noexcept {
        return framed() ? rpc::wire_version_secure : rpc::wire_version;
    }
    crypto::key_epoch current_epoch() const noexcept {
        return chain_.has_value() ? chain_->current_epoch() : 0;
    }

    // The reply stream: the keychain's current epoch key for secure flows.
    seal_key<Cipher> reply_key() const {
        return {chain_.has_value() ? &chain_->current() : cipher_,
                current_epoch(), framed()};
    }
    // Requests run under the control key; a v3 trailer carries the data
    // epoch for the server's window.
    seal_key<Cipher> request_key() const {
        return {control_.has_value() ? &*control_ : cipher_, current_epoch(),
                framed()};
    }

    // Re-centres the key window on a peer's epoch; true if it moved.
    bool adopt(crypto::key_epoch epoch) {
        if constexpr (crypto::aead_capable<Cipher>) {
            return framed() && chain_->adopt(epoch);
        } else {
            return false;
        }
    }
    // Rekey: advances the key window (secure flows only).
    void advance() {
        if constexpr (crypto::aead_capable<Cipher>) chain_->advance();
    }

    template <memsim::memory_policy Mem, typename Wire,
              reply_dest_resolver Resolver>
    tcp::rx_process_result receive_reply(path_mode mode, const Mem& mem,
                                         const Wire& wire, Resolver&& resolve,
                                         rpc::reply_header* header,
                                         secure_rx_status* status,
                                         path_counters& counters) {
        if constexpr (crypto::aead_capable<Cipher>) {
            if (framed()) {
                return receive_reply_framed<v3_framing<Cipher>>(
                    mode, mem, *chain_, wire, resolve, header, status,
                    counters);
            }
        }
        const Cipher& key = *reply_key().cipher;
        return receive_reply_framed<v2_framing<Cipher>>(
            mode, mem, key, wire, resolve, header, status, counters);
    }

    template <memsim::memory_policy Mem, typename Wire>
    tcp::rx_process_result receive_request(path_mode mode, const Mem& mem,
                                           const Wire& wire,
                                           std::span<std::byte> staging,
                                           secure_rx_status* status,
                                           path_counters& counters) const {
        const Cipher& key = *request_key().cipher;
        if constexpr (crypto::aead_capable<Cipher>) {
            if (framed()) {
                return app::receive_request<v3_framing<Cipher>>(
                    mode, mem, key, wire, staging, status, counters);
            }
        }
        return app::receive_request<v2_framing<Cipher>>(
            mode, mem, key, wire, staging, status, counters);
    }

private:
    const Cipher* cipher_;
    secure_params params_;
    std::optional<crypto::keychain<Cipher>> chain_;
    std::optional<Cipher> control_;
};

// ---------------------------------------------------------------------------
// v3 entry points (the probes and unit fixtures drive them)

template <memsim::memory_policy Mem, crypto::aead_capable Cipher>
std::uint16_t fill_message_secure_ilp(const Mem& mem, const Cipher& cipher,
                                      crypto::key_epoch epoch,
                                      const core::gather_source& src,
                                      const core::message_plan& plan,
                                      const ring_span& dst) {
    return fill_ilp<v3_framing<Cipher>>(mem, cipher, epoch, src, plan, dst);
}

template <memsim::memory_policy Mem, crypto::aead_capable Cipher,
          typename Wire, reply_dest_resolver Resolver>
tcp::rx_process_result receive_reply_secure_ilp(
    const Mem& mem, crypto::keychain<Cipher>& chain, const Wire& wire,
    Resolver&& resolve, rpc::reply_header* out_header,
    secure_rx_status* status, path_counters& counters) {
    return receive_ilp<v3_framing<Cipher>>(mem, chain, detail::as_chain(wire),
                                           resolve, out_header, status,
                                           counters);
}

template <memsim::memory_policy Mem, crypto::aead_capable Cipher,
          reply_dest_resolver Resolver>
tcp::rx_process_result receive_reply_secure_layered(
    const Mem& mem, crypto::keychain<Cipher>& chain,
    std::span<std::byte> wire, Resolver&& resolve,
    rpc::reply_header* out_header, secure_rx_status* status,
    path_counters& counters) {
    return receive_layered<v3_framing<Cipher>>(mem, chain, wire, resolve,
                                               out_header, status, counters);
}

}  // namespace ilp::app
