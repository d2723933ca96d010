// Data-manipulation stages — the unit of composition of the ILP framework.
//
// A *stage* is one protocol layer's per-unit data manipulation, stripped of
// its control processing (the paper's three-stage decomposition puts control
// before/after the loop; see tcp_receiver::input_staged).  A stage declares:
//
//   * unit_bytes             — its natural processing-unit size (XDR: 4,
//                              block ciphers: 8, Internet checksum: 2),
//   * ordering_constrained   — whether its result depends on processing
//                              order (CRC, stream ciphers: yes; checksum,
//                              block ciphers, byteswap marshalling: no), and
//   * process_unit(mem, p)   — transform/observe exactly unit_bytes bytes at
//                              p, which live in loop scratch ("registers")
//                              and are accessed directly; any table, key or
//                              buffer access goes through `mem` and is
//                              counted by the simulator.
//
// The fused pipeline (fused_pipeline.h) composes stages at compile time and
// feeds each one sub-units of the exchanged unit Le = lcm of all stage unit
// sizes (paper §2.2).
//
// Each stage additionally declares a `footprint_decl` (analysis/footprint.h)
// — granularity, bytes read/written per unit, ordering and header-size
// constraints, alignment, table working set — which the fusion-legality
// analyzer and `ilp-lint` check compositions against.  footprint_of<>
// statically cross-checks the declaration against unit_bytes /
// ordering_constrained, so the two views cannot drift apart.
#pragma once

#include <concepts>
#include <cstdint>
#include <cstring>

#include "analysis/footprint.h"
#include "checksum/crc32.h"
#include "checksum/internet_checksum.h"
#include "crypto/aead.h"
#include "crypto/block_cipher.h"
#include "memsim/mem_policy.h"
#include "util/contracts.h"
#include "util/endian.h"

namespace ilp::core {

template <typename S>
concept data_stage =
    requires(S& s, const memsim::direct_memory& mem, std::byte* unit) {
        { S::unit_bytes } -> std::convertible_to<std::size_t>;
        { S::ordering_constrained } -> std::convertible_to<bool>;
        s.process_unit(mem, unit);
    };

// ---------------------------------------------------------------------------
// Marshalling stages (the XDR data manipulation, 4-byte units)

// XDR-marshals 32-bit integers in place: converts each 4-byte word from host
// representation to big-endian wire form.  On a big-endian host this is the
// identity, exactly like real XDR.
struct xdr_encode_stage {
    static constexpr std::size_t unit_bytes = 4;
    static constexpr bool ordering_constrained = false;
    static constexpr analysis::footprint footprint_decl{
        .name = "xdr_encode",
        .unit_bytes = unit_bytes,
        .reads_per_unit = unit_bytes,
        .writes_per_unit = unit_bytes,
        .ordering_constrained = ordering_constrained,
        .length_known_before_loop = true,  // fixed 4-byte integers
        .alignment = 4,
        .aux_table_bytes = 0};

    template <memsim::memory_policy Mem>
    ILP_ALWAYS_INLINE void process_unit(const Mem& /*mem*/,
                                        std::byte* unit) const {
        std::uint32_t v;
        std::memcpy(&v, unit, 4);
        v = host_to_be32(v);
        std::memcpy(unit, &v, 4);
    }
};

// The inverse (wire big-endian -> host) used on the receive path.  Identical
// transform, distinct type so paths read correctly.
struct xdr_decode_stage {
    static constexpr std::size_t unit_bytes = 4;
    static constexpr bool ordering_constrained = false;
    static constexpr analysis::footprint footprint_decl{
        .name = "xdr_decode",
        .unit_bytes = unit_bytes,
        .reads_per_unit = unit_bytes,
        .writes_per_unit = unit_bytes,
        .ordering_constrained = ordering_constrained,
        .length_known_before_loop = true,
        .alignment = 4,
        .aux_table_bytes = 0};

    template <memsim::memory_policy Mem>
    ILP_ALWAYS_INLINE void process_unit(const Mem& /*mem*/,
                                        std::byte* unit) const {
        std::uint32_t v;
        std::memcpy(&v, unit, 4);
        v = be32_to_host(v);
        std::memcpy(unit, &v, 4);
    }
};

// Identity marshalling for opaque payloads (XDR opaque is a plain copy).
struct opaque_stage {
    static constexpr std::size_t unit_bytes = 4;
    static constexpr bool ordering_constrained = false;
    static constexpr analysis::footprint footprint_decl{
        .name = "opaque",
        .unit_bytes = unit_bytes,
        .reads_per_unit = 0,  // identity: touches nothing
        .writes_per_unit = 0,
        .ordering_constrained = ordering_constrained,
        .length_known_before_loop = true,
        .alignment = 1,
        .aux_table_bytes = 0};

    template <memsim::memory_policy Mem>
    ILP_ALWAYS_INLINE void process_unit(const Mem& /*mem*/,
                                        std::byte* /*unit*/) const {}
};

// ---------------------------------------------------------------------------
// Cipher stages (8-byte units)

template <crypto::block_cipher Cipher>
class encrypt_stage {
public:
    static constexpr std::size_t unit_bytes = Cipher::block_bytes;
    static constexpr bool ordering_constrained = false;  // ECB block mode
    static constexpr analysis::footprint footprint_decl{
        .name = "encrypt",
        .unit_bytes = unit_bytes,
        .reads_per_unit = unit_bytes,
        .writes_per_unit = unit_bytes,
        .ordering_constrained = ordering_constrained,
        .length_known_before_loop = true,  // block extent fixed by padding
        .alignment = unit_bytes,  // a block must not straddle a part cut
        .aux_table_bytes = crypto::cipher_table_bytes<Cipher>()};

    explicit encrypt_stage(const Cipher& cipher) : cipher_(&cipher) {}

    template <memsim::memory_policy Mem>
    ILP_ALWAYS_INLINE void process_unit(const Mem& mem, std::byte* unit) const {
        cipher_->encrypt_block(mem, unit);
    }

private:
    const Cipher* cipher_;
};

template <crypto::block_cipher Cipher>
class decrypt_stage {
public:
    static constexpr std::size_t unit_bytes = Cipher::block_bytes;
    static constexpr bool ordering_constrained = false;
    static constexpr analysis::footprint footprint_decl{
        .name = "decrypt",
        .unit_bytes = unit_bytes,
        .reads_per_unit = unit_bytes,
        .writes_per_unit = unit_bytes,
        .ordering_constrained = ordering_constrained,
        .length_known_before_loop = true,
        .alignment = unit_bytes,
        .aux_table_bytes = crypto::cipher_table_bytes<Cipher>()};

    explicit decrypt_stage(const Cipher& cipher) : cipher_(&cipher) {}

    template <memsim::memory_policy Mem>
    ILP_ALWAYS_INLINE void process_unit(const Mem& mem, std::byte* unit) const {
        cipher_->decrypt_block(mem, unit);
    }

private:
    const Cipher* cipher_;
};

// AEAD-shaped stages: keystream-style block transform *plus* the running
// authentication tag in the same process_unit.  The tag is accumulated over
// plaintext words (encrypt mixes before transforming, decrypt after
// inverting), and the accumulation is commutative, so neither stage is
// ordering-constrained — the out-of-order B,C,A part traversal stays legal
// with authentication in the loop.  Cost model: same memory footprint as a
// plain cipher stage (the tag lives in a register), which is exactly the
// claim bench_fig11's AEAD rows test.

template <crypto::aead_capable Cipher>
class aead_encrypt_stage {
public:
    static constexpr std::size_t unit_bytes = Cipher::block_bytes;
    static constexpr bool ordering_constrained = false;  // commutative tag
    static constexpr analysis::footprint footprint_decl{
        .name = "aead_encrypt",
        .unit_bytes = unit_bytes,
        .reads_per_unit = unit_bytes,
        .writes_per_unit = unit_bytes,
        .ordering_constrained = ordering_constrained,
        .length_known_before_loop = true,
        .alignment = unit_bytes,
        .aux_table_bytes = crypto::cipher_table_bytes<Cipher>(),
        // The accumulated tag lands in a clear 8-byte [epoch|tag] trailer
        // the framing must reserve (== rpc::secure_trailer_bytes; the
        // equality is static_asserted where both are visible,
        // app/secure_path.h).
        .trailer_bytes = 8};

    aead_encrypt_stage(const Cipher& cipher, crypto::aead_tag_accumulator& tag)
        : cipher_(&cipher), tag_(&tag) {}

    template <memsim::memory_policy Mem>
    ILP_ALWAYS_INLINE void process_unit(const Mem& mem, std::byte* unit) const {
        std::uint64_t plain;
        std::memcpy(&plain, unit, 8);
        tag_->add(cipher_->tag_mix(plain));
        cipher_->encrypt_block(mem, unit);
    }

private:
    const Cipher* cipher_;
    crypto::aead_tag_accumulator* tag_;
};

template <crypto::aead_capable Cipher>
class aead_decrypt_stage {
public:
    static constexpr std::size_t unit_bytes = Cipher::block_bytes;
    static constexpr bool ordering_constrained = false;
    static constexpr analysis::footprint footprint_decl{
        .name = "aead_decrypt",
        .unit_bytes = unit_bytes,
        .reads_per_unit = unit_bytes,
        .writes_per_unit = unit_bytes,
        .ordering_constrained = ordering_constrained,
        .length_known_before_loop = true,
        .alignment = unit_bytes,
        .aux_table_bytes = crypto::cipher_table_bytes<Cipher>(),
        // Receive side verifies the same clear trailer; the obligation is
        // symmetric so composed receive graphs must reserve it too.
        .trailer_bytes = 8};

    aead_decrypt_stage(const Cipher& cipher, crypto::aead_tag_accumulator& tag)
        : cipher_(&cipher), tag_(&tag) {}

    template <memsim::memory_policy Mem>
    ILP_ALWAYS_INLINE void process_unit(const Mem& mem, std::byte* unit) const {
        cipher_->decrypt_block(mem, unit);
        std::uint64_t plain;
        std::memcpy(&plain, unit, 8);
        tag_->add(cipher_->tag_mix(plain));
    }

private:
    const Cipher* cipher_;
    crypto::aead_tag_accumulator* tag_;
};

// ---------------------------------------------------------------------------
// Checksum taps (observe, don't modify)

// Accumulates the Internet checksum over the units flowing through the loop,
// 8 bytes at a time from the loop scratch — no memory re-read, the gain the
// paper's Le = lcm(...) rule is after (§2.2: handing 4-byte words from
// encryption to checksum doubles the write operations).
class checksum_tap8 {
public:
    static constexpr std::size_t unit_bytes = 8;
    static constexpr bool ordering_constrained = false;
    static constexpr analysis::footprint footprint_decl{
        .name = "checksum_tap8",
        .unit_bytes = unit_bytes,
        .reads_per_unit = unit_bytes,
        .writes_per_unit = 0,  // observe-only tap
        .ordering_constrained = ordering_constrained,
        .length_known_before_loop = true,
        .alignment = 2,  // 16-bit one's-complement columns
        .aux_table_bytes = 0};

    explicit checksum_tap8(checksum::inet_accumulator& acc) : acc_(&acc) {}

    template <memsim::memory_policy Mem>
    ILP_ALWAYS_INLINE void process_unit(const Mem& /*mem*/,
                                        std::byte* unit) const {
        std::uint64_t v;
        std::memcpy(&v, unit, 8);
        acc_->add_register_u64(v);
    }

private:
    checksum::inet_accumulator* acc_;
};

// 2-byte-unit variant: semantically identical, but forces the loop down to
// the checksum's natural unit.  Exists for the unit-size ablation (A2).
class checksum_tap2 {
public:
    static constexpr std::size_t unit_bytes = 2;
    static constexpr bool ordering_constrained = false;
    static constexpr analysis::footprint footprint_decl{
        .name = "checksum_tap2",
        .unit_bytes = unit_bytes,
        .reads_per_unit = unit_bytes,
        .writes_per_unit = 0,
        .ordering_constrained = ordering_constrained,
        .length_known_before_loop = true,
        .alignment = 2,
        .aux_table_bytes = 0};

    explicit checksum_tap2(checksum::inet_accumulator& acc) : acc_(&acc) {}

    template <memsim::memory_policy Mem>
    ILP_ALWAYS_INLINE void process_unit(const Mem& /*mem*/,
                                        std::byte* unit) const {
        std::uint16_t v;
        std::memcpy(&v, unit, 2);
        acc_->add_be16(host_is_little_endian() ? byteswap16(v) : v);
    }

private:
    checksum::inet_accumulator* acc_;
};

// CRC-32 tap: *ordering-constrained* (paper §2.2).  The fused pipeline still
// accepts it for strictly in-order runs, but message_plan refuses to process
// parts out of order when any stage is ordering-constrained, and the
// static ordering_constrained flag is how it knows.
class crc32_tap {
public:
    static constexpr std::size_t unit_bytes = 4;
    static constexpr bool ordering_constrained = true;
    static constexpr analysis::footprint footprint_decl{
        .name = "crc32_tap",
        .unit_bytes = unit_bytes,
        .reads_per_unit = unit_bytes,
        .writes_per_unit = 0,
        .ordering_constrained = ordering_constrained,  // serial remainder
        .length_known_before_loop = true,
        .alignment = 1,
        .aux_table_bytes = checksum::crc32::table_size_bytes};

    explicit crc32_tap(checksum::crc32& crc) : crc_(&crc) {}

    template <memsim::memory_policy Mem>
    ILP_ALWAYS_INLINE void process_unit(const Mem& mem, std::byte* unit) const {
        crc_->update_scratch(mem, unit, unit_bytes);
    }

private:
    checksum::crc32* crc_;
};

}  // namespace ilp::core
