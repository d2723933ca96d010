// The SAFER exponential/logarithm tables (Massey, "SAFER K-64: A
// Byte-Oriented Block-Ciphering Algorithm").
//
// exp_table[i] = 45^i mod 257 (mod 256), so exp_table[128] = 256 mod 256 = 0,
// and log_table is its inverse permutation (log_table[0] = 128).
//
// These two 256-byte tables are the heart of the paper's cache analysis
// (§4.2): every encrypted byte costs a data-dependent table read, and in the
// ILP case the tables compete for cache lines with packet data between
// 8-byte units, which is why ILP *raises* the miss ratio with this cipher.
// Table reads therefore go through the memory-access policy.
//
// The tables are computed at compile time and live in read-only data, so
// the per-block accessors are plain address computations: no call and no
// initialisation guard on the cipher's data path.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ilp::crypto {

struct safer_table_pair {
    alignas(8) std::uint8_t exp[256];
    alignas(8) std::uint8_t log[256];
};

constexpr safer_table_pair make_safer_tables() noexcept {
    safer_table_pair t{};
    std::uint32_t v = 1;
    for (std::size_t i = 0; i < 256; ++i) {
        t.exp[i] = static_cast<std::uint8_t>(v & 0xff);
        t.log[t.exp[i]] = static_cast<std::uint8_t>(i);
        v = v * 45 % 257;
    }
    return t;
}

inline constexpr safer_table_pair safer_tables = make_safer_tables();

namespace detail {
constexpr bool safer_log_inverts_exp() noexcept {
    for (std::size_t i = 0; i < 256; ++i) {
        if (safer_tables.log[safer_tables.exp[i]] != i) return false;
    }
    return true;
}
}  // namespace detail

static_assert(safer_tables.exp[0] == 1);
static_assert(safer_tables.exp[128] == 0);
static_assert(safer_tables.log[0] == 128);
static_assert(detail::safer_log_inverts_exp(),
              "exp must be a permutation with log as its inverse");

// 256-byte tables, 8-byte aligned, viewed as raw bytes so any memory policy
// can read them.
inline const std::byte* safer_exp_table() noexcept {
    return reinterpret_cast<const std::byte*>(safer_tables.exp);
}
inline const std::byte* safer_log_table() noexcept {
    return reinterpret_cast<const std::byte*>(safer_tables.log);
}

// Direct (uncounted) table access, for key-schedule computation which the
// paper performs once at connection setup, outside the measured data path.
constexpr std::uint8_t safer_exp(std::uint8_t x) noexcept {
    return safer_tables.exp[x];
}
constexpr std::uint8_t safer_log(std::uint8_t x) noexcept {
    return safer_tables.log[x];
}

}  // namespace ilp::crypto
