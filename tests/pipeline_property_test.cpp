// Property tests for the ILP core: parameterized sweeps asserting the
// framework's invariants over many shapes of message, segmentation and
// stage composition.
//
//   P1  fused == layered, byte for byte and checksum for checksum, for
//       every cipher and a sweep of message sizes;
//   P2  part-order independence: any tiling of a message into 8-aligned
//       parts, processed in any order, produces the same wire image and
//       checksum (the general form of the paper's B,C,A claim);
//   P3  gather/scatter with arbitrary random segmentation round-trips and
//       equals the contiguous reference;
//   P4  slicing a gather source at every legal offset equals the full run;
//   P5  the native strip-mined loop (direct_memory) equals the paper's
//       Le-per-iteration loop (sim_memory) for every composition the stack
//       fuses, across strip edges, segment layouts and part tilings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "buffer/byte_buffer.h"
#include "checksum/crc32.h"
#include "checksum/internet_checksum.h"
#include "core/fused_pipeline.h"
#include "core/layered_path.h"
#include "core/stage.h"
#include "crypto/aead.h"
#include "crypto/safer_k64.h"
#include "crypto/safer_simplified.h"
#include "crypto/simple_cipher.h"
#include "memsim/configs.h"
#include "memsim/memory_system.h"
#include "util/rng.h"

namespace ilp::core {
namespace {

using memsim::direct_memory;

std::array<std::byte, 8> test_key(std::uint64_t seed) {
    std::array<std::byte, 8> key;
    rng r(seed);
    r.fill(key);
    return key;
}

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
    std::vector<std::byte> v(n);
    rng r(seed);
    r.fill(v);
    return v;
}

// ---------------------------------------------------------------------------
// P1: fused == layered across ciphers and sizes

template <typename Cipher>
void expect_fused_equals_layered(std::size_t n, std::uint64_t seed) {
    const auto key = test_key(seed);
    const Cipher cipher{std::span<const std::byte>(key)};
    const auto payload = random_bytes(n, seed + 1);
    const direct_memory mem;

    byte_buffer layered(n);
    marshal_to_buffer(mem, span_source(payload), layered.span());
    encrypt_stage<Cipher> enc(cipher);
    apply_stage_in_place(mem, enc, layered.span());
    checksum::inet_accumulator layered_acc;
    checksum_pass(mem, layered_acc, layered.span(), 8);

    byte_buffer fused(n);
    checksum::inet_accumulator fused_acc;
    encrypt_stage<Cipher> enc2(cipher);
    checksum_tap8 tap(fused_acc);
    auto pipe = make_pipeline(enc2, tap);
    pipe.run(mem, span_source(payload), span_dest(fused.span()));

    ASSERT_EQ(std::memcmp(layered.data(), fused.data(), n), 0)
        << "n=" << n << " seed=" << seed;
    ASSERT_EQ(layered_acc.finish(), fused_acc.finish());
}

class FusedLayeredEquivalence : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(FusedLayeredEquivalence, SaferSimplified) {
    expect_fused_equals_layered<crypto::safer_simplified>(GetParam(), 11);
}
TEST_P(FusedLayeredEquivalence, SaferFull) {
    expect_fused_equals_layered<crypto::safer_k64>(GetParam(), 22);
}
TEST_P(FusedLayeredEquivalence, SimpleCipher) {
    expect_fused_equals_layered<crypto::simple_cipher>(GetParam(), 33);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FusedLayeredEquivalence,
                         ::testing::Values(8, 16, 64, 256, 1024, 1032, 4096,
                                           16384));

// ---------------------------------------------------------------------------
// P2: arbitrary 8-aligned tilings processed in arbitrary order

TEST(PartOrderIndependence, RandomTilingsMatchLinear) {
    const auto key = test_key(44);
    const crypto::safer_simplified cipher(key);
    const direct_memory mem;
    rng r(55);

    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t n = 8 * (1 + r.next_below(64));  // 8..512 bytes
        const auto payload = random_bytes(n, 1000 + trial);

        byte_buffer linear(n);
        checksum::inet_accumulator linear_acc;
        {
            encrypt_stage<crypto::safer_simplified> enc(cipher);
            checksum_tap8 tap(linear_acc);
            auto pipe = make_pipeline(enc, tap);
            pipe.run(mem, span_source(payload), span_dest(linear.span()));
        }

        // Random tiling into 8-aligned parts.
        std::vector<std::pair<std::size_t, std::size_t>> parts;
        std::size_t offset = 0;
        while (offset < n) {
            const std::size_t len =
                std::min<std::size_t>(8 * (1 + r.next_below(8)), n - offset);
            parts.emplace_back(offset, len);
            offset += len;
        }
        // Shuffle the processing order.
        for (std::size_t i = parts.size(); i > 1; --i) {
            std::swap(parts[i - 1], parts[r.next_below(i)]);
        }

        byte_buffer tiled(n);
        checksum::inet_accumulator tiled_acc;
        {
            encrypt_stage<crypto::safer_simplified> enc(cipher);
            checksum_tap8 tap(tiled_acc);
            auto pipe = make_pipeline(enc, tap);
            const gather_source whole = span_source(payload);
            const scatter_dest dest = span_dest(tiled.span());
            for (const auto& [part_offset, part_len] : parts) {
                pipe.run(mem, whole.slice(part_offset, part_len),
                         dest.slice(part_offset, part_len));
            }
        }
        ASSERT_EQ(std::memcmp(linear.data(), tiled.data(), n), 0)
            << "trial " << trial;
        ASSERT_EQ(linear_acc.finish(), tiled_acc.finish()) << "trial " << trial;
    }
}

// ---------------------------------------------------------------------------
// P3: random gather/scatter segmentation round-trips

TEST(GatherScatterProperty, RandomSegmentationRoundTrips) {
    const direct_memory mem;
    rng r(66);

    for (int trial = 0; trial < 50; ++trial) {
        // Application data: a mix of word fields and opaque chunks.
        const std::size_t word_fields = 1 + r.next_below(4);
        std::vector<std::uint32_t> ints_in(word_fields);
        for (auto& v : ints_in) v = r.next_u32();
        const std::size_t opaque_len = 8 * (1 + r.next_below(32));
        const auto opaque_in = random_bytes(opaque_len, 2000 + trial);
        const std::size_t pad = 8 * r.next_below(3);

        gather_source src;
        src.add({reinterpret_cast<const std::byte*>(ints_in.data()),
                 word_fields * 4},
                segment_op::xdr_words);
        src.add(opaque_in);
        if (pad > 0) src.add_zeros(pad);
        const std::size_t total = src.total_size();

        // Reference wire image via the cursor.
        byte_buffer wire(total);
        gather_cursor cur(src);
        cur.fill(mem, wire.data(), total);

        // Scatter back into fresh application memory.
        std::vector<std::uint32_t> ints_out(word_fields);
        byte_buffer opaque_out(opaque_len);
        scatter_dest dst;
        dst.add({reinterpret_cast<std::byte*>(ints_out.data()),
                 word_fields * 4},
                segment_op::xdr_words);
        dst.add(opaque_out.span());
        if (pad > 0) dst.add_discard(pad);

        // Drain in random chunk sizes.
        scatter_cursor out(dst);
        std::size_t pos = 0;
        while (pos < total) {
            const std::size_t chunk =
                std::min<std::size_t>(4 * (1 + r.next_below(8)), total - pos);
            out.drain(mem, wire.data() + pos, chunk);
            pos += chunk;
        }

        ASSERT_EQ(ints_in, ints_out) << "trial " << trial;
        ASSERT_EQ(std::memcmp(opaque_in.data(), opaque_out.data(), opaque_len),
                  0)
            << "trial " << trial;
    }
}

// ---------------------------------------------------------------------------
// P4: every legal slice pair reproduces the full run

TEST(SliceProperty, EverySplitPointMatchesFullRun) {
    const direct_memory mem;
    const auto a = random_bytes(24, 70);
    const auto b = random_bytes(40, 71);

    gather_source src;
    src.add(a, segment_op::xdr_words);
    src.add(b);
    src.add_zeros(16);
    const std::size_t total = src.total_size();

    byte_buffer full(total);
    gather_cursor cur(src);
    cur.fill(mem, full.data(), total);

    for (std::size_t split = 4; split < total; split += 4) {
        byte_buffer parts(total);
        const gather_source head = src.slice(0, split);
        const gather_source tail = src.slice(split, total - split);
        gather_cursor hc(head), tc(tail);
        hc.fill(mem, parts.data(), split);
        tc.fill(mem, parts.data() + split, total - split);
        ASSERT_EQ(std::memcmp(full.data(), parts.data(), total), 0)
            << "split at " << split;
    }
}

// ---------------------------------------------------------------------------
// Checksum taps at different unit sizes agree

TEST(ChecksumTapProperty, Tap2AndTap8Agree) {
    const direct_memory mem;
    for (const std::size_t n : {8u, 64u, 1024u}) {
        const auto payload = random_bytes(n, 80 + n);
        byte_buffer out2(n), out8(n);

        checksum::inet_accumulator acc2, acc8;
        checksum_tap2 tap2(acc2);
        checksum_tap8 tap8(acc8);
        auto pipe2 = make_pipeline(tap2);
        auto pipe8 = make_pipeline(tap8);
        pipe2.run(mem, span_source(payload), span_dest(out2.span()));
        pipe8.run(mem, span_source(payload), span_dest(out8.span()));
        EXPECT_EQ(acc2.finish(), acc8.finish()) << "n=" << n;
        EXPECT_EQ(std::memcmp(out2.data(), out8.data(), n), 0);
    }
}

// ---------------------------------------------------------------------------
// P5: the native strip-mined loop equals the paper's Le loop
//
// Each composition runs twice on identical inputs: under direct_memory
// (strips of S bytes) and under sim_memory (one Le unit per iteration).
// Output bytes and every accumulator the composition feeds must agree.

using send_loop_v2 =
    fused_pipeline<encrypt_stage<crypto::safer_simplified>, checksum_tap8>;
constexpr std::size_t strip_s = send_loop_v2::strip_bytes;
constexpr std::size_t unit_le = send_loop_v2::unit_bytes;

struct strip_result {
    std::vector<std::byte> out;
    std::vector<std::uint64_t> acc;
};

using tiling = std::vector<std::pair<std::size_t, std::size_t>>;

// Message lengths from 0 to 3·S: the strip edges S−Le, S, S+Le (and their
// multiples) plus seeded random lengths.
std::vector<std::size_t> strip_lengths(rng& r) {
    std::vector<std::size_t> out = {0, unit_le, 2 * unit_le};
    for (std::size_t k = 1; k <= 3; ++k) {
        out.push_back(k * strip_s - unit_le);
        out.push_back(k * strip_s);
        if (k < 3) out.push_back(k * strip_s + unit_le);
    }
    for (int i = 0; i < 8; ++i) {
        out.push_back(unit_le * r.next_below(3 * strip_s / unit_le + 1));
    }
    return out;
}

struct layout_segment {
    std::size_t offset = 0;
    std::size_t len = 0;
    segment_op op = segment_op::copy;
};

// Up to max_segments segments at byte-granular cuts; xdr_words only where
// both ends fall on a word boundary, as marshalled integers do.
std::vector<layout_segment> random_layout(rng& r, std::size_t n) {
    std::vector<layout_segment> layout;
    if (n == 0) return layout;
    std::vector<std::size_t> cuts = {0, n};
    const std::size_t count = 1 + r.next_below(max_segments);
    for (std::size_t i = 1; i < count; ++i) cuts.push_back(r.next_below(n));
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
        const std::size_t a = cuts[i];
        const std::size_t b = cuts[i + 1];
        const bool words = a % 4 == 0 && b % 4 == 0;
        const auto pick = r.next_below(words ? 3 : 2);
        layout.push_back({a, b - a,
                          pick == 0   ? segment_op::copy
                          : pick == 1 ? segment_op::zeros
                                      : segment_op::xdr_words});
    }
    return layout;
}

gather_source make_source(const std::vector<layout_segment>& layout,
                          std::span<const std::byte> data) {
    gather_source src;
    for (const auto& s : layout) {
        if (s.op == segment_op::zeros) {
            src.add_zeros(s.len);
        } else {
            src.add(data.subspan(s.offset, s.len), s.op);
        }
    }
    return src;
}

scatter_dest make_dest(const std::vector<layout_segment>& layout,
                       std::span<std::byte> data) {
    scatter_dest dst;
    for (const auto& s : layout) {
        if (s.op == segment_op::zeros) {
            dst.add_discard(s.len);
        } else {
            dst.add(data.subspan(s.offset, s.len), s.op);
        }
    }
    return dst;
}

// A ring destination wrapping at a random byte.
scatter_dest wrapped_dest(rng& r, std::span<std::byte> data) {
    const std::size_t wrap = r.next_below(data.size() + 1);
    return ring_dest({data.first(wrap), data.subspan(wrap)});
}

// Parts of Le..2·S bytes (so they straddle strip edges), shuffled unless
// the composition is ordering-constrained.
tiling random_tiling(rng& r, std::size_t n, bool shuffle) {
    tiling parts;
    for (std::size_t off = 0; off < n;) {
        const std::size_t len = std::min<std::size_t>(
            unit_le * (1 + r.next_below(2 * strip_s / unit_le)), n - off);
        parts.emplace_back(off, len);
        off += len;
    }
    if (shuffle) {
        for (std::size_t i = parts.size(); i > 1; --i) {
            std::swap(parts[i - 1], parts[r.next_below(i)]);
        }
    }
    return parts;
}

template <typename Pipe, memsim::memory_policy Mem>
void run_tiled(Pipe& pipe, const Mem& mem, const gather_source& src,
               const scatter_dest& dst, const tiling& parts) {
    for (const auto& [off, len] : parts) {
        pipe.run(mem, src.slice(off, len), dst.slice(off, len));
    }
}

std::vector<std::byte> prefilled(std::size_t n) {
    return std::vector<std::byte>(n, std::byte{0xa5});
}

// Runs `run_case(mem, case_seed, n)` natively and under the simulator for
// every length, with the same case seed on both sides.
template <typename Case>
void expect_strip_equals_le(std::uint64_t seed, Case run_case) {
    rng r(seed);
    memsim::memory_system sys(memsim::test_tiny());
    const memsim::sim_memory sim(sys);
    for (const std::size_t n : strip_lengths(r)) {
        const std::uint64_t case_seed = r.next_u64();
        const strip_result native = run_case(direct_memory{}, case_seed, n);
        const strip_result paper = run_case(sim, case_seed, n);
        ASSERT_EQ(native.out, paper.out)
            << "seed=" << seed << " case_seed=" << case_seed << " n=" << n;
        ASSERT_EQ(native.acc, paper.acc)
            << "seed=" << seed << " case_seed=" << case_seed << " n=" << n;
    }
}

constexpr std::uint64_t strip_seeds[] = {1, 2, 3, 4};

TEST(StripEqualsLe, V2SendEncryptChecksum) {
    const auto key = test_key(101);
    const crypto::safer_simplified cipher{std::span<const std::byte>(key)};
    for (const std::uint64_t seed : strip_seeds) {
        expect_strip_equals_le(seed, [&](const auto& mem, std::uint64_t s,
                                         std::size_t n) {
            rng r(s);
            const auto app = random_bytes(n, r.next_u64());
            const gather_source src = make_source(random_layout(r, n), app);
            auto ring = prefilled(n);
            const scatter_dest dst = wrapped_dest(r, ring);
            checksum::inet_accumulator acc;
            encrypt_stage<crypto::safer_simplified> enc(cipher);
            checksum_tap8 tap(acc);
            auto pipe = make_pipeline(enc, tap);
            run_tiled(pipe, mem, src, dst, random_tiling(r, n, true));
            return strip_result{ring, {acc.finish()}};
        });
    }
}

TEST(StripEqualsLe, V3AeadSend) {
    std::array<std::byte, crypto::aead_cipher::key_bytes> key;
    rng(102).fill(key);
    const crypto::aead_cipher cipher{std::span<const std::byte>(key)};
    for (const std::uint64_t seed : strip_seeds) {
        expect_strip_equals_le(seed, [&](const auto& mem, std::uint64_t s,
                                         std::size_t n) {
            rng r(s);
            const auto app = random_bytes(n, r.next_u64());
            const gather_source src = make_source(random_layout(r, n), app);
            auto ring = prefilled(n);
            const scatter_dest dst = wrapped_dest(r, ring);
            checksum::inet_accumulator acc;
            crypto::aead_tag_accumulator tag;
            aead_encrypt_stage<crypto::aead_cipher> enc(cipher, tag);
            checksum_tap8 tap(acc);
            auto pipe = make_pipeline(enc, tap);
            run_tiled(pipe, mem, src, dst, random_tiling(r, n, true));
            return strip_result{ring, {acc.finish(), tag.sum}};
        });
    }
}

// The receive loop: checksum tap over the ciphertext, then decrypt, reading
// a two-span chain (the receive-ring wrap) into a scattered destination.
// `make_decrypt(tag)` builds the decrypt stage, feeding `tag` if it has one.
template <typename MakeDecrypt>
void expect_receive_strip_equals_le(MakeDecrypt make_decrypt) {
    for (const std::uint64_t seed : strip_seeds) {
        expect_strip_equals_le(seed, [&](const auto& mem, std::uint64_t s,
                                         std::size_t n) {
            rng r(s);
            const auto wire = random_bytes(n, r.next_u64());
            const std::size_t wrap = r.next_below(n + 1);
            const std::span<const std::byte> w(wire);
            const gather_source src =
                chain_source({w.first(wrap), w.subspan(wrap)});
            auto app = prefilled(n);
            const scatter_dest dst = make_dest(random_layout(r, n), app);
            checksum::inet_accumulator acc;
            crypto::aead_tag_accumulator tag;
            checksum_tap8 tap(acc);
            auto dec = make_decrypt(tag);
            auto pipe = make_pipeline(tap, dec);
            run_tiled(pipe, mem, src, dst, random_tiling(r, n, true));
            return strip_result{app, {acc.finish(), tag.sum}};
        });
    }
}

TEST(StripEqualsLe, V2ReceiveTapDecryptOverWrap) {
    const auto key = test_key(103);
    const crypto::safer_simplified cipher{std::span<const std::byte>(key)};
    expect_receive_strip_equals_le([&](crypto::aead_tag_accumulator&) {
        return decrypt_stage<crypto::safer_simplified>(cipher);
    });
}

TEST(StripEqualsLe, V3ReceiveTapAeadDecryptOverWrap) {
    std::array<std::byte, crypto::aead_cipher::key_bytes> key;
    rng(104).fill(key);
    const crypto::aead_cipher cipher{std::span<const std::byte>(key)};
    expect_receive_strip_equals_le([&](crypto::aead_tag_accumulator& tag) {
        return aead_decrypt_stage<crypto::aead_cipher>(cipher, tag);
    });
}

// The send path's trailer loop: a copy with the checksum tap riding along.
TEST(StripEqualsLe, TrailerCopyLoop) {
    for (const std::uint64_t seed : strip_seeds) {
        expect_strip_equals_le(seed, [](const auto& mem, std::uint64_t s,
                                        std::size_t n) {
            rng r(s);
            const auto trailer = random_bytes(n, r.next_u64());
            auto ring = prefilled(n);
            const scatter_dest dst = wrapped_dest(r, ring);
            checksum::inet_accumulator acc;
            opaque_stage copy;
            checksum_tap8 tap(acc);
            auto pipe = make_pipeline(copy, tap);
            run_tiled(pipe, mem, span_source(trailer), dst,
                      random_tiling(r, n, true));
            return strip_result{ring, {acc.finish()}};
        });
    }
}

// An ordering-constrained tap: parts strictly in order, CRC over ciphertext.
TEST(StripEqualsLe, EncryptCrc32InOrder) {
    const auto key = test_key(105);
    const crypto::safer_simplified cipher{std::span<const std::byte>(key)};
    for (const std::uint64_t seed : strip_seeds) {
        expect_strip_equals_le(seed, [&](const auto& mem, std::uint64_t s,
                                         std::size_t n) {
            rng r(s);
            const auto app = random_bytes(n, r.next_u64());
            const gather_source src = make_source(random_layout(r, n), app);
            auto out = prefilled(n);
            checksum::crc32 crc;
            encrypt_stage<crypto::safer_simplified> enc(cipher);
            crc32_tap tap(crc);
            auto pipe = make_pipeline(enc, tap);
            static_assert(decltype(pipe)::ordering_constrained);
            run_tiled(pipe, mem, src, span_dest(out),
                      random_tiling(r, n, false));
            return strip_result{out, {crc.value()}};
        });
    }
}

// The layered path's single-stage passes: marshal a gathered message into a
// contiguous buffer, unmarshal a contiguous wire image into scattered fields.
TEST(StripEqualsLe, LayeredMarshalUnmarshal) {
    for (const std::uint64_t seed : strip_seeds) {
        expect_strip_equals_le(seed, [](const auto& mem, std::uint64_t s,
                                        std::size_t n) {
            rng r(s);
            const auto app = random_bytes(n, r.next_u64());
            const auto wire = random_bytes(n, r.next_u64());
            auto out = prefilled(2 * n);
            const std::span<std::byte> o(out);
            marshal_to_buffer(mem, make_source(random_layout(r, n), app),
                              o.first(n));
            unmarshal_from_buffer(mem, wire,
                                  make_dest(random_layout(r, n), o.subspan(n)));
            return strip_result{out, {}};
        });
    }
}

}  // namespace
}  // namespace ilp::core
