// Tests for the ILP core: message-part planning, gather/scatter cursors,
// the fused pipeline (including out-of-order part processing and ILP vs.
// layered equivalence), the dynamic pipeline and word filters.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "buffer/byte_buffer.h"
#include "checksum/internet_checksum.h"
#include "core/dynamic_pipeline.h"
#include "core/fused_pipeline.h"
#include "core/gather.h"
#include "core/layered_path.h"
#include "core/message_plan.h"
#include "core/stage.h"
#include "core/word_filter.h"
#include "crypto/safer_simplified.h"
#include "crypto/simple_cipher.h"
#include "memsim/configs.h"
#include "util/rng.h"

namespace ilp::core {
namespace {

using checksum::inet_accumulator;
using crypto::safer_simplified;
using memsim::direct_memory;
using memsim::sim_memory;

std::array<std::byte, 8> test_key() {
    std::array<std::byte, 8> key;
    rng r(0xbeef);
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
// message_plan

TEST(MessagePlan, DegenerateMessageIsOnlyPartA) {
    const message_plan plan = plan_parts(4);  // header only
    EXPECT_EQ(plan.total_bytes, 8u);
    EXPECT_EQ(plan.padding_bytes, 4u);
    EXPECT_EQ(plan.part_a.offset, 0u);
    EXPECT_EQ(plan.part_a.len, 8u);
    EXPECT_TRUE(plan.part_b.empty());
    EXPECT_TRUE(plan.part_c.empty());
}

TEST(MessagePlan, TwoBlockMessageHasEmptyB) {
    const message_plan plan = plan_parts(13);  // pads to 16
    EXPECT_EQ(plan.total_bytes, 16u);
    EXPECT_EQ(plan.padding_bytes, 3u);
    EXPECT_EQ(plan.part_a.len, 8u);
    EXPECT_TRUE(plan.part_b.empty());
    EXPECT_EQ(plan.part_c.offset, 8u);
    EXPECT_EQ(plan.part_c.len, 8u);
}

TEST(MessagePlan, GeneralMessageSplitsAtBetaAndGamma) {
    const message_plan plan = plan_parts(100);  // pads to 104
    EXPECT_EQ(plan.total_bytes, 104u);
    EXPECT_EQ(plan.part_a.offset, 0u);
    EXPECT_EQ(plan.part_a.len, 8u);
    EXPECT_EQ(plan.part_b.offset, 8u);
    EXPECT_EQ(plan.part_b.len, 88u);
    EXPECT_EQ(plan.part_c.offset, 96u);
    EXPECT_EQ(plan.part_c.len, 8u);
    // Parts tile the message exactly.
    EXPECT_EQ(plan.part_a.len + plan.part_b.len + plan.part_c.len,
              plan.total_bytes);
}

TEST(MessagePlan, PartsCoverAllSizesWithoutGaps) {
    for (std::size_t n = 4; n < 600; ++n) {
        const message_plan plan = plan_parts(n);
        EXPECT_EQ(plan.total_bytes % encryption_unit_bytes, 0u);
        EXPECT_GE(plan.total_bytes, n);
        EXPECT_LT(plan.total_bytes - n, encryption_unit_bytes);
        std::vector<bool> covered(plan.total_bytes, false);
        for (const message_part& part : plan.ilp_order()) {
            for (std::size_t i = 0; i < part.len; ++i) {
                EXPECT_FALSE(covered[part.offset + i]) << "n=" << n;
                covered[part.offset + i] = true;
            }
        }
        for (std::size_t i = 0; i < plan.total_bytes; ++i) {
            EXPECT_TRUE(covered[i]) << "n=" << n << " byte " << i;
        }
    }
}

// ---------------------------------------------------------------------------
// gather/scatter

TEST(Gather, FillAppliesSegmentTransforms) {
    const std::uint32_t host_words[2] = {0x01020304u, 0xa0b0c0d0u};
    const auto opaque = random_bytes(8, 1);
    gather_source src;
    src.add({reinterpret_cast<const std::byte*>(host_words), 8},
            segment_op::xdr_words);
    src.add(opaque);
    src.add_zeros(4);
    EXPECT_EQ(src.total_size(), 20u);

    gather_cursor cur(src);
    std::byte out[20];
    cur.fill(direct_memory{}, out, 20);
    // xdr_words produced big-endian words.
    EXPECT_EQ(std::to_integer<int>(out[0]), 0x01);
    EXPECT_EQ(std::to_integer<int>(out[3]), 0x04);
    EXPECT_EQ(std::to_integer<int>(out[4]), 0xa0);
    // opaque copied verbatim.
    EXPECT_EQ(std::memcmp(out + 8, opaque.data(), 8), 0);
    // zeros generated.
    for (int i = 16; i < 20; ++i) EXPECT_EQ(out[i], std::byte{0});
}

TEST(Gather, FillAcrossSegmentBoundariesInOddChunks) {
    const auto a = random_bytes(10, 2);
    const auto b = random_bytes(14, 3);
    gather_source src;
    src.add(a);
    src.add(b);
    gather_cursor cur(src);
    std::byte out[24];
    cur.fill(direct_memory{}, out, 5);
    cur.fill(direct_memory{}, out + 5, 7);
    cur.fill(direct_memory{}, out + 12, 12);
    EXPECT_EQ(std::memcmp(out, a.data(), 10), 0);
    EXPECT_EQ(std::memcmp(out + 10, b.data(), 14), 0);
}

TEST(Gather, SliceRespectsOffsets) {
    const auto data = random_bytes(32, 4);
    gather_source src;
    src.add({data.data(), 16});
    src.add_zeros(8);
    src.add({data.data() + 16, 16});
    const gather_source mid = src.slice(8, 24);  // tail of seg0, zeros, head of seg2
    EXPECT_EQ(mid.total_size(), 24u);
    gather_cursor cur(mid);
    std::byte out[24];
    cur.fill(direct_memory{}, out, 24);
    EXPECT_EQ(std::memcmp(out, data.data() + 8, 8), 0);
    for (int i = 8; i < 16; ++i) EXPECT_EQ(out[i], std::byte{0});
    EXPECT_EQ(std::memcmp(out + 16, data.data() + 16, 8), 0);
}

TEST(Scatter, DrainRoutesAndDiscards) {
    std::uint32_t host_words[2] = {0, 0};
    byte_buffer opaque(8);
    scatter_dest dst;
    dst.add({reinterpret_cast<std::byte*>(host_words), 8},
            segment_op::xdr_words);
    dst.add(opaque.span());
    dst.add_discard(4);

    // Wire image: two BE words + 8 opaque bytes + 4 padding bytes.
    std::byte wire[20];
    store_be32(wire, 0x11223344u);
    store_be32(wire + 4, 0x55667788u);
    const auto payload = random_bytes(8, 5);
    std::memcpy(wire + 8, payload.data(), 8);
    std::memset(wire + 16, 0xee, 4);

    scatter_cursor cur(dst);
    cur.drain(direct_memory{}, wire, 20);
    EXPECT_EQ(host_words[0], 0x11223344u);
    EXPECT_EQ(host_words[1], 0x55667788u);
    EXPECT_EQ(std::memcmp(opaque.data(), payload.data(), 8), 0);
}

TEST(GatherScatter, RoundTripThroughWireForm) {
    // marshal (gather) then unmarshal (scatter) restores the application
    // data exactly, including int fields on either endianness.
    const std::uint32_t ints_in[3] = {1, 0xdeadbeefu, 42};
    const auto opaque_in = random_bytes(12, 6);
    gather_source src;
    src.add({reinterpret_cast<const std::byte*>(ints_in), 12},
            segment_op::xdr_words);
    src.add(opaque_in);

    byte_buffer wire(24);
    gather_cursor in(src);
    in.fill(direct_memory{}, wire.data(), 24);

    std::uint32_t ints_out[3] = {};
    byte_buffer opaque_out(12);
    scatter_dest dst;
    dst.add({reinterpret_cast<std::byte*>(ints_out), 12},
            segment_op::xdr_words);
    dst.add(opaque_out.span());
    scatter_cursor out(dst);
    out.drain(direct_memory{}, wire.data(), 24);

    EXPECT_EQ(std::memcmp(ints_in, ints_out, 12), 0);
    EXPECT_EQ(std::memcmp(opaque_in.data(), opaque_out.data(), 12), 0);
}

// ---------------------------------------------------------------------------
// fused pipeline

TEST(FusedPipeline, UnitBytesIsLcmWithLs) {
    EXPECT_EQ((fused_pipeline<checksum_tap8>::unit_bytes), 8u);
    EXPECT_EQ((fused_pipeline<>::unit_bytes), 8u);  // Ls alone
    EXPECT_EQ((fused_pipeline<xdr_encode_stage>::unit_bytes), 8u);
    using enc = encrypt_stage<safer_simplified>;
    EXPECT_EQ((fused_pipeline<enc, checksum_tap2>::unit_bytes), 8u);
}

TEST(FusedPipeline, OrderingConstraintPropagates) {
    EXPECT_FALSE((fused_pipeline<xdr_encode_stage, checksum_tap8>::
                      ordering_constrained));
    EXPECT_TRUE((fused_pipeline<crc32_tap>::ordering_constrained));
}

TEST(FusedPipeline, EncryptChecksumCopyMatchesLayeredPath) {
    // The central equivalence: the fused ILP loop must produce byte-for-byte
    // the same wire data and the same checksum as the layered non-ILP
    // implementation.
    const auto key = test_key();
    const safer_simplified cipher(key);
    const auto payload = random_bytes(256, 7);
    direct_memory mem;

    // Layered: marshal pass, encrypt pass (in place), checksum pass.
    byte_buffer staged(256);
    marshal_to_buffer(mem, span_source(payload), staged.span());
    encrypt_stage<safer_simplified> enc_stage(cipher);
    apply_stage_in_place(mem, enc_stage, staged.span());
    inet_accumulator layered_acc;
    checksum_pass(mem, layered_acc, staged.span());

    // Fused: one loop.
    byte_buffer fused_out(256);
    inet_accumulator fused_acc;
    encrypt_stage<safer_simplified> enc2(cipher);
    checksum_tap8 tap(fused_acc);
    auto pipe = make_pipeline(enc2, tap);
    pipe.run(mem, span_source(payload), span_dest(fused_out.span()));

    EXPECT_EQ(std::memcmp(staged.data(), fused_out.data(), 256), 0);
    EXPECT_EQ(layered_acc.finish(), fused_acc.finish());
}

TEST(FusedPipeline, DecryptInverseRestoresPayload) {
    const auto key = test_key();
    const safer_simplified cipher(key);
    const auto payload = random_bytes(128, 8);
    direct_memory mem;

    byte_buffer wire(128);
    encrypt_stage<safer_simplified> enc(cipher);
    auto enc_pipe = make_pipeline(enc);
    enc_pipe.run(mem, span_source(payload), span_dest(wire.span()));

    byte_buffer restored(128);
    decrypt_stage<safer_simplified> dec(cipher);
    auto dec_pipe = make_pipeline(dec);
    dec_pipe.run(mem, span_source(wire.span()), span_dest(restored.span()));

    EXPECT_EQ(std::memcmp(restored.data(), payload.data(), 128), 0);
}

TEST(FusedPipeline, OutOfOrderPartsMatchLinearProcessing) {
    // Paper §3.2.2: with non-ordering-constrained stages, processing parts
    // B, C, A out of order yields the same wire bytes and checksum as a
    // straight linear pass.
    const auto key = test_key();
    const safer_simplified cipher(key);
    const auto message = random_bytes(96, 9);
    direct_memory mem;

    byte_buffer linear_out(96);
    inet_accumulator linear_acc;
    {
        encrypt_stage<safer_simplified> enc(cipher);
        checksum_tap8 tap(linear_acc);
        auto pipe = make_pipeline(enc, tap);
        pipe.run(mem, span_source(message), span_dest(linear_out.span()));
    }

    byte_buffer parts_out(96);
    inet_accumulator parts_acc;
    {
        encrypt_stage<safer_simplified> enc(cipher);
        checksum_tap8 tap(parts_acc);
        auto pipe = make_pipeline(enc, tap);
        static_assert(!decltype(pipe)::ordering_constrained);
        const message_plan plan = plan_parts(90);  // pads to 96
        const gather_source whole = span_source(message);
        const scatter_dest whole_dst = span_dest(parts_out.span());
        for (const message_part& part : plan.ilp_order()) {
            if (part.empty()) continue;
            const gather_source part_src = whole.slice(part.offset, part.len);
            const scatter_dest part_dst = whole_dst.slice(part.offset, part.len);
            pipe.run(mem, part_src, part_dst);
        }
    }

    EXPECT_EQ(std::memcmp(linear_out.data(), parts_out.data(), 96), 0);
    EXPECT_EQ(linear_acc.finish(), parts_acc.finish());
}

TEST(FusedPipeline, RingDestinationHandlesWrap) {
    const auto payload = random_bytes(64, 10);
    ring_buffer ring(96);
    // Push+release to force the next reservation to wrap.
    ring.push(random_bytes(80, 11));
    ring.release(80);
    const ring_span reservation = ring.reserve_tail(64);
    ASSERT_FALSE(reservation.second.empty());  // really wraps

    direct_memory mem;
    fused_pipeline<> copy_pipe;
    copy_pipe.run(mem, span_source(payload), ring_dest(reservation));
    ring.commit_tail(64);

    std::vector<std::byte> out(64);
    ring.copy_out(0, out);
    EXPECT_EQ(out, payload);
}

TEST(FusedPipeline, ChainSourceFeedsWrappedRingPeekThroughLoop) {
    // The zero-copy receive shape: a fused loop pulling straight from a
    // two-piece ring view (the loan datagram_pipe hands out), no staging
    // copy in between.
    const auto payload = random_bytes(64, 12);
    ring_buffer ring(96);
    ring.push(random_bytes(80, 13));
    ring.release(80);
    ring.push(payload);
    const const_ring_span view = ring.peek(0, 64);
    ASSERT_FALSE(view.second.empty());  // really wraps

    direct_memory mem;
    fused_pipeline<> copy_pipe;
    std::vector<std::byte> out(64);
    copy_pipe.run(mem, chain_source(view), span_dest(out));
    EXPECT_EQ(out, payload);

    // Slicing the chain source cuts at logical offsets across the wrap.
    const gather_source src = chain_source(view);
    std::vector<std::byte> tail(24);
    copy_pipe.run(mem, src.slice(40, 24), span_dest(tail));
    EXPECT_EQ(tail, std::vector<std::byte>(payload.begin() + 40,
                                           payload.end()));
}

TEST(FusedPipeline, IlpReducesMemoryAccessesVsLayered) {
    // The paper's headline effect (Fig. 13): the fused loop reads the data
    // once and writes it once, while the layered path pays a read+write per
    // layer.  Verify with exact simulated counts.
    const auto key = test_key();
    const safer_simplified cipher(key);
    constexpr std::size_t n = 1024;
    const auto payload = random_bytes(n, 12);

    memsim::memory_system sys(memsim::supersparc_with_l2());
    sim_memory mem(sys);

    // Layered: marshal (r+w) + encrypt (r+w) + checksum (r).
    byte_buffer staged(n);
    marshal_to_buffer(mem, span_source(payload), staged.span());
    encrypt_stage<safer_simplified> enc(cipher);
    apply_stage_in_place(mem, enc, staged.span());
    inet_accumulator acc;
    checksum_pass(mem, acc, staged.span());
    const std::uint64_t layered_ops = sys.data_stats().total_accesses();
    const std::uint64_t layered_bytes =
        sys.data_stats().reads.total_bytes() +
        sys.data_stats().writes.total_bytes();

    sys.reset(true);
    byte_buffer out(n);
    inet_accumulator acc2;
    encrypt_stage<safer_simplified> enc2(cipher);
    checksum_tap8 tap(acc2);
    auto pipe = make_pipeline(enc2, tap);
    pipe.run(mem, span_source(payload), span_dest(out.span()));
    const std::uint64_t fused_ops = sys.data_stats().total_accesses();
    const std::uint64_t fused_bytes = sys.data_stats().reads.total_bytes() +
                                      sys.data_stats().writes.total_bytes();

    EXPECT_EQ(acc.finish(), acc2.finish());
    EXPECT_EQ(std::memcmp(staged.data(), out.data(), n), 0);

    // Cipher table/key traffic (2 one-byte reads per byte) is identical in
    // both; the packet-data traffic drops from 3 reads + 2 writes to
    // 1 read + 1 write of n bytes each.
    EXPECT_EQ(layered_bytes - fused_bytes, 3 * n);
    EXPECT_LT(fused_ops, layered_ops);
}

// ---------------------------------------------------------------------------
// dynamic pipeline and word filters

TEST(DynamicPipeline, MatchesFusedResult) {
    const auto key = test_key();
    const safer_simplified cipher(key);
    const auto payload = random_bytes(256, 13);
    direct_memory mem;

    byte_buffer fused_out(256);
    inet_accumulator fused_acc;
    encrypt_stage<safer_simplified> enc(cipher);
    checksum_tap8 tap(fused_acc);
    auto pipe = make_pipeline(enc, tap);
    pipe.run(mem, span_source(payload), span_dest(fused_out.span()));

    byte_buffer dyn_out(256);
    inet_accumulator dyn_acc;
    encrypt_stage<safer_simplified> enc2(cipher);
    checksum_tap8 tap2(dyn_acc);
    dynamic_pipeline<direct_memory> dyn;
    dyn.add_stage(enc2);
    dyn.add_stage(tap2);
    EXPECT_EQ(dyn.unit_bytes(), 8u);
    dyn.run(mem, span_source(payload), span_dest(dyn_out.span()));

    EXPECT_EQ(std::memcmp(fused_out.data(), dyn_out.data(), 256), 0);
    EXPECT_EQ(fused_acc.finish(), dyn_acc.finish());
}

TEST(WordFilter, ChainMatchesFusedPipeline) {
    const auto key = test_key();
    const safer_simplified cipher(key);
    const auto payload = random_bytes(128, 14);
    direct_memory mem;

    byte_buffer fused_out(128);
    inet_accumulator fused_acc;
    encrypt_stage<safer_simplified> enc(cipher);
    checksum_tap8 tap(fused_acc);
    auto pipe = make_pipeline(enc, tap);
    pipe.run(mem, span_source(payload), span_dest(fused_out.span()));

    byte_buffer filter_out(128);
    inet_accumulator filter_acc;
    cipher_word_filter<direct_memory, safer_simplified, true> enc_filter(cipher);
    checksum_word_filter<direct_memory> sum_filter(filter_acc);
    sink_word_filter<direct_memory> sink(filter_out.span());
    enc_filter.set_next(&sum_filter);
    sum_filter.set_next(&sink);
    feed_words(mem, enc_filter, payload);

    EXPECT_EQ(sink.bytes_written(), 128u);
    EXPECT_EQ(std::memcmp(fused_out.data(), filter_out.data(), 128), 0);
    EXPECT_EQ(fused_acc.finish(), filter_acc.finish());
}

TEST(WordFilter, WordHandoffDoublesStores) {
    // Paper §2.2's exact example: 4-byte word handoff issues two stores per
    // 8-byte cipher block where the LCM-unit loop issues one.
    const auto key = test_key();
    const safer_simplified cipher(key);
    constexpr std::size_t n = 512;
    const auto payload = random_bytes(n, 15);

    memsim::memory_system sys(memsim::test_tiny());
    sim_memory mem(sys);

    byte_buffer filter_out(n);
    cipher_word_filter<sim_memory, safer_simplified, true> enc_filter(cipher);
    sink_word_filter<sim_memory> sink(filter_out.span());
    enc_filter.set_next(&sink);
    feed_words(mem, enc_filter, payload);
    const std::uint64_t filter_stores =
        sys.data_stats().writes.total_accesses();

    sys.reset(true);
    byte_buffer fused_out(n);
    encrypt_stage<safer_simplified> enc(cipher);
    auto pipe = make_pipeline(enc);
    pipe.run(mem, span_source(payload), span_dest(fused_out.span()));
    const std::uint64_t fused_stores =
        sys.data_stats().writes.total_accesses();

    EXPECT_EQ(std::memcmp(filter_out.data(), fused_out.data(), n), 0);
    EXPECT_EQ(filter_stores, n / 4);  // one store per word
    EXPECT_EQ(fused_stores, n / 8);   // one store per Le unit
}

}  // namespace
}  // namespace ilp::core
