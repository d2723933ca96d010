// Unit and property tests for the checksum module: RFC 1071 Internet
// checksum (all unit widths, parity handling, register entry points),
// CRC-32 with published vectors.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "buffer/byte_buffer.h"
#include "checksum/crc32.h"
#include "checksum/internet_checksum.h"
#include "memsim/configs.h"
#include "util/rng.h"

namespace ilp::checksum {
namespace {

std::vector<std::byte> bytes_of(std::initializer_list<unsigned> values) {
    std::vector<std::byte> out;
    for (const unsigned v : values) out.push_back(static_cast<std::byte>(v));
    return out;
}

std::span<const std::byte> as_bytes(const char* s) {
    return {reinterpret_cast<const std::byte*>(s), std::strlen(s)};
}

// Straight-line reference implementation, 16 bits at a time, per RFC 1071.
std::uint16_t reference_checksum(std::span<const std::byte> data) {
    std::uint64_t sum = 0;
    std::size_t i = 0;
    for (; i + 1 < data.size(); i += 2) {
        sum += (std::to_integer<std::uint64_t>(data[i]) << 8) |
               std::to_integer<std::uint64_t>(data[i + 1]);
    }
    if (i < data.size()) sum += std::to_integer<std::uint64_t>(data[i]) << 8;
    while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
    return static_cast<std::uint16_t>(~sum);
}

TEST(InetChecksum, Rfc1071WorkedExample) {
    // The classic example: words 0001 f203 f4f5 f6f7 -> checksum 220d.
    const auto data = bytes_of({0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7});
    EXPECT_EQ(inet_checksum(data), 0x220d);
}

TEST(InetChecksum, EmptyDataIsAllOnes) { EXPECT_EQ(inet_checksum({}), 0xffff); }

TEST(InetChecksum, VerifyIncludingChecksumField) {
    auto data = bytes_of({0x45, 0x00, 0x00, 0x28, 0x1c, 0x46});
    const std::uint16_t sum = inet_checksum(data);
    data.push_back(static_cast<std::byte>(sum >> 8));
    data.push_back(static_cast<std::byte>(sum & 0xff));
    EXPECT_TRUE(inet_checksum_ok(data));
    data[0] ^= std::byte{0x01};
    EXPECT_FALSE(inet_checksum_ok(data));
}

class InetChecksumWidths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(InetChecksumWidths, AllUnitWidthsMatchReference) {
    // Property: accumulating in 2-, 4- or 8-byte loads never changes the
    // result — that is what makes the checksum fusable at Le = lcm(...).
    rng r(123);
    for (const std::size_t len : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 64u, 1023u, 1024u}) {
        std::vector<std::byte> data(len);
        r.fill(data);
        inet_accumulator acc;
        acc.add_bytes(memsim::direct_memory{}, data, GetParam());
        EXPECT_EQ(acc.finish(), reference_checksum(data)) << "len=" << len;
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, InetChecksumWidths,
                         ::testing::Values(2, 4, 8));

TEST(InetChecksum, ChunkedAccumulationMatchesWhole) {
    // Property: any chunking of the byte stream (including odd chunks)
    // produces the same checksum.
    rng r(77);
    std::vector<std::byte> data(301);
    r.fill(data);
    const std::uint16_t whole = reference_checksum(data);
    for (const std::size_t step : {1u, 2u, 3u, 5u, 8u, 13u, 300u}) {
        inet_accumulator acc;
        for (std::size_t off = 0; off < data.size(); off += step) {
            const std::size_t n = std::min(step, data.size() - off);
            acc.add_bytes(memsim::direct_memory{},
                          {data.data() + off, n}, 2);
        }
        EXPECT_EQ(acc.finish(), whole) << "step=" << step;
    }
}

TEST(InetChecksum, RegisterEntryPointsMatchMemoryForm) {
    rng r(5);
    std::vector<std::byte> data(64);
    r.fill(data);
    inet_accumulator by_u64;
    for (std::size_t i = 0; i < 64; i += 8) {
        std::uint64_t v;
        std::memcpy(&v, data.data() + i, 8);
        by_u64.add_register_u64(v);
    }
    inet_accumulator by_u32;
    for (std::size_t i = 0; i < 64; i += 4) {
        std::uint32_t v;
        std::memcpy(&v, data.data() + i, 4);
        by_u32.add_register_u32(v);
    }
    EXPECT_EQ(by_u64.finish(), reference_checksum(data));
    EXPECT_EQ(by_u32.finish(), reference_checksum(data));
}

TEST(InetChecksum, BytewiseOddParityTracked) {
    inet_accumulator acc;
    acc.add_byte(0x12);
    EXPECT_TRUE(acc.odd());
    acc.add_byte(0x34);
    EXPECT_FALSE(acc.odd());
    EXPECT_EQ(acc.finish(), static_cast<std::uint16_t>(~0x1234));
}

TEST(InetChecksum, OrderIndependenceOfWords) {
    // One's-complement addition commutes: summing the words of a message in
    // any order gives the same checksum.  This is the property that lets
    // message parts B, C, A be processed out of order (paper §3.2.2).
    const auto data =
        bytes_of({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
    inet_accumulator forward;
    forward.add_bytes(memsim::direct_memory{}, data, 2);
    inet_accumulator shuffled;
    // parts: B = [8,12), C = [12,16), A = [0,8)
    shuffled.add_bytes(memsim::direct_memory{}, {data.data() + 8, 4}, 2);
    shuffled.add_bytes(memsim::direct_memory{}, {data.data() + 12, 4}, 2);
    shuffled.add_bytes(memsim::direct_memory{}, {data.data(), 8}, 2);
    EXPECT_EQ(forward.finish(), shuffled.finish());
}

TEST(InetChecksum, SimulatedAccessCountsScaleWithWidth) {
    // The whole point of the width parameter: 8-byte loads issue a quarter
    // of the memory operations 2-byte loads do.
    byte_buffer data(1024);
    memsim::memory_system sys(memsim::test_tiny());
    memsim::sim_memory mem(sys);

    inet_accumulator acc2;
    acc2.add_bytes(mem, data.span(), 2);
    const std::uint64_t ops2 = sys.data_stats().total_accesses();

    sys.reset(true);
    inet_accumulator acc8;
    acc8.add_bytes(mem, data.span(), 8);
    const std::uint64_t ops8 = sys.data_stats().total_accesses();

    EXPECT_EQ(acc2.finish(), acc8.finish());
    EXPECT_EQ(ops2, 512u);
    EXPECT_EQ(ops8, 128u);
}

TEST(Crc32, PublishedVector) {
    // CRC-32/IEEE of "123456789" is 0xCBF43926.
    EXPECT_EQ(crc32_of(as_bytes("123456789")), 0xcbf43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32_of({}), 0u); }

TEST(Crc32, IncrementalMatchesOneShot) {
    const auto data = as_bytes("integrated layer processing");
    crc32 inc;
    inc.update(data.subspan(0, 10));
    inc.update(data.subspan(10));
    EXPECT_EQ(inc.value(), crc32_of(data));
}

TEST(Crc32, OrderDependence) {
    // CRC is ordering-constrained (paper §2.2): swapping two halves changes
    // the result — unlike the Internet checksum.
    const auto data = as_bytes("abcdefgh");
    crc32 forward;
    forward.update(data);
    crc32 swapped;
    swapped.update(data.subspan(4));
    swapped.update(data.subspan(0, 4));
    EXPECT_NE(forward.value(), swapped.value());
}

TEST(Crc32, ScratchEntryMatchesMemoryEntry) {
    const auto data = as_bytes("0123456789abcdef");
    crc32 a;
    a.update(data);
    crc32 b;
    b.update_scratch(memsim::direct_memory{}, data.data(), data.size());
    EXPECT_EQ(a.value(), b.value());
}

TEST(Crc32, SimulatedRunCountsTableReads) {
    memsim::memory_system sys(memsim::test_tiny());
    memsim::sim_memory mem(sys);
    byte_buffer data(100);
    crc32 crc;
    crc.update(mem, data.span());
    // One data byte read + one 4-byte table read per input byte.
    EXPECT_EQ(sys.data_stats().reads.accesses[memsim::size_bucket(1)], 100u);
    EXPECT_EQ(sys.data_stats().reads.accesses[memsim::size_bucket(4)], 100u);
}

}  // namespace
}  // namespace ilp::checksum
