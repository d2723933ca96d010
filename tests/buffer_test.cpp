// Unit tests for byte_buffer and the TCP retransmission ring buffer.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <numeric>

#include "buffer/byte_buffer.h"
#include "buffer/ring_buffer.h"

namespace ilp {
namespace {

std::vector<std::byte> pattern(std::size_t n, unsigned seed = 0) {
    std::vector<std::byte> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        v[i] = static_cast<std::byte>((seed + i * 37) & 0xff);
    }
    return v;
}

std::vector<std::byte> read_all(const ring_buffer& ring, std::size_t offset,
                                std::size_t n) {
    std::vector<std::byte> out(n);
    ring.copy_out(offset, out);
    return out;
}

TEST(ByteBuffer, AllocatesAlignedZeroedStorage) {
    byte_buffer buf(100);
    EXPECT_EQ(buf.size(), 100u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 8, 0u);
    for (const std::byte b : buf.span()) EXPECT_EQ(b, std::byte{0});
}

TEST(ByteBuffer, EmptyBuffer) {
    byte_buffer buf;
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(buf.size(), 0u);
}

// The uninitialised form promises size and alignment, not contents: the
// test writes every byte before it reads one.
TEST(ByteBuffer, UninitializedFormIsSizedAndAligned) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{100},
                                std::size_t{16 * 1024}}) {
        byte_buffer buf = byte_buffer::uninitialized(n);
        EXPECT_EQ(buf.size(), n);
        EXPECT_FALSE(buf.empty());
        ASSERT_NE(buf.data(), nullptr);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) %
                      byte_buffer::alignment,
                  0u);
        const auto data = pattern(n, 5);
        std::memcpy(buf.data(), data.data(), n);
        EXPECT_TRUE(std::equal(data.begin(), data.end(), buf.span().begin()));
    }

    const byte_buffer none = byte_buffer::uninitialized(0);
    EXPECT_TRUE(none.empty());
    EXPECT_EQ(none.size(), 0u);
    EXPECT_EQ(none.data(), nullptr);
    EXPECT_TRUE(none.span().empty());
}

TEST(RingBuffer, PushPeekRelease) {
    ring_buffer ring(64);
    const auto data = pattern(20);
    ring.push(data);
    EXPECT_EQ(ring.size(), 20u);
    EXPECT_EQ(read_all(ring, 0, 20), data);
    ring.release(5);
    EXPECT_EQ(ring.size(), 15u);
    EXPECT_EQ(read_all(ring, 0, 15),
              std::vector<std::byte>(data.begin() + 5, data.end()));
}

TEST(RingBuffer, ReserveCommitContiguous) {
    ring_buffer ring(64);
    const ring_span span = ring.reserve_tail(16);
    EXPECT_EQ(span.first.size(), 16u);
    EXPECT_TRUE(span.second.empty());
    std::memset(span.first.data(), 0xab, 16);
    ring.commit_tail(16);
    EXPECT_EQ(ring.size(), 16u);
    const auto out = read_all(ring, 0, 16);
    for (const std::byte b : out) EXPECT_EQ(b, std::byte{0xab});
}

TEST(RingBuffer, ReservationWrapsAroundEnd) {
    ring_buffer ring(32);
    ring.push(pattern(24));
    ring.release(20);  // front = 20, size = 4, write index = 24
    const ring_span span = ring.reserve_tail(16);
    EXPECT_EQ(span.first.size(), 8u);   // bytes 24..31
    EXPECT_EQ(span.second.size(), 8u);  // bytes 0..7
    const auto data = pattern(16, 100);
    std::memcpy(span.first.data(), data.data(), 8);
    std::memcpy(span.second.data(), data.data() + 8, 8);
    ring.commit_tail(16);
    EXPECT_EQ(read_all(ring, 4, 16), data);
}

TEST(RingBuffer, PeekWrapsAroundEnd) {
    ring_buffer ring(32);
    ring.push(pattern(30));
    ring.release(28);
    ring.push(pattern(10, 50));  // wraps
    const const_ring_span view = ring.peek(2, 10);
    ASSERT_EQ(view.size(), 10u);
    std::vector<std::byte> collected;
    collected.insert(collected.end(), view.first.begin(), view.first.end());
    collected.insert(collected.end(), view.second.begin(), view.second.end());
    EXPECT_EQ(collected, pattern(10, 50));
}

TEST(RingBuffer, FillToCapacityExactly) {
    ring_buffer ring(16);
    ring.push(pattern(16));
    EXPECT_EQ(ring.free_space(), 0u);
    ring.release(16);
    EXPECT_TRUE(ring.empty());
    ring.push(pattern(16, 5));  // reusable after full drain
    EXPECT_EQ(read_all(ring, 0, 16), pattern(16, 5));
}

TEST(RingBuffer, ManyWrapCyclesPreserveData) {
    // Property test: under an adversarial push/release schedule the ring
    // must behave exactly like a FIFO of bytes (mirror kept in a deque).
    ring_buffer ring(48);
    std::deque<std::byte> mirror;
    std::size_t produced = 0;
    std::size_t consumed = 0;
    while (produced < 10'000) {
        const std::size_t chunk = 1 + produced % 17;
        if (ring.free_space() >= chunk) {
            const auto data = pattern(chunk, static_cast<unsigned>(produced));
            ring.push(data);
            mirror.insert(mirror.end(), data.begin(), data.end());
            produced += chunk;
        }
        const std::size_t take = 1 + consumed % 13;
        if (ring.size() >= take) {
            const auto head = read_all(ring, 0, take);
            const std::vector<std::byte> expected(mirror.begin(),
                                                  mirror.begin() + take);
            ASSERT_EQ(head, expected) << "at consumed=" << consumed;
            ring.release(take);
            mirror.erase(mirror.begin(), mirror.begin() + take);
            consumed += take;
        }
    }
    EXPECT_EQ(ring.size(), mirror.size());
}

std::vector<std::byte> collect(const const_ring_span& v) {
    std::vector<std::byte> out;
    out.insert(out.end(), v.first.begin(), v.first.end());
    out.insert(out.end(), v.second.begin(), v.second.end());
    return out;
}

TEST(ConstRingSpan, SubspanWithinFirstPiece) {
    ring_buffer ring(32);
    ring.push(pattern(30));
    ring.release(28);
    ring.push(pattern(12, 50));  // wraps: first piece 4 bytes, second 8
    const const_ring_span view = ring.peek(2, 12);
    ASSERT_FALSE(view.second.empty());
    const std::size_t split = view.first.size();

    const const_ring_span head = view.subspan(0, split);
    EXPECT_TRUE(head.second.empty());
    const auto whole = pattern(12, 50);
    EXPECT_EQ(collect(head),
              std::vector<std::byte>(whole.begin(), whole.begin() + split));
}

TEST(ConstRingSpan, SubspanStraddlingTheWrap) {
    ring_buffer ring(32);
    ring.push(pattern(30));
    ring.release(28);
    ring.push(pattern(12, 50));
    const const_ring_span view = ring.peek(2, 12);
    const std::size_t split = view.first.size();
    ASSERT_GT(split, 0u);
    ASSERT_LT(split, 12u);

    // A cut starting before the wrap and ending after it keeps both pieces.
    const const_ring_span mid = view.subspan(split - 1, 4);
    EXPECT_EQ(mid.first.size(), 1u);
    EXPECT_EQ(mid.second.size(), 3u);
    const auto whole = pattern(12, 50);
    EXPECT_EQ(collect(mid),
              std::vector<std::byte>(whole.begin() + split - 1,
                                     whole.begin() + split + 3));
}

TEST(ConstRingSpan, SubspanEntirelyInSecondPiece) {
    ring_buffer ring(32);
    ring.push(pattern(30));
    ring.release(28);
    ring.push(pattern(12, 50));
    const const_ring_span view = ring.peek(2, 12);
    const std::size_t split = view.first.size();

    const const_ring_span tail = view.subspan(split + 2, 12 - split - 2);
    EXPECT_TRUE(tail.second.empty());  // single piece again
    const auto whole = pattern(12, 50);
    EXPECT_EQ(collect(tail),
              std::vector<std::byte>(whole.begin() + split + 2, whole.end()));
}

TEST(ConstRingSpan, SubspanExhaustiveOffsets) {
    ring_buffer ring(32);
    ring.push(pattern(30));
    ring.release(28);
    ring.push(pattern(16, 7));
    const const_ring_span view = ring.peek(2, 16);
    const auto whole = pattern(16, 7);
    for (std::size_t off = 0; off <= 16; ++off) {
        for (std::size_t len = 0; len + off <= 16; ++len) {
            const const_ring_span cut = view.subspan(off, len);
            EXPECT_EQ(cut.size(), len);
            EXPECT_EQ(collect(cut),
                      std::vector<std::byte>(whole.begin() + off,
                                             whole.begin() + off + len))
                << "off=" << off << " len=" << len;
        }
    }
}

TEST(RingBuffer, WriteIndexTracksContent) {
    ring_buffer ring(32);
    EXPECT_EQ(ring.write_index(), 0u);
    ring.push(pattern(10));
    EXPECT_EQ(ring.write_index(), 10u);
    ring.release(4);
    EXPECT_EQ(ring.write_index(), 10u);  // release moves front, not back
    ring.push(pattern(22));
    EXPECT_EQ(ring.write_index(), 0u);  // wrapped exactly to 0
}

}  // namespace
}  // namespace ilp
