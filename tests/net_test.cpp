// Tests for the datagram substrate: delivery, latency, gather sends,
// deterministic fault injection and crossing accounting.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "memsim/configs.h"
#include "memsim/mem_policy.h"
#include "net/datagram.h"
#include "util/rng.h"

namespace ilp::net {
namespace {

using memsim::direct_memory;

std::vector<std::byte> pattern(std::size_t n, unsigned seed = 0) {
    std::vector<std::byte> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        v[i] = static_cast<std::byte>((seed + i) & 0xff);
    }
    return v;
}

TEST(Datagram, DeliversAfterLatency) {
    virtual_clock clock;
    datagram_pipe pipe(clock, 50);
    std::vector<std::vector<std::byte>> received;
    pipe.set_receiver([&](std::span<const std::byte> p) {
        received.emplace_back(p.begin(), p.end());
    });
    const auto msg = pattern(100);
    pipe.send(direct_memory{}, msg);
    EXPECT_TRUE(received.empty());  // not yet due
    clock.advance(49);
    EXPECT_TRUE(received.empty());
    clock.advance(1);
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(received[0], msg);
    EXPECT_EQ(pipe.stats().packets_delivered, 1u);
}

// A zero-copy gather send whose second part is empty (a ring payload that
// does not wrap, or no payload at all) carries {nullptr, 0}: it must add
// nothing and never be handed to memcpy.
TEST(Datagram, ZeroCopySendSkipsAnEmptyPart) {
    virtual_clock clock;
    datagram_pipe pipe(clock, 0);
    std::vector<std::byte> received;
    pipe.set_receiver([&](std::span<const std::byte> p) {
        received.assign(p.begin(), p.end());
    });
    const auto a = pattern(20, 1);
    pipe.send_zero_copy(
        {std::span<const std::byte>(a), std::span<const std::byte>()});
    clock.advance(1);
    EXPECT_EQ(received, a);
}

// With both receivers installed, only zero-copy sends arrive as loans; a
// copying send keeps staged span delivery on the same pipe.
TEST(Datagram, LoansExactlyTheZeroCopySends) {
    virtual_clock clock;
    datagram_pipe pipe(clock, 0);
    std::vector<std::byte> spans;
    std::vector<std::byte> loans;
    pipe.set_receiver([&](std::span<const std::byte> p) {
        spans.insert(spans.end(), p.begin(), p.end());
    });
    pipe.set_segment_receiver([&](const const_ring_span& s) {
        loans.insert(loans.end(), s.first.begin(), s.first.end());
        loans.insert(loans.end(), s.second.begin(), s.second.end());
    });
    const auto copied = pattern(30, 1);
    const auto loaned = pattern(40, 2);
    pipe.send(direct_memory{}, copied);
    pipe.send_zero_copy({std::span<const std::byte>(loaned)});
    clock.advance(1);
    EXPECT_EQ(spans, copied);
    EXPECT_EQ(loans, loaned);
}

TEST(Datagram, GatherSendConcatenatesParts) {
    virtual_clock clock;
    datagram_pipe pipe(clock, 0);
    std::vector<std::byte> received;
    pipe.set_receiver([&](std::span<const std::byte> p) {
        received.assign(p.begin(), p.end());
    });
    const auto a = pattern(8, 1);
    const auto b = pattern(16, 2);
    const auto c = pattern(4, 3);
    pipe.send(direct_memory{},
              {std::span<const std::byte>(a), std::span<const std::byte>(b),
               std::span<const std::byte>(c)});
    clock.advance(1);
    ASSERT_EQ(received.size(), 28u);
    EXPECT_EQ(std::memcmp(received.data(), a.data(), 8), 0);
    EXPECT_EQ(std::memcmp(received.data() + 8, b.data(), 16), 0);
    EXPECT_EQ(std::memcmp(received.data() + 24, c.data(), 4), 0);
}

TEST(Datagram, PreservesOrderWithoutFaults) {
    virtual_clock clock;
    datagram_pipe pipe(clock, 10);
    std::vector<int> order;
    pipe.set_receiver([&](std::span<const std::byte> p) {
        order.push_back(std::to_integer<int>(p[0]));
    });
    for (int i = 0; i < 5; ++i) {
        const std::byte b[1] = {static_cast<std::byte>(i)};
        pipe.send(direct_memory{}, std::span<const std::byte>(b));
        clock.advance(1);
    }
    clock.advance(100);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Datagram, DropInjection) {
    virtual_clock clock;
    fault_config faults;
    faults.drop_probability = 1.0;
    datagram_pipe pipe(clock, 0, faults);
    int delivered = 0;
    pipe.set_receiver([&](std::span<const std::byte>) { ++delivered; });
    pipe.send(direct_memory{}, pattern(10));
    clock.advance(10);
    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(pipe.stats().packets_dropped, 1u);
    EXPECT_EQ(pipe.stats().packets_sent, 1u);
}

TEST(Datagram, DuplicateInjection) {
    virtual_clock clock;
    fault_config faults;
    faults.duplicate_probability = 1.0;
    datagram_pipe pipe(clock, 0, faults);
    int delivered = 0;
    pipe.set_receiver([&](std::span<const std::byte>) { ++delivered; });
    pipe.send(direct_memory{}, pattern(10));
    clock.advance(10);
    EXPECT_EQ(delivered, 2);
    EXPECT_EQ(pipe.stats().packets_duplicated, 1u);
}

TEST(Datagram, CorruptInjectionFlipsExactlyOneBit) {
    virtual_clock clock;
    fault_config faults;
    faults.corrupt_probability = 1.0;
    datagram_pipe pipe(clock, 0, faults);
    const auto msg = pattern(64);
    std::vector<std::byte> received;
    pipe.set_receiver([&](std::span<const std::byte> p) {
        received.assign(p.begin(), p.end());
    });
    pipe.send(direct_memory{}, msg);
    clock.advance(10);
    ASSERT_EQ(received.size(), msg.size());
    int bit_diffs = 0;
    for (std::size_t i = 0; i < msg.size(); ++i) {
        bit_diffs += std::popcount(std::to_integer<unsigned>(received[i] ^ msg[i]));
    }
    EXPECT_EQ(bit_diffs, 1);
    EXPECT_EQ(pipe.stats().packets_corrupted, 1u);
}

TEST(Datagram, ReorderInjectionSwapsAdjacentPackets) {
    virtual_clock clock;
    fault_config faults;
    faults.reorder_probability = 0.5;
    faults.seed = 7;
    datagram_pipe pipe(clock, 10, faults);
    std::vector<int> order;
    pipe.set_receiver([&](std::span<const std::byte> p) {
        order.push_back(std::to_integer<int>(p[0]));
    });
    for (int i = 0; i < 20; ++i) {
        const std::byte b[1] = {static_cast<std::byte>(i)};
        pipe.send(direct_memory{}, std::span<const std::byte>(b));
        clock.advance(2);
    }
    clock.advance(1000);
    ASSERT_EQ(order.size(), 20u);
    EXPECT_GT(pipe.stats().packets_reordered, 0u);
    // All packets arrive, some out of order.
    std::vector<int> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    std::vector<int> expected(20);
    for (int i = 0; i < 20; ++i) expected[i] = i;
    EXPECT_EQ(sorted, expected);
    EXPECT_NE(order, expected);
}

TEST(Datagram, FaultInjectionIsDeterministic) {
    auto run = [] {
        virtual_clock clock;
        fault_config faults;
        faults.drop_probability = 0.3;
        faults.seed = 99;
        datagram_pipe pipe(clock, 0, faults);
        int delivered = 0;
        pipe.set_receiver([&](std::span<const std::byte>) { ++delivered; });
        for (int i = 0; i < 100; ++i) {
            pipe.send(direct_memory{}, pattern(8));
            clock.advance(1);
        }
        return delivered;
    };
    const int first = run();
    EXPECT_EQ(first, run());
    EXPECT_GT(first, 40);
    EXPECT_LT(first, 95);
}

TEST(Datagram, SystemCopyIsCounted) {
    virtual_clock clock;
    datagram_pipe pipe(clock, 0);
    memsim::memory_system sys(memsim::test_tiny());
    memsim::sim_memory mem(sys);
    const auto msg = pattern(128);
    pipe.send(mem, msg);
    // Send-side system copy: 128 bytes read + written in 8-byte units.
    EXPECT_EQ(sys.data_stats().reads.total_bytes(), 128u);
    EXPECT_EQ(sys.data_stats().writes.total_bytes(), 128u);
    EXPECT_EQ(pipe.stats().send_crossings, 1u);
}

TEST(DuplexLink, ForwardAndReverseAreIndependent) {
    virtual_clock clock;
    duplex_link link(clock, 5);
    int fwd = 0, rev = 0;
    link.forward().set_receiver([&](std::span<const std::byte>) { ++fwd; });
    link.reverse().set_receiver([&](std::span<const std::byte>) { ++rev; });
    link.forward().send(direct_memory{}, pattern(10));
    link.forward().send(direct_memory{}, pattern(10));
    link.reverse().send(direct_memory{}, pattern(10));
    clock.advance(10);
    EXPECT_EQ(fwd, 2);
    EXPECT_EQ(rev, 1);
}

}  // namespace
}  // namespace ilp::net
