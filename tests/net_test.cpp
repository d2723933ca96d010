// Tests for the datagram substrate: delivery, latency, gather sends,
// deterministic fault injection and crossing accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>
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

// The in-flight queue is kept sorted by (deliver_at, send order): with
// reordering and duplication on three tags sharing the pipe, deliveries
// come out as a stable sort of the enqueued packets by deliver_at.  Each
// packet carries its send index; a packet is delivered exactly at its
// deliver_at, which is send time + latency, or + 3 * latency + 1 when the
// fault plan held it back.
TEST(Datagram, DeliveryIsAStableSortByDeliverAt) {
    constexpr sim_time latency = 5;
    virtual_clock clock;
    fault_config faults;
    faults.reorder_probability = 0.5;
    faults.duplicate_probability = 0.3;
    faults.seed = 11;
    datagram_pipe pipe(clock, latency, faults);
    std::vector<std::pair<sim_time, std::uint32_t>> delivered;  // (at, index)
    pipe.set_receiver([&](std::span<const std::byte> p) {
        std::uint32_t index = 0;
        std::memcpy(&index, p.data(), sizeof index);
        delivered.emplace_back(clock.now(), index);
    });
    std::vector<sim_time> sent_at;
    rng gaps(3);
    for (std::uint32_t i = 0; i < 300; ++i) {
        std::byte b[sizeof i];
        std::memcpy(b, &i, sizeof i);
        sent_at.push_back(clock.now());
        pipe.send(direct_memory{}, std::span<const std::byte>(b), 1 + i % 3);
        clock.advance(gaps.next_below(4));  // 0: several sends per instant
    }
    clock.advance(1000);

    EXPECT_EQ(delivered.size(), 300 + pipe.stats().packets_duplicated);
    EXPECT_GT(pipe.stats().packets_duplicated, 0u);
    EXPECT_GT(pipe.stats().packets_reordered, 0u);
    EXPECT_EQ(pipe.in_flight(), 0u);
    std::size_t held_ties = 0;  // a held packet due with a later send
    for (const auto& [at, index] : delivered) {
        const sim_time in_order = sent_at[index] + latency;
        EXPECT_TRUE(at == in_order || at == in_order + 2 * latency + 1)
            << "packet " << index << " delivered at " << at;
        if (at != in_order) {
            held_ties += static_cast<std::size_t>(std::count_if(
                delivered.begin(), delivered.end(), [&](const auto& d) {
                    return d.first == at && d.second > index;
                }));
        }
    }
    EXPECT_GT(held_ties, 0u);
    // Send order is index order and a duplicate's copies are enqueued back
    // to back, so the stable sort by deliver_at is the sort by (at, index).
    auto expected = delivered;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(delivered, expected);
}

// On a latency-0 pipe a receiver that sends on the same pipe from its
// handler sees the new packet in the same deliver_due() call, after the
// packets already due (FIFO).
TEST(Datagram, PacketSentFromTheHandlerIsDeliveredInTheSameCall) {
    virtual_clock clock;
    datagram_pipe pipe(clock, 0);
    std::vector<int> order;
    pipe.set_receiver([&](std::span<const std::byte> p) {
        const int v = std::to_integer<int>(p[0]);
        order.push_back(v);
        if (v < 10) {  // an original: echo it as v + 10
            const std::byte echo[1] = {static_cast<std::byte>(v + 10)};
            pipe.send(direct_memory{}, std::span<const std::byte>(echo));
        }
    });
    for (int v : {1, 2}) {
        const std::byte b[1] = {static_cast<std::byte>(v)};
        pipe.send(direct_memory{}, std::span<const std::byte>(b));
    }
    pipe.deliver_due();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 11, 12}));
    EXPECT_EQ(pipe.in_flight(), 0u);
    clock.advance(0);  // the packets' own timers find nothing left
    EXPECT_EQ(order.size(), 4u);
    EXPECT_EQ(pipe.stats().packets_delivered, 4u);
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

// --- pipe-owned packet storage ----------------------------------------------
// Queued packets live in buffers the pipe recycles after delivery, so every
// test below checks that a reused buffer carries exactly its own packet.

int bit_difference(std::span<const std::byte> a, std::span<const std::byte> b) {
    int bits = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        bits += std::popcount(std::to_integer<unsigned>(a[i] ^ b[i]));
    }
    return bits;
}

TEST(DatagramStorage, ShortOrTruncatedPacketAfterALongOneIsExact) {
    virtual_clock clock;
    datagram_pipe pipe(clock, 0);
    fault_config cut;
    cut.truncate_probability = 1.0;
    pipe.configure_tag(1, cut);
    std::vector<std::vector<std::byte>> received;
    pipe.set_receiver([&](std::span<const std::byte> p) {
        received.emplace_back(p.begin(), p.end());
    });
    const auto long_packet = pattern(1500, 1);
    const auto short_packet = pattern(9, 2);
    const auto cut_packet = pattern(700, 3);
    for (int round = 0; round < 3; ++round) {
        pipe.send(direct_memory{}, long_packet);
        clock.advance(1);
        pipe.send(direct_memory{}, short_packet);
        clock.advance(1);
        pipe.send(direct_memory{}, cut_packet, 1);
        clock.advance(1);
    }
    ASSERT_EQ(received.size(), 9u);
    for (int round = 0; round < 3; ++round) {
        EXPECT_EQ(received[3 * round], long_packet);
        EXPECT_EQ(received[3 * round + 1], short_packet);
        const std::vector<std::byte>& cut_copy = received[3 * round + 2];
        ASSERT_GE(cut_copy.size(), 1u);
        ASSERT_LT(cut_copy.size(), cut_packet.size());
        EXPECT_TRUE(std::equal(cut_copy.begin(), cut_copy.end(),
                               cut_packet.begin()));
    }
    EXPECT_EQ(pipe.stats().packets_truncated, 3u);
}

// With duplication and corruption certain, each copy is flipped on its own
// draw: every delivered copy differs from the packet by exactly one bit,
// and the two copies of a send do not always share their flip.
TEST(DatagramStorage, DuplicateCopiesCarryIndependentFlips) {
    virtual_clock clock;
    fault_config faults;
    faults.duplicate_probability = 1.0;
    faults.corrupt_probability = 1.0;
    faults.seed = 5;
    datagram_pipe pipe(clock, 0, faults);
    const auto msg = pattern(64, 4);
    std::vector<std::vector<std::byte>> received;
    pipe.set_receiver([&](std::span<const std::byte> p) {
        received.emplace_back(p.begin(), p.end());
    });
    constexpr int sends = 20;
    for (int i = 0; i < sends; ++i) {
        pipe.send(direct_memory{}, msg);
        clock.advance(1);
    }
    ASSERT_EQ(received.size(), 2u * sends);
    int distinct_pairs = 0;
    for (int i = 0; i < sends; ++i) {
        const auto& a = received[2 * i];
        const auto& b = received[2 * i + 1];
        ASSERT_EQ(a.size(), msg.size());
        ASSERT_EQ(b.size(), msg.size());
        EXPECT_EQ(bit_difference(a, msg), 1) << "send " << i << " copy 1";
        EXPECT_EQ(bit_difference(b, msg), 1) << "send " << i << " copy 2";
        if (a != b) ++distinct_pairs;
    }
    EXPECT_GT(distinct_pairs, sends / 2);
    EXPECT_EQ(pipe.stats().packets_corrupted, 2u * sends);
}

// A packet held back by reordering stays queued while dozens of later
// packets are delivered and their buffers reused; it still arrives intact.
TEST(DatagramStorage, HeldPacketKeepsItsBytesWhileLaterOnesReuseStorage) {
    constexpr sim_time latency = 10;
    virtual_clock clock;
    datagram_pipe pipe(clock, latency);
    fault_config held;
    held.reorder_probability = 1.0;
    pipe.configure_tag(1, held);
    std::vector<std::vector<std::byte>> received;
    pipe.set_receiver([&](std::span<const std::byte> p) {
        received.emplace_back(p.begin(), p.end());
    });
    const auto held_packet = pattern(300, 7);
    pipe.send(direct_memory{}, held_packet, 1);
    std::vector<std::vector<std::byte>> later;
    for (unsigned i = 0; i < 30; ++i) {
        later.push_back(pattern(100 + 20 * (i % 5), 10 + i));
        pipe.send(direct_memory{}, later.back(), 2);
        clock.advance(1);
    }
    clock.advance(3 * latency + 1);
    ASSERT_EQ(received.size(), 31u);
    EXPECT_EQ(pipe.stats().packets_reordered, 1u);
    // Held for 2 * latency + 1, it lands after the sends of the first 21 us.
    const auto at = std::find(received.begin(), received.end(), held_packet);
    ASSERT_NE(at, received.end());
    EXPECT_EQ(at - received.begin(), 21);
    std::vector<std::vector<std::byte>> rest = received;
    rest.erase(rest.begin() + (at - received.begin()));
    EXPECT_EQ(rest, later);
}

// On a latency-0 pipe the handler's own sends are queued while the pipe is
// delivering, and take buffers the delivery just handed back.
TEST(DatagramStorage, HandlerSendOnALatencyZeroPipeReusesStorage) {
    virtual_clock clock;
    datagram_pipe pipe(clock, 0);
    std::vector<std::vector<std::byte>> received;
    pipe.set_receiver([&](std::span<const std::byte> p) {
        received.emplace_back(p.begin(), p.end());
        if (received.size() <= 3) {  // an original: answer it, shorter
            const auto echo = pattern(p.size() / 3, 99);
            pipe.send(direct_memory{}, echo);
        }
    });
    for (std::size_t n : {90, 300, 60}) {
        pipe.send(direct_memory{}, pattern(n, static_cast<unsigned>(n)));
    }
    pipe.deliver_due();
    ASSERT_EQ(received.size(), 6u);
    EXPECT_EQ(received[0], pattern(90, 90));
    EXPECT_EQ(received[1], pattern(300, 300));
    EXPECT_EQ(received[2], pattern(60, 60));
    EXPECT_EQ(received[3], pattern(30, 99));
    EXPECT_EQ(received[4], pattern(100, 99));
    EXPECT_EQ(received[5], pattern(20, 99));
    EXPECT_EQ(pipe.in_flight(), 0u);
}

// --- per-tag fault states ---------------------------------------------------

TEST(DatagramTags, UnseenTagReadsZerosAndCreatesNoState) {
    virtual_clock clock;
    datagram_pipe pipe(clock, 0);
    const tag_stats none = pipe.stats_for_tag(77);
    EXPECT_EQ(none.packets_sent, 0u);
    EXPECT_EQ(none.packets_delivered, 0u);
    EXPECT_EQ(none.packets_dropped, 0u);
    EXPECT_EQ(none.packets_queue_dropped, 0u);
    EXPECT_EQ(none.in_flight, 0u);
    EXPECT_EQ(pipe.in_flight_for(77), 0u);
    EXPECT_EQ(pipe.tags_seen(), 0u);
}

// The table grows with the tags in use, not with their values.
TEST(DatagramTags, DistantTagsHoldTwoStates) {
    virtual_clock clock;
    datagram_pipe pipe(clock, 10);
    pipe.set_receiver([](std::span<const std::byte>) {});
    pipe.send(direct_memory{}, pattern(8), 1);
    pipe.send(direct_memory{}, pattern(8), 1'000'000);
    pipe.send(direct_memory{}, pattern(8), 1'000'000);
    EXPECT_EQ(pipe.tags_seen(), 2u);
    EXPECT_EQ(pipe.in_flight_for(1), 1u);
    EXPECT_EQ(pipe.in_flight_for(1'000'000), 2u);
    clock.advance(10);
    EXPECT_EQ(pipe.stats_for_tag(1).packets_delivered, 1u);
    EXPECT_EQ(pipe.stats_for_tag(1'000'000).packets_delivered, 2u);
    EXPECT_EQ(pipe.stats_for_tag(1'000'000).in_flight, 0u);
}

// Reconfiguring a tag restarts its coin stream at derive_seed(seed, tag):
// the drop pattern after the second configure_tag repeats the first.
TEST(DatagramTags, ReconfiguringATagRestartsItsCoinStream) {
    virtual_clock clock;
    datagram_pipe pipe(clock, 0);
    pipe.set_receiver([](std::span<const std::byte>) {});
    fault_config lossy;
    lossy.drop_probability = 0.5;
    lossy.seed = 21;
    const auto drops = [&] {
        std::vector<bool> dropped;
        for (int i = 0; i < 64; ++i) {
            const std::uint64_t before = pipe.stats_for_tag(3).packets_dropped;
            pipe.send(direct_memory{}, pattern(16), 3);
            dropped.push_back(pipe.stats_for_tag(3).packets_dropped != before);
        }
        clock.advance(1);
        return dropped;
    };
    pipe.configure_tag(3, lossy);
    const std::vector<bool> first = drops();
    pipe.configure_tag(3, lossy);
    EXPECT_EQ(pipe.stats_for_tag(3).packets_sent, 0u);  // counters restart
    EXPECT_EQ(drops(), first);
    // The stream is the tag's own: the same plan on a fresh pipe agrees.
    datagram_pipe fresh(clock, 0);
    fresh.configure_tag(3, lossy);
    std::vector<bool> expected;
    for (int i = 0; i < 64; ++i) {
        const std::uint64_t before = fresh.stats_for_tag(3).packets_dropped;
        fresh.send(direct_memory{}, pattern(16), 3);
        expected.push_back(fresh.stats_for_tag(3).packets_dropped != before);
    }
    EXPECT_EQ(first, expected);
    EXPECT_GT(std::count(first.begin(), first.end(), true), 0);
    EXPECT_GT(std::count(first.begin(), first.end(), false), 0);
}

// Regression: configure_tag on a tag with packets queued used to zero the
// tag's in-flight count, and the next delivery aborted on the
// `in_flight > 0` precondition.
TEST(DatagramTags, ReconfiguringATagKeepsItsPacketsInFlight) {
    virtual_clock clock;
    datagram_pipe pipe(clock, 10);
    int delivered = 0;
    pipe.set_receiver([&](std::span<const std::byte>) { ++delivered; });
    for (int i = 0; i < 3; ++i) pipe.send(direct_memory{}, pattern(12), 4);
    fault_config plan;
    plan.seed = 8;
    pipe.configure_tag(4, plan);
    EXPECT_EQ(pipe.in_flight_for(4), 3u);
    clock.advance(10);
    EXPECT_EQ(delivered, 3);
    EXPECT_EQ(pipe.in_flight_for(4), 0u);
    EXPECT_EQ(pipe.stats_for_tag(4).packets_delivered, 3u);
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
