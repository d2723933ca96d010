// Tests for the kernel-part port demultiplexer: routing, drops, and two
// concurrent TCP connections multiplexed over one shared datagram pipe —
// the paper's deployment shape (one kernel part, one user-level TCP
// instance per application).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "checksum/internet_checksum.h"
#include "memsim/mem_policy.h"
#include "net/datagram.h"
#include "net/demux.h"
#include "tcp/connection.h"
#include "util/rng.h"

namespace ilp::net {
namespace {

using memsim::direct_memory;

std::vector<std::byte> segment_to(std::uint16_t dst_port,
                                  std::size_t payload = 0) {
    std::vector<std::byte> packet(tcp::header_bytes + payload);
    tcp::header_fields h;
    h.src_port = 1;
    h.dst_port = dst_port;
    tcp::serialize_header(h, packet);
    return packet;
}

TEST(PortDemux, RoutesByDestinationPort) {
    port_demux demux;
    int a = 0, b = 0;
    ASSERT_TRUE(demux.bind(1000, [&](std::span<const std::byte>) { ++a; }));
    ASSERT_TRUE(demux.bind(2000, [&](std::span<const std::byte>) { ++b; }));
    EXPECT_EQ(demux.bound_ports(), 2u);

    demux.dispatch(segment_to(1000));
    demux.dispatch(segment_to(2000));
    demux.dispatch(segment_to(2000));
    EXPECT_EQ(a, 1);
    EXPECT_EQ(b, 2);
    EXPECT_EQ(demux.dispatched(), 3u);
}

TEST(PortDemux, DropsUnboundAndMalformed) {
    port_demux demux;
    ASSERT_TRUE(demux.bind(1000, [](std::span<const std::byte>) {}));
    demux.dispatch(segment_to(4242));  // nobody listening
    const std::byte runt[5] = {};
    demux.dispatch({runt, 5});
    EXPECT_EQ(demux.no_listener_drops(), 1u);
    EXPECT_EQ(demux.malformed(), 1u);
    EXPECT_EQ(demux.dispatched(), 0u);
}

// Loans route by the same port, read across the two pieces of a chain
// even when the port's two bytes straddle the split; a port bound without
// a loan handler drops loans as having no listener.
TEST(PortDemux, RoutesLoansAcrossEverySplit) {
    port_demux demux;
    std::vector<std::size_t> loans;
    int spans = 0;
    ASSERT_TRUE(demux.bind(
        0x1234, [&](std::span<const std::byte>) { ++spans; },
        [&](const const_ring_span& s) { loans.push_back(s.size()); }));
    ASSERT_TRUE(demux.bind(0x1235, [&](std::span<const std::byte>) {}));
    const std::vector<std::byte> packet = segment_to(0x1234, 8);
    for (std::size_t split = 0; split <= packet.size(); ++split) {
        const std::span<const std::byte> all(packet);
        demux.dispatch(
            const_ring_span{all.first(split), all.subspan(split)});
    }
    EXPECT_EQ(loans.size(), packet.size() + 1);
    EXPECT_EQ(spans, 0);
    EXPECT_EQ(demux.dispatched(), packet.size() + 1);

    const std::vector<std::byte> other = segment_to(0x1235);
    demux.dispatch(const_ring_span{other, {}});
    EXPECT_EQ(demux.no_listener_drops(), 1u);
    const std::byte runt[5] = {};
    demux.dispatch(const_ring_span{{runt, 3}, {runt + 3, 2}});
    EXPECT_EQ(demux.malformed(), 1u);
}

TEST(PortDemux, UnbindStopsDelivery) {
    port_demux demux;
    int count = 0;
    ASSERT_TRUE(
        demux.bind(1000, [&](std::span<const std::byte>) { ++count; }));
    demux.dispatch(segment_to(1000));
    demux.unbind(1000);
    demux.dispatch(segment_to(1000));
    EXPECT_EQ(count, 1);
    EXPECT_EQ(demux.no_listener_drops(), 1u);
}

TEST(PortDemux, RejectsDoubleBindKeepsFirstListener) {
    port_demux demux;
    int first = 0, second = 0;
    ASSERT_TRUE(demux.bind(1000, [&](std::span<const std::byte>) { ++first; }));
    // A second bind on a live port must not hijack the existing flow.
    EXPECT_FALSE(
        demux.bind(1000, [&](std::span<const std::byte>) { ++second; }));
    EXPECT_EQ(demux.bind_conflicts(), 1u);
    EXPECT_EQ(demux.bound_ports(), 1u);
    demux.dispatch(segment_to(1000));
    EXPECT_EQ(first, 1);
    EXPECT_EQ(second, 0);
}

TEST(PortDemux, RebindReplacesHandlerExplicitly) {
    port_demux demux;
    int first = 0, second = 0;
    ASSERT_TRUE(demux.bind(1000, [&](std::span<const std::byte>) { ++first; }));
    demux.rebind(1000, [&](std::span<const std::byte>) { ++second; });
    demux.dispatch(segment_to(1000));
    EXPECT_EQ(first, 0);
    EXPECT_EQ(second, 1);
    EXPECT_EQ(demux.bind_conflicts(), 0u);  // rebind is not a conflict
    // rebind on a free port is an ordinary bind.
    demux.rebind(2000, [&](std::span<const std::byte>) { ++second; });
    EXPECT_EQ(demux.bound_ports(), 2u);
}

TEST(PortAllocator, ExhaustionIsExplicitAndReleaseRecycles) {
    port_allocator ports(100, 103);
    EXPECT_EQ(ports.capacity(), 4u);
    std::vector<std::uint16_t> got;
    for (int i = 0; i < 4; ++i) {
        const auto p = ports.allocate();
        ASSERT_TRUE(p.has_value());
        got.push_back(*p);
    }
    EXPECT_EQ(ports.allocated(), 4u);
    // Range exhausted: explicit error, not a duplicate port.
    EXPECT_FALSE(ports.allocate().has_value());

    // Released ports are handed out again (LIFO).
    ports.release(got[1]);
    ports.release(got[2]);
    const auto again = ports.allocate();
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, got[2]);
    EXPECT_EQ(ports.allocated(), 3u);
}

TEST(PortAllocator, HandsOutDistinctPortsAcrossChurn) {
    port_allocator ports(10, 29);
    std::vector<std::uint16_t> live;
    for (int round = 0; round < 8; ++round) {
        while (ports.allocated() < 10) {
            const auto p = ports.allocate();
            ASSERT_TRUE(p.has_value());
            for (const std::uint16_t q : live) ASSERT_NE(*p, q);
            live.push_back(*p);
        }
        // Tear down half the "flows".
        for (int i = 0; i < 5; ++i) {
            ports.release(live.back());
            live.pop_back();
        }
    }
}

// High-churn microbench assertion: the allocator promises strictly O(1),
// allocation-free operation after construction.  The structural witness is
// the free list's capacity — reserved for the whole range in the ctor — which
// must survive any churn pattern unchanged (a push_back that grew the vector
// would change it).  The busy bitmap keeps double-release detection O(1).
TEST(PortAllocator, ChurnNeverReallocatesTheFreeList) {
    port_allocator ports(1'000, 1'999);  // 1000-port range
    const std::size_t reserved = ports.free_list_capacity();
    EXPECT_GE(reserved, ports.capacity());

    std::vector<std::uint16_t> live;
    live.reserve(ports.capacity());
    // Fill the whole range, drain it completely, then churn at varying
    // occupancy: every shape the engine's open/finish cycle can produce.
    while (auto p = ports.allocate()) live.push_back(*p);
    EXPECT_EQ(ports.allocated(), ports.capacity());
    while (!live.empty()) {
        ports.release(live.back());
        live.pop_back();
    }
    EXPECT_EQ(ports.allocated(), 0u);
    EXPECT_EQ(ports.free_list_size(), ports.capacity());

    for (int round = 0; round < 200; ++round) {
        const std::size_t target = 1 + (round * 7) % ports.capacity();
        while (ports.allocated() < target) {
            const auto p = ports.allocate();
            ASSERT_TRUE(p.has_value());
            live.push_back(*p);
        }
        const std::size_t keep = target / 2;
        while (live.size() > keep) {
            ports.release(live.back());
            live.pop_back();
        }
        // O(1) witness: same reservation as at construction, every round.
        ASSERT_EQ(ports.free_list_capacity(), reserved);
    }
    EXPECT_EQ(ports.allocated(), live.size());
}

TEST(PortAllocatorDeathTest, DoubleReleaseIsCaughtInConstantTime) {
    port_allocator ports(50, 59);
    const auto p = ports.allocate();
    ASSERT_TRUE(p.has_value());
    ports.release(*p);
    EXPECT_DEATH(ports.release(*p), "busy_");
}

TEST(PortDemux, TwoConnectionsShareOnePipe) {
    // Two independent unidirectional TCP connections (distinct port pairs)
    // multiplexed over a single forward pipe and a single reverse pipe,
    // demuxed at each end — the §3.1 architecture.
    virtual_clock clock;
    duplex_link link(clock, 50);
    port_demux data_demux;  // receiver side
    port_demux ack_demux;   // sender side
    link.forward().set_receiver(data_demux.receiver());
    link.reverse().set_receiver(ack_demux.receiver());

    tcp::connection_config cfg_a;
    cfg_a.local_port = 5001;
    cfg_a.remote_port = 5002;
    tcp::connection_config cfg_b;
    cfg_b.local_port = 6001;
    cfg_b.remote_port = 6002;

    tcp::tcp_sender<direct_memory> sender_a(direct_memory{}, clock,
                                            link.forward(), cfg_a);
    tcp::tcp_sender<direct_memory> sender_b(direct_memory{}, clock,
                                            link.forward(), cfg_b);
    tcp::tcp_receiver<direct_memory> receiver_a(direct_memory{}, clock,
                                                link.reverse(),
                                                tcp::mirrored(cfg_a));
    tcp::tcp_receiver<direct_memory> receiver_b(direct_memory{}, clock,
                                                link.reverse(),
                                                tcp::mirrored(cfg_b));

    ASSERT_TRUE(data_demux.bind(5002, [&](std::span<const std::byte> p) {
        receiver_a.on_packet(p);
    }));
    ASSERT_TRUE(data_demux.bind(6002, [&](std::span<const std::byte> p) {
        receiver_b.on_packet(p);
    }));
    ASSERT_TRUE(ack_demux.bind(5001, [&](std::span<const std::byte> p) {
        sender_a.on_ack_packet(p);
    }));
    ASSERT_TRUE(ack_demux.bind(6001, [&](std::span<const std::byte> p) {
        sender_b.on_ack_packet(p);
    }));

    std::vector<std::vector<std::byte>> got_a, got_b;
    std::vector<std::byte> pending_a, pending_b;
    const auto wire_processor = [](std::vector<std::byte>& pending) {
        return [&pending](std::span<std::byte> payload) {
            checksum::inet_accumulator acc;
            acc.add_bytes(direct_memory{}, payload, 2);
            pending.assign(payload.begin(), payload.end());
            return tcp::rx_process_result{acc.folded(), true};
        };
    };
    receiver_a.set_processor(wire_processor(pending_a));
    receiver_b.set_processor(wire_processor(pending_b));
    receiver_a.set_accept_handler(
        [&](std::size_t) { got_a.push_back(pending_a); });
    receiver_b.set_accept_handler(
        [&](std::size_t) { got_b.push_back(pending_b); });

    // Interleave sends on both connections.
    rng r(1);
    std::vector<std::vector<std::byte>> sent_a, sent_b;
    const auto fill_from = [](const std::vector<std::byte>& msg) {
        return [&msg](const ring_span& dst) {
            std::memcpy(dst.first.data(), msg.data(), dst.first.size());
            if (!dst.second.empty()) {
                std::memcpy(dst.second.data(), msg.data() + dst.first.size(),
                            dst.second.size());
            }
            return std::optional<std::uint16_t>();
        };
    };
    for (int i = 0; i < 10; ++i) {
        sent_a.emplace_back(100 + i);
        r.fill(sent_a.back());
        ASSERT_TRUE(sender_a.send_message(sent_a.back().size(),
                                          fill_from(sent_a.back())));
        sent_b.emplace_back(50 + i);
        r.fill(sent_b.back());
        ASSERT_TRUE(sender_b.send_message(sent_b.back().size(),
                                          fill_from(sent_b.back())));
        clock.advance(500);
    }
    while ((!sender_a.idle() || !sender_b.idle()) &&
           clock.now() < 10'000'000) {
        clock.advance(500);
    }

    ASSERT_EQ(got_a.size(), sent_a.size());
    ASSERT_EQ(got_b.size(), sent_b.size());
    for (std::size_t i = 0; i < sent_a.size(); ++i) {
        EXPECT_EQ(got_a[i], sent_a[i]);
        EXPECT_EQ(got_b[i], sent_b[i]);
    }
    EXPECT_EQ(data_demux.no_listener_drops(), 0u);
    EXPECT_EQ(ack_demux.no_listener_drops(), 0u);
}

}  // namespace
}  // namespace ilp::net
