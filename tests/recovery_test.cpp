// End-to-end failure recovery: the fault *plan* (burst loss, outages,
// truncation, finite kernel queue), TCP failure signalling (RST, reset,
// persist probes, hostile ACKs) and RPC-level retry with resumable
// transfers.  The chaos matrix at the bottom is the subsystem's contract:
// every transfer either completes byte-verified or reports an explicit
// failure — it never hangs until the deadline.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "app/harness.h"
#include "checksum/internet_checksum.h"
#include "crypto/safer_k64.h"
#include "crypto/safer_simplified.h"
#include "memsim/mem_policy.h"
#include "net/datagram.h"
#include "tcp/connection.h"
#include "tcp/header.h"
#include "util/rng.h"

namespace ilp {
namespace {

using memsim::direct_memory;
using namespace ilp::tcp;

// ---------------------------------------------------------------------------
// Fault plan (net layer)

std::vector<std::byte> pattern(std::size_t n) {
    std::vector<std::byte> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::byte>(i);
    return v;
}

TEST(FaultPlan, OutageWindowDropsEverythingInside) {
    virtual_clock clock;
    net::fault_config faults;
    faults.outages.push_back({1000, 2000});
    net::datagram_pipe pipe(clock, 10, faults);
    std::size_t delivered = 0;
    pipe.set_receiver([&](std::span<const std::byte>) { ++delivered; });

    const auto msg = pattern(64);
    pipe.send(direct_memory{}, msg);  // t = 0: before the outage
    clock.advance(1500);              // t = 1500: inside
    pipe.send(direct_memory{}, msg);
    clock.advance(1000);              // t = 2500: after
    pipe.send(direct_memory{}, msg);
    clock.advance(100);

    EXPECT_EQ(delivered, 2u);
    EXPECT_EQ(pipe.stats().packets_outage_dropped, 1u);
    EXPECT_EQ(pipe.stats().packets_dropped, 1u);
}

TEST(FaultPlan, FiniteQueueTailDrops) {
    virtual_clock clock;
    net::fault_config faults;
    faults.max_queue_packets = 2;
    net::datagram_pipe pipe(clock, 100, faults);
    std::size_t delivered = 0;
    pipe.set_receiver([&](std::span<const std::byte>) { ++delivered; });

    const auto msg = pattern(32);
    for (int i = 0; i < 5; ++i) pipe.send(direct_memory{}, msg);
    clock.advance(200);

    EXPECT_EQ(delivered, 2u);
    EXPECT_EQ(pipe.stats().packets_queue_dropped, 3u);
    EXPECT_EQ(pipe.stats().packets_dropped, 3u);
}

TEST(FaultPlan, TruncationDeliversProperPrefix) {
    virtual_clock clock;
    net::fault_config faults;
    faults.truncate_probability = 1.0;
    faults.seed = 42;
    net::datagram_pipe pipe(clock, 0, faults);
    std::vector<std::byte> received;
    pipe.set_receiver([&](std::span<const std::byte> p) {
        received.assign(p.begin(), p.end());
    });

    const auto msg = pattern(100);
    pipe.send(direct_memory{}, msg);
    clock.advance(1);

    ASSERT_FALSE(received.empty());
    EXPECT_LT(received.size(), msg.size());
    EXPECT_EQ(std::memcmp(received.data(), msg.data(), received.size()), 0);
    EXPECT_EQ(pipe.stats().packets_truncated, 1u);
}

TEST(FaultPlan, GilbertElliottBurstsAreCorrelated) {
    virtual_clock clock;
    net::fault_config faults;
    faults.burst.enabled = true;
    faults.burst.p_good_to_bad = 0.1;
    faults.burst.p_bad_to_good = 0.3;
    faults.burst.good_loss = 0.0;
    faults.burst.bad_loss = 1.0;
    faults.seed = 7;
    net::datagram_pipe pipe(clock, 0, faults);
    // Record the per-packet loss pattern to measure correlation.
    std::vector<bool> lost;
    bool delivered = false;
    pipe.set_receiver([&](std::span<const std::byte>) { delivered = true; });
    const auto msg = pattern(16);
    constexpr int packets = 2000;
    for (int i = 0; i < packets; ++i) {
        delivered = false;
        pipe.send(direct_memory{}, msg);
        clock.advance(1);
        lost.push_back(!delivered);
    }
    const auto& s = pipe.stats();
    EXPECT_EQ(s.packets_dropped, s.packets_burst_dropped);
    EXPECT_GT(s.packets_dropped, 0u);
    EXPECT_LT(s.packets_dropped, static_cast<std::uint64_t>(packets));
    // Correlation: P(loss | previous loss) must far exceed the marginal
    // loss rate — that is the whole point of the two-state model.
    int loss_after_loss = 0;
    int losses = 0;
    for (int i = 1; i < packets; ++i) {
        if (lost[i - 1]) {
            ++losses;
            if (lost[i]) ++loss_after_loss;
        }
    }
    ASSERT_GT(losses, 0);
    const double conditional =
        static_cast<double>(loss_after_loss) / static_cast<double>(losses);
    const double marginal =
        static_cast<double>(s.packets_dropped) / static_cast<double>(packets);
    EXPECT_GT(conditional, marginal * 1.5);
}

TEST(FaultPlan, ExtendedPlanReplaysBitForBit) {
    // The whole point of a seeded fault plan: two pipes with the same plan
    // observe identical loss/truncation sequences.
    net::fault_config faults;
    faults.drop_probability = 0.05;
    faults.truncate_probability = 0.1;
    faults.burst.enabled = true;
    faults.burst.p_good_to_bad = 0.05;
    faults.burst.p_bad_to_good = 0.3;
    faults.burst.bad_loss = 0.9;
    faults.max_queue_packets = 4;
    faults.seed = 99;

    std::vector<std::size_t> sizes_a;
    std::vector<std::size_t> sizes_b;
    for (auto* sizes : {&sizes_a, &sizes_b}) {
        virtual_clock clock;
        net::datagram_pipe pipe(clock, 5, faults);
        pipe.set_receiver([sizes](std::span<const std::byte> p) {
            sizes->push_back(p.size());
        });
        const auto msg = pattern(200);
        for (int i = 0; i < 400; ++i) {
            pipe.send(direct_memory{}, msg);
            clock.advance(3);
        }
        clock.advance(100);
    }
    EXPECT_FALSE(sizes_a.empty());
    EXPECT_EQ(sizes_a, sizes_b);
}

// ---------------------------------------------------------------------------
// TCP failure signalling

// Endpoint pair over a duplex link with a trivial data path, mirroring the
// harness in tcp_extra_test.
struct pair {
    virtual_clock clock;
    net::duplex_link link;
    tcp_sender<direct_memory> sender;
    tcp_receiver<direct_memory> receiver;
    std::size_t accepted = 0;
    int failures_signalled = 0;

    explicit pair(connection_config cfg, net::fault_config forward = {},
                  net::fault_config reverse = {})
        : link(clock, 100, forward, reverse),
          sender(direct_memory{}, clock, link.forward(), cfg),
          receiver(direct_memory{}, clock, link.reverse(), mirrored(cfg)) {
        link.forward().set_receiver(
            [this](std::span<const std::byte> p) { receiver.on_packet(p); });
        link.reverse().set_receiver(
            [this](std::span<const std::byte> p) { sender.on_ack_packet(p); });
        receiver.set_processor([](std::span<std::byte> payload) {
            checksum::inet_accumulator acc;
            acc.add_bytes(direct_memory{}, payload, 2);
            return rx_process_result{acc.folded(), true};
        });
        receiver.set_accept_handler([this](std::size_t) { ++accepted; });
        receiver.set_failure_handler([this] { ++failures_signalled; });
    }

    bool send(std::size_t n, std::uint64_t seed) {
        std::vector<std::byte> msg(n);
        rng r(seed);
        r.fill(msg);
        return sender.send_message(n, [&](const ring_span& dst) {
            std::memcpy(dst.first.data(), msg.data(), dst.first.size());
            if (!dst.second.empty()) {
                std::memcpy(dst.second.data(), msg.data() + dst.first.size(),
                            dst.second.size());
            }
            return std::optional<std::uint16_t>();
        });
    }

    void settle(sim_time max_us = 10'000'000) {
        const sim_time deadline = clock.now() + max_us;
        while (!sender.idle() && !sender.failed() && clock.now() < deadline) {
            clock.advance(500);
        }
    }

    // An ACK as the peer would produce it, with a *valid* checksum.
    std::vector<std::byte> craft_ack(std::uint32_t ack, std::uint16_t window) {
        const connection_config cfg;  // pair tests keep default ports/addrs
        header_fields h;
        h.src_port = cfg.remote_port;
        h.dst_port = cfg.local_port;
        h.ack = ack;
        h.control = flags::ack;
        h.window = window;
        std::vector<std::byte> pkt(header_bytes);
        serialize_header(h, pkt);
        h.checksum = finish_segment_checksum(cfg.remote_addr, cfg.local_addr,
                                             pkt, 0, 0);
        serialize_header(h, pkt);
        return pkt;
    }
};

TEST(TcpFailure, SenderGiveUpEmitsRstAndReceiverLearns) {
    connection_config cfg;
    cfg.rto_us = 5'000;
    cfg.max_retries = 2;
    net::fault_config reverse;  // all ACKs lost: the sender must give up
    reverse.drop_probability = 1.0;
    pair p(cfg, {}, reverse);

    ASSERT_TRUE(p.send(100, 1));
    for (int i = 0; i < 20 && !p.sender.failed(); ++i) p.clock.advance(5'000);
    p.clock.advance(1'000);  // let the RST cross the link

    EXPECT_TRUE(p.sender.failed());
    EXPECT_EQ(p.sender.stats().rsts_sent, 1u);
    EXPECT_TRUE(p.receiver.peer_failed());
    EXPECT_EQ(p.receiver.stats().rsts_received, 1u);
    EXPECT_EQ(p.failures_signalled, 1);
}

TEST(TcpFailure, ResetReestablishesAfterFailure) {
    connection_config cfg;
    cfg.rto_us = 5'000;
    cfg.max_retries = 1;
    pair p(cfg);
    // Sabotage: swallow ACKs by replacing the reverse receiver.
    p.link.reverse().set_receiver([](std::span<const std::byte>) {});
    ASSERT_TRUE(p.send(64, 2));
    for (int i = 0; i < 10 && !p.sender.failed(); ++i) p.clock.advance(5'000);
    p.clock.advance(1'000);  // let the RST cross the link
    ASSERT_TRUE(p.sender.failed());
    ASSERT_TRUE(p.receiver.peer_failed());

    // Both endpoints rewind to an agreed ISN; traffic flows again.
    p.link.reverse().set_receiver(
        [&p](std::span<const std::byte> pk) { p.sender.on_ack_packet(pk); });
    p.sender.reset(5'000'000);
    p.receiver.reset(5'000'000);
    EXPECT_FALSE(p.sender.failed());
    EXPECT_FALSE(p.receiver.peer_failed());
    ASSERT_TRUE(p.send(64, 3));
    p.settle();
    EXPECT_TRUE(p.sender.idle());
    EXPECT_EQ(p.accepted, 2u);  // the pre-failure delivery plus this one
    EXPECT_EQ(p.sender.stats().resets, 1u);
    EXPECT_EQ(p.receiver.stats().resets, 1u);
}

TEST(TcpFailure, RstWithBadChecksumIsIgnored) {
    connection_config cfg;
    pair p(cfg);
    header_fields h;
    h.src_port = cfg.remote_port;
    h.dst_port = cfg.local_port;
    h.control = flags::rst;
    std::byte wire[header_bytes];
    serialize_header(h, wire);  // checksum field left zero: invalid
    p.receiver.on_packet({wire, header_bytes});
    EXPECT_FALSE(p.receiver.peer_failed());
    EXPECT_EQ(p.receiver.stats().rsts_received, 0u);
    EXPECT_EQ(p.receiver.stats().header_failures, 1u);
}

// Regression for the abort-on-untrusted-input bug: a crafted, checksum-valid
// ACK for data never sent (a corrupted packet whose 16-bit checksum
// collides, or a forgery) used to trip ILP_EXPECT and abort the process.
TEST(TcpHostile, CraftedFutureAckIsCountedNotFatal) {
    connection_config cfg;
    pair p(cfg);
    ASSERT_TRUE(p.send(100, 4));

    const auto forged = p.craft_ack(p.sender.next_seq() + 4096, 16384);
    p.sender.on_ack_packet(forged);

    EXPECT_EQ(p.sender.stats().bad_acks, 1u);
    EXPECT_FALSE(p.sender.idle());  // nothing was released
    p.settle();
    EXPECT_TRUE(p.sender.idle());  // the genuine ACK still lands
    EXPECT_EQ(p.accepted, 1u);
}

// ---------------------------------------------------------------------------
// Sender flow-control edges

TEST(TcpFlowControl, RingFullBlocksUntilAcked) {
    connection_config cfg;
    cfg.send_buffer_bytes = 1024;
    pair p(cfg);
    ASSERT_TRUE(p.send(512, 5));
    ASSERT_TRUE(p.send(512, 6));   // retransmission ring now full
    EXPECT_FALSE(p.send(512, 7));  // blocked: no buffer space
    EXPECT_EQ(p.sender.stats().send_blocked, 1u);
    p.settle();
    ASSERT_TRUE(p.sender.idle());  // ACKs released the ring
    EXPECT_TRUE(p.send(512, 7));
}

TEST(TcpFlowControl, AckCarriedWindowCloseAndReopen) {
    connection_config cfg;
    pair p(cfg);
    ASSERT_TRUE(p.send(256, 8));
    const std::uint32_t acked = p.sender.next_seq();
    p.sender.on_ack_packet(p.craft_ack(acked, 0));  // all acked, window 0
    ASSERT_TRUE(p.sender.idle());
    EXPECT_EQ(p.sender.sendable_bytes(), 0u);
    EXPECT_FALSE(p.send(256, 9));  // zero window blocks the send
    EXPECT_EQ(p.sender.stats().send_blocked, 1u);
    // A (duplicate) ACK reopening the window unblocks it.
    p.sender.on_ack_packet(p.craft_ack(acked, 8192));
    EXPECT_GT(p.sender.sendable_bytes(), 0u);
    EXPECT_TRUE(p.send(256, 9));
}

TEST(TcpFlowControl, ZeroWindowPersistProbeUnwedgesTheSender) {
    // A peer advertising window 0 with nothing in flight used to wedge the
    // sender permanently: no outstanding data means no RTO, and no traffic
    // means no ACK would ever re-open the window.  The persist probe breaks
    // the cycle end to end.
    connection_config cfg;
    cfg.rto_us = 10'000;
    pair p(cfg);
    ASSERT_TRUE(p.send(128, 10));
    p.settle();
    ASSERT_TRUE(p.sender.idle());

    p.sender.on_ack_packet(p.craft_ack(p.sender.next_seq(), 0));
    EXPECT_EQ(p.sender.sendable_bytes(), 0u);

    // The probe reaches the real receiver, whose ACK re-advertises its
    // actual window, restoring service.
    for (int i = 0; i < 40 && p.sender.sendable_bytes() == 0; ++i) {
        p.clock.advance(5'000);
    }
    EXPECT_GT(p.sender.stats().window_probes, 0u);
    EXPECT_GT(p.sender.sendable_bytes(), 0u);
    EXPECT_TRUE(p.send(128, 11));
    p.settle();
    EXPECT_TRUE(p.sender.idle());
    EXPECT_EQ(p.accepted, 2u);
}

// ---------------------------------------------------------------------------
// RPC-level retry + resume (application layer, full stack)

using crypto::safer_simplified;

engine::flow_config base_config() {
    engine::flow_config config;
    config.file_bytes = 12 * 1024;
    config.packet_wire_bytes = 512;
    config.retry.response_timeout_us = 2'000'000;
    config.retry.max_attempts = 5;
    return config;
}

TEST(Recovery, OutageMidTransferIsResumedNotRestarted) {
    engine::flow_config config = base_config();
    // Big enough that the transfer is mid-flight when the reply link dies;
    // the outage outlasts TCP's give-up point (8 retries x 200 ms), so
    // recovery must come from the RPC layer.
    config.file_bytes = 128 * 1024;
    config.forward_faults.outages.push_back({1'000, 3'000'000});
    const auto result = app::run_transfer_native<safer_simplified>(config);
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(result.verified);
    EXPECT_GE(result.recovery.rpc_retries, 1u);
    EXPECT_GE(result.recovery.connection_resets, 2u);
    EXPECT_GE(result.recovery.rsts_sent, 1u);
    // Resume, not restart: the re-served portion stays far below the file.
    EXPECT_LT(result.recovery.refetched_bytes, config.file_bytes / 2);
}

TEST(Recovery, BlackoutFailsExplicitlyBeforeDeadline) {
    engine::flow_config config = base_config();
    config.forward_faults.outages.push_back(
        {0, 1'000'000'000'000ull});  // permanent
    const auto result = app::run_transfer_native<safer_simplified>(config);
    EXPECT_FALSE(result.completed);
    EXPECT_TRUE(result.recovery.gave_up);
    EXPECT_EQ(result.recovery.rpc_retries, config.retry.max_attempts - 1);
    EXPECT_LT(result.elapsed_us, config.deadline_us);
}

TEST(Recovery, RequestLinkFailureIsAlsoRecovered) {
    engine::flow_config config = base_config();
    config.file_bytes = 4 * 1024;
    // The *request* link (not the reply link) blacks out long enough for
    // the client's request sender to give up, then comes back.
    config.request_forward_faults.outages.push_back({0, 2'200'000});
    const auto result = app::run_transfer_native<safer_simplified>(config);
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(result.verified);
    EXPECT_GE(result.recovery.rpc_retries, 1u);
}

// A corrupted reply decrypts to a garbage file size.  The client adopts a
// reply's geometry only once TCP has accepted the segment; these seeds
// corrupt the first reply so that it claims 16,088 bytes (safer_simplified,
// seed 2814) or 148 MB (safer_k64, seed 2747).  Latched before the checksum
// verdict, that size made every later reply mismatch until the flow gave up.
template <typename Cipher>
app::transfer_result corrupted_first_reply(std::uint64_t seed) {
    engine::flow_config config;
    config.file_bytes = 4096;
    config.packet_wire_bytes = 1024;
    config.forward_faults.corrupt_probability = 0.3;
    config.forward_faults.corrupt_span = net::corrupt_target::payload;
    config.forward_faults.seed = seed;
    config.retry.response_timeout_us = 50'000;
    const Cipher cipher = engine::make_static_cipher<Cipher>(seed);
    return app::run_transfer(config, direct_memory{}, direct_memory{}, cipher,
                             cipher);
}

TEST(Recovery, ReplyGeometryWaitsForTcpAcceptance) {
    const app::transfer_result simplified =
        corrupted_first_reply<safer_simplified>(2814);
    EXPECT_TRUE(simplified.completed);
    EXPECT_TRUE(simplified.verified);
    const app::transfer_result k64 =
        corrupted_first_reply<crypto::safer_k64>(2747);
    EXPECT_TRUE(k64.completed);
    EXPECT_TRUE(k64.verified);
}

// The chaos matrix: every fault plan here must end in one of exactly two
// states — byte-verified completion, or an explicit reported failure —
// well before the harness deadline.  Hanging until the deadline without a
// recorded recovery attempt is the failure mode this subsystem removes.
struct chaos_scenario {
    const char* name;
    void (*apply)(engine::flow_config&);
};

const chaos_scenario chaos_matrix[] = {
    {"clean", [](engine::flow_config&) {}},
    {"bernoulli",
     [](engine::flow_config& c) {
         c.forward_faults.drop_probability = 0.1;
         c.reverse_faults.drop_probability = 0.05;
     }},
    {"burst",
     [](engine::flow_config& c) {
         c.forward_faults.burst.enabled = true;
         c.forward_faults.burst.p_good_to_bad = 0.05;
         c.forward_faults.burst.p_bad_to_good = 0.25;
         c.forward_faults.burst.bad_loss = 0.95;
     }},
    {"outage",
     [](engine::flow_config& c) {
         c.file_bytes = 96 * 1024;  // still mid-flight at t = 1 ms
         c.forward_faults.outages.push_back({1'000, 2'500'000});
     }},
    {"repeated_outage",
     [](engine::flow_config& c) {
         c.file_bytes = 128 * 1024;
         c.forward_faults.outages.push_back({1'000, 2'500'000});
         c.forward_faults.outages.push_back({3'000'000, 4'500'000});
     }},
    {"truncating",
     [](engine::flow_config& c) {
         c.forward_faults.truncate_probability = 0.2;
     }},
    {"queue_overflow",
     [](engine::flow_config& c) {
         c.forward_faults.max_queue_packets = 2;
     }},
    {"blackout",
     [](engine::flow_config& c) {
         c.forward_faults.outages.push_back({0, 1'000'000'000'000ull});
     }},
    {"kitchen_sink",
     [](engine::flow_config& c) {
         c.forward_faults.burst.enabled = true;
         c.forward_faults.burst.p_good_to_bad = 0.05;
         c.forward_faults.burst.p_bad_to_good = 0.3;
         c.forward_faults.burst.bad_loss = 0.9;
         c.forward_faults.truncate_probability = 0.05;
         c.forward_faults.duplicate_probability = 0.05;
         c.forward_faults.corrupt_probability = 0.05;
         c.forward_faults.max_queue_packets = 16;
         c.reverse_faults.drop_probability = 0.05;
         c.request_forward_faults.drop_probability = 0.05;
         c.request_reverse_faults.drop_probability = 0.05;
     }},
};

class ChaosMatrix
    : public ::testing::TestWithParam<std::tuple<int, app::path_mode>> {};

TEST_P(ChaosMatrix, CompletesVerifiedOrFailsExplicitly) {
    const auto& [index, mode] = GetParam();
    const chaos_scenario& s = chaos_matrix[index];
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        engine::flow_config config = base_config();
        config.mode = mode;
        s.apply(config);
        config.forward_faults.seed = seed;
        config.reverse_faults.seed = seed + 100;
        config.request_forward_faults.seed = seed + 200;
        config.request_reverse_faults.seed = seed + 300;

        const auto result = app::run_transfer_native<safer_simplified>(config);
        if (result.completed) {
            EXPECT_TRUE(result.verified) << s.name << " seed " << seed;
        } else {
            // Explicit failure, reported by the retry machinery — never a
            // silent deadline expiry with no recovery attempt recorded.
            EXPECT_TRUE(result.recovery.gave_up) << s.name << " seed " << seed;
            EXPECT_GT(result.recovery.rpc_retries, 0u)
                << s.name << " seed " << seed;
            EXPECT_LT(result.elapsed_us, config.deadline_us)
                << s.name << " seed " << seed;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPlans, ChaosMatrix,
    ::testing::Combine(::testing::Range(0, 9),
                       ::testing::Values(app::path_mode::ilp,
                                         app::path_mode::layered)),
    [](const ::testing::TestParamInfo<std::tuple<int, app::path_mode>>& p) {
        return std::string(chaos_matrix[std::get<0>(p.param)].name) +
               (std::get<1>(p.param) == app::path_mode::ilp ? "_ilp"
                                                            : "_layered");
    });

}  // namespace
}  // namespace ilp
