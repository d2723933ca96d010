// Tests for the early-manipulation send variant (§3.2.2's alternative):
// wire equivalence with the standard ILP path, correct behaviour under a
// full TCP buffer, and its extra-pass cost accounting.
#include <gtest/gtest.h>

#include <cstring>

#include "app/early_send.h"
#include "app/send_path.h"
#include "crypto/safer_simplified.h"
#include "memsim/configs.h"
#include "net/datagram.h"
#include "rpc/messages.h"
#include "util/rng.h"

namespace ilp::app {
namespace {

using memsim::direct_memory;

struct fixture {
    virtual_clock clock;
    net::duplex_link link{clock, 100};
    tcp::connection_config cfg;
    tcp::tcp_sender<direct_memory> sender;
    std::vector<std::vector<std::byte>> wire_packets;

    explicit fixture(std::size_t send_buffer = 16 * 1024)
        : cfg(make_cfg(send_buffer)),
          sender(direct_memory{}, clock, link.forward(), cfg) {
        link.forward().set_receiver([this](std::span<const std::byte> p) {
            wire_packets.emplace_back(p.begin(), p.end());
        });
    }

    static tcp::connection_config make_cfg(std::size_t send_buffer) {
        tcp::connection_config c;
        c.send_buffer_bytes = send_buffer;
        c.recv_window_bytes = send_buffer;
        return c;
    }
};

std::array<std::byte, 8> key() {
    std::array<std::byte, 8> k;
    rng r(1);
    r.fill(k);
    return k;
}

// The standard (delay-everything) ILP send: reserve the segment, run the
// fused fill into it, commit.
bool send_ilp(fixture& f, const crypto::safer_simplified& cipher,
              const core::gather_source& src, const core::message_plan& plan,
              path_counters& counters) {
    const bool sent =
        f.sender.send_message(plan.total_bytes, [&](const ring_span& dst) {
            return fill_message_ilp(direct_memory{}, cipher, src, plan, dst);
        });
    if (sent) {
        count_sent(counters, path_mode::ilp, plan.total_bytes,
                   plan.total_bytes);
    }
    return sent;
}

rpc::reply_header header_for(std::uint32_t offset) {
    rpc::reply_header h;
    h.request_id = 1;
    h.offset = offset;
    h.total_bytes = 4096;
    return h;
}

TEST(EarlySend, WireIdenticalToStandardIlpPath) {
    const auto k = key();
    const crypto::safer_simplified cipher(k);
    std::vector<std::byte> payload(500);
    rng r(2);
    r.fill(payload);

    rpc::reply_staging staging1, staging2;
    const auto src1 = rpc::make_reply_source(header_for(0), payload, staging1);
    const auto src2 = rpc::make_reply_source(header_for(0), payload, staging2);
    const auto layout = rpc::layout_reply(payload.size());

    fixture standard;
    path_counters std_counters;
    ASSERT_TRUE(send_ilp(standard, cipher, src1, layout.plan, std_counters));
    standard.clock.advance(1000);

    fixture early;
    path_counters early_counters;
    early_sender<direct_memory, crypto::safer_simplified> stage(
        direct_memory{}, cipher, 4096);
    stage.prepare(src2, layout.plan, early_counters);
    ASSERT_TRUE(stage.try_flush(early.sender, early_counters));
    early.clock.advance(1000);

    ASSERT_EQ(standard.wire_packets.size(), 1u);
    ASSERT_EQ(early.wire_packets.size(), 1u);
    EXPECT_EQ(standard.wire_packets[0], early.wire_packets[0]);
}

TEST(EarlySend, ManipulatesWhileBufferFullThenFlushes) {
    const auto k = key();
    const crypto::safer_simplified cipher(k);
    std::vector<std::byte> filler_payload(rpc::max_payload_for_wire(1024));
    rng r(3);
    r.fill(filler_payload);

    // A tiny TCP buffer that the first message fills completely.
    fixture f(1024);
    path_counters counters;
    rpc::reply_staging s1;
    const auto first =
        rpc::make_reply_source(header_for(0), filler_payload, s1);
    ASSERT_TRUE(send_ilp(f, cipher, first,
                         rpc::layout_reply(filler_payload.size()).plan,
                         counters));
    EXPECT_EQ(f.sender.sendable_bytes(), 0u);

    // The second message cannot enter TCP yet — but early manipulation
    // proceeds anyway.
    std::vector<std::byte> payload(64);
    r.fill(payload);
    rpc::reply_staging s2;
    const auto second = rpc::make_reply_source(header_for(900), payload, s2);
    early_sender<direct_memory, crypto::safer_simplified> stage(
        direct_memory{}, cipher, 4096);
    stage.prepare(second, rpc::layout_reply(payload.size()).plan, counters);
    EXPECT_TRUE(stage.has_pending());
    EXPECT_FALSE(stage.try_flush(f.sender, counters));  // still no room
    EXPECT_TRUE(stage.has_pending());

    // An ACK frees the buffer; the pending message flushes without any
    // further manipulation work.
    tcp::header_fields ack;
    ack.src_port = f.cfg.remote_port;
    ack.dst_port = f.cfg.local_port;
    ack.ack = f.sender.next_seq();
    ack.control = tcp::flags::ack;
    ack.window = 0xffff;
    std::byte ack_wire[tcp::header_bytes];
    tcp::serialize_header(ack, ack_wire);
    const std::uint16_t cksum = tcp::finish_segment_checksum(
        f.cfg.remote_addr, f.cfg.local_addr, ack_wire, 0, 0);
    store_be16(ack_wire + 16, cksum);
    f.sender.on_ack_packet({ack_wire, tcp::header_bytes});

    EXPECT_TRUE(stage.try_flush(f.sender, counters));
    EXPECT_FALSE(stage.has_pending());
    f.clock.advance(1000);
    EXPECT_EQ(f.wire_packets.size(), 2u);
}

TEST(EarlySend, CostsOneExtraPass) {
    // Accounting: the early variant's fused loop bytes equal the standard
    // path's, plus a staging->ring copy pass of the same size.
    const auto k = key();
    const crypto::safer_simplified cipher(k);
    std::vector<std::byte> payload(256);
    rng r(4);
    r.fill(payload);
    rpc::reply_staging s1, s2;
    const auto src1 = rpc::make_reply_source(header_for(0), payload, s1);
    const auto src2 = rpc::make_reply_source(header_for(0), payload, s2);
    const auto layout = rpc::layout_reply(payload.size());

    fixture a, b;
    path_counters std_counters, early_counters;
    ASSERT_TRUE(send_ilp(a, cipher, src1, layout.plan, std_counters));
    early_sender<direct_memory, crypto::safer_simplified> stage(
        direct_memory{}, cipher, 4096);
    stage.prepare(src2, layout.plan, early_counters);
    ASSERT_TRUE(stage.try_flush(b.sender, early_counters));

    EXPECT_EQ(std_counters.fused_loop_bytes, early_counters.fused_loop_bytes);
    EXPECT_EQ(std_counters.copy_pass_bytes, 0u);
    EXPECT_EQ(early_counters.copy_pass_bytes, layout.wire_bytes);
}

}  // namespace
}  // namespace ilp::app
