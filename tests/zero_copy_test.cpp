// Zero-copy receive path: the datagram pipe's loaned-segment delivery, the
// TCP receiver's in-place chain processing, and the accounting contract —
// what the memory model counts is what the code actually touches (the old
// "remap" mode skipped the accounting but still performed the copy; these
// tests pin the honest behaviour on both paths).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "app/harness.h"
#include "buffer/byte_buffer.h"
#include "checksum/internet_checksum.h"
#include "core/fused_pipeline.h"
#include "core/stage.h"
#include "crypto/aead.h"
#include "crypto/safer_simplified.h"
#include "memsim/configs.h"
#include "memsim/mem_policy.h"
#include "memsim/touch_map.h"
#include "net/datagram.h"
#include "tcp/connection.h"
#include "tcp/header.h"
#include "util/endian.h"
#include "util/rng.h"

namespace ilp {
namespace {

using memsim::direct_memory;

std::vector<std::byte> random_payload(std::size_t n, std::uint64_t seed) {
    std::vector<std::byte> v(n);
    rng(seed).fill(v);
    return v;
}

// Crafts one valid data segment addressed to a receiver running `cfg`.
std::vector<std::byte> data_segment(const tcp::connection_config& cfg,
                                    std::uint32_t seq,
                                    std::span<const std::byte> payload) {
    tcp::header_fields h;
    h.src_port = cfg.remote_port;
    h.dst_port = cfg.local_port;
    h.seq = seq;
    h.control = tcp::flags::ack;
    std::vector<std::byte> pkt(tcp::header_bytes + payload.size());
    tcp::serialize_header(h, std::span(pkt).first(tcp::header_bytes));
    std::memcpy(pkt.data() + tcp::header_bytes, payload.data(),
                payload.size());
    checksum::inet_accumulator acc;
    acc.add_bytes(direct_memory{}, payload, 2);
    const std::uint16_t c = tcp::finish_segment_checksum(
        cfg.remote_addr, cfg.local_addr,
        std::span(pkt).first(tcp::header_bytes), acc.folded(),
        payload.size());
    store_be16(pkt.data() + 16, c);
    return pkt;
}

// Asserts every byte of a watched range saw exactly (reads, writes).
void expect_touches(const memsim::touch_map& map, const char* label,
                    std::uint32_t reads, std::uint32_t writes) {
    const std::size_t ri = map.find(label);
    ASSERT_NE(ri, memsim::touch_map::npos) << label;
    for (std::size_t i = 0; i < map.size(ri); ++i) {
        ASSERT_EQ(map.at(ri, i).reads, reads) << label << " byte " << i;
        ASSERT_EQ(map.at(ri, i).writes, writes) << label << " byte " << i;
    }
}

// The accounting regression: the staged receive copy must run through the
// memory policy.  The retired "remap" mode set zero_copy and skipped the
// modelled copy while still memcpy'ing — under a touch map the kernel
// packet then showed zero counted reads.  Now the config flag only selects
// the delivery mechanism; any copy that happens is a counted copy.
TEST(ZeroCopyAccounting, StagedCopyIsCountedByTheModel) {
    for (const bool zero_copy : {false, true}) {
        virtual_clock clock;
        net::datagram_pipe ack_pipe(clock, 100);
        tcp::connection_config cfg;
        cfg.zero_copy = zero_copy;
        memsim::memory_system sys(memsim::test_tiny());
        tcp::tcp_receiver<memsim::sim_memory> receiver(
            memsim::sim_memory(sys), clock, ack_pipe, cfg);
        receiver.set_processor([&](std::span<std::byte> p) {
            checksum::inet_accumulator acc;
            acc.add_bytes(direct_memory{}, p, 2);
            return tcp::rx_process_result{acc.folded(), true};
        });

        const auto payload = random_payload(64, 21);
        std::vector<std::byte> pkt =
            data_segment(cfg, cfg.initial_seq, payload);

        memsim::touch_map map;
        map.watch("kernel-packet", pkt.data(), pkt.size());
        sys.set_touch_map(&map);
        receiver.on_packet(pkt);
        sys.set_touch_map(nullptr);

        EXPECT_EQ(receiver.stats().messages_accepted, 1u);
        // The system copy reads the kernel packet exactly once, through the
        // model; nothing writes back into kernel memory.
        expect_touches(map, "kernel-packet", 1, 0);
    }
}

// In-place chain processing: a loaned segment's payload is read exactly
// once, straight out of kernel memory, and never written; the destination
// is written exactly once.  Modelled accesses == actual touches.
TEST(ZeroCopyReceiver, ChainPayloadReadExactlyOnceInPlace) {
    // Split mid-payload and (second iteration) mid-header: the header
    // staging and the fused loop must both walk the wrap correctly.
    for (const std::size_t split : {std::size_t{30}, std::size_t{7}}) {
        virtual_clock clock;
        net::datagram_pipe ack_pipe(clock, 100);
        tcp::connection_config cfg;
        cfg.zero_copy = true;
        memsim::memory_system sys(memsim::test_tiny());
        tcp::tcp_receiver<memsim::sim_memory> receiver(
            memsim::sim_memory(sys), clock, ack_pipe, cfg);

        byte_buffer dest(64);
        receiver.set_chain_processor([&](const const_ring_span& p) {
            checksum::inet_accumulator acc;
            core::checksum_tap8 tap(acc);
            auto loop = core::make_pipeline(tap);
            loop.run(memsim::sim_memory(sys), core::chain_source(p),
                     core::span_dest(dest.span().first(p.size())));
            return tcp::rx_process_result{acc.folded(), true};
        });

        const auto payload = random_payload(64, 22);
        const std::vector<std::byte> pkt =
            data_segment(cfg, cfg.initial_seq, payload);

        // Stage the segment as a wrap-straddling loan: arena tail holds the
        // first `split` bytes, arena head the rest.
        byte_buffer arena(pkt.size() + 32);
        std::byte* piece_a = arena.data() + arena.size() - split;
        std::byte* piece_b = arena.data();
        std::memcpy(piece_a, pkt.data(), split);
        std::memcpy(piece_b, pkt.data() + split, pkt.size() - split);
        const_ring_span loan;
        loan.first = {piece_a, split};
        loan.second = {piece_b, pkt.size() - split};

        memsim::touch_map map;
        map.watch("kernel-a", piece_a, split);
        map.watch("kernel-b", piece_b, pkt.size() - split);
        map.watch("dest", dest.data(), dest.size());
        sys.set_touch_map(&map);
        receiver.on_segment(loan);
        sys.set_touch_map(nullptr);

        EXPECT_EQ(receiver.stats().messages_accepted, 1u) << split;
        EXPECT_EQ(std::memcmp(dest.data(), payload.data(), payload.size()),
                  0)
            << split;
        // Header bytes: staged once (one counted read); payload bytes: the
        // fused loop's single pass (one counted read).  Exactly once each,
        // and the kernel loan is never written.
        expect_touches(map, "kernel-a", 1, 0);
        expect_touches(map, "kernel-b", 1, 0);
        expect_touches(map, "dest", 0, 1);
    }
}

// Without a chain processor (the layered path), a loaned segment falls back
// to a staged copy — an honest, counted copy, after which the span
// processor runs over contiguous memory.
TEST(ZeroCopyReceiver, LayeredFallbackStagesCountedCopy) {
    virtual_clock clock;
    net::datagram_pipe ack_pipe(clock, 100);
    tcp::connection_config cfg;
    cfg.zero_copy = true;
    memsim::memory_system sys(memsim::test_tiny());
    tcp::tcp_receiver<memsim::sim_memory> receiver(memsim::sim_memory(sys),
                                                   clock, ack_pipe, cfg);
    std::vector<std::byte> seen;
    receiver.set_processor([&](std::span<std::byte> p) {
        seen.assign(p.begin(), p.end());
        checksum::inet_accumulator acc;
        acc.add_bytes(direct_memory{}, p, 2);
        return tcp::rx_process_result{acc.folded(), true};
    });

    const auto payload = random_payload(48, 23);
    const std::vector<std::byte> pkt =
        data_segment(cfg, cfg.initial_seq, payload);
    byte_buffer arena(pkt.size() + 16);
    const std::size_t split = 25;
    std::byte* piece_a = arena.data() + arena.size() - split;
    std::memcpy(piece_a, pkt.data(), split);
    std::memcpy(arena.data(), pkt.data() + split, pkt.size() - split);
    const_ring_span loan;
    loan.first = {piece_a, split};
    loan.second = {arena.data(), pkt.size() - split};

    memsim::touch_map map;
    map.watch("kernel-a", piece_a, split);
    map.watch("kernel-b", arena.data(), pkt.size() - split);
    sys.set_touch_map(&map);
    receiver.on_segment(loan);
    sys.set_touch_map(nullptr);

    EXPECT_EQ(receiver.stats().messages_accepted, 1u);
    EXPECT_EQ(seen, payload);
    // Header + payload each staged through the model exactly once.
    expect_touches(map, "kernel-a", 1, 0);
    expect_touches(map, "kernel-b", 1, 0);
}

// The pipe's loan delivery: contents are bit-identical to what was sent,
// and a packet that does not fit contiguously before the ring's end is
// handed out as a genuine two-piece chain.
TEST(ZeroCopyPipe, LoanDeliveryPreservesBytesAndStraddlesTheWrap) {
    virtual_clock clock;
    net::datagram_pipe pipe(clock, 100);
    std::vector<std::vector<std::byte>> got;
    bool straddled = false;
    pipe.set_segment_receiver([&](const const_ring_span& s) {
        if (!s.second.empty()) straddled = true;
        std::vector<std::byte> b(s.first.begin(), s.first.end());
        b.insert(b.end(), s.second.begin(), s.second.end());
        got.push_back(std::move(b));
    });

    // Two max-size packets: the ring holds max_packet_bytes + 512 bytes, so
    // the second delivery cannot fit contiguously and must straddle.
    std::vector<std::vector<std::byte>> sent;
    for (int i = 0; i < 2; ++i) {
        sent.push_back(
            random_payload(net::datagram_pipe::max_packet_bytes, 30 + i));
        pipe.send(direct_memory{}, std::span<const std::byte>(sent.back()));
        clock.advance(200);
    }

    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], sent[0]);
    EXPECT_EQ(got[1], sent[1]);
    EXPECT_TRUE(straddled);
    EXPECT_EQ(pipe.stats().deliver_crossings, 2u);
}

// End-to-end: with the loan path wired through TCP and the fused app
// receive, zero-copy mode strictly reduces the client's (receive-side)
// modelled memory traffic, and the transfer still verifies — for the plain
// ILP path and for secure framing (clear trailer decoded before the loop).
TEST(ZeroCopyTransfer, ReceiveSideAccessesDropAndTransfersVerify) {
    for (const bool secure : {false, true}) {
        engine::flow_config config;
        config.file_bytes = 8 * 1024;
        config.secure = secure;

        memsim::memory_system zc_client(memsim::supersparc_with_l2());
        memsim::memory_system zc_server(memsim::supersparc_with_l2());
        config.zero_copy = true;
        const auto zc = app::run_transfer_simulated<crypto::aead_cipher>(
            config, zc_client, zc_server);
        ASSERT_TRUE(zc.completed && zc.verified) << "secure=" << secure;

        memsim::memory_system cp_client(memsim::supersparc_with_l2());
        memsim::memory_system cp_server(memsim::supersparc_with_l2());
        config.zero_copy = false;
        const auto cp = app::run_transfer_simulated<crypto::aead_cipher>(
            config, cp_client, cp_server);
        ASSERT_TRUE(cp.completed && cp.verified) << "secure=" << secure;

        EXPECT_EQ(zc.reply_messages, cp.reply_messages);
        EXPECT_LT(zc_client.data_stats().total_accesses(),
                  cp_client.data_stats().total_accesses())
            << "secure=" << secure;
    }
}

// Layered mode with a zero-copy link still completes and verifies: the TCP
// layer stages a counted copy for it (chains are ILP-only), trading the
// saving for correctness rather than failing.
TEST(ZeroCopyTransfer, LayeredModeFallsBackAndVerifies) {
    engine::flow_config config;
    config.file_bytes = 8 * 1024;
    config.mode = app::path_mode::layered;
    config.zero_copy = true;
    const auto r =
        app::run_transfer_native<crypto::safer_simplified>(config);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.verified);
}

// Faults compose with the loan path: corruption on the reply link is still
// detected and recovered, byte-verified at the end.
TEST(ZeroCopyTransfer, FaultsComposeWithLoanDelivery) {
    engine::flow_config config;
    config.file_bytes = 8 * 1024;
    config.zero_copy = true;
    config.forward_faults.corrupt_probability = 0.05;
    config.forward_faults.drop_probability = 0.05;
    config.forward_faults.seed = 80;
    const auto r =
        app::run_transfer_native<crypto::safer_simplified>(config);
    // Both faults must actually fire, or recovery is untested.
    ASSERT_GT(r.reply_pipe.packets_dropped, 0u);
    ASSERT_GT(r.reply_pipe.packets_corrupted, 0u);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.reply_tcp_receiver.checksum_failures +
                  r.reply_tcp_sender.retransmissions,
              0u);
}

}  // namespace
}  // namespace ilp
