// End-to-end tests of the file-transfer application: ILP vs layered data
// paths over the full user-level TCP stack, with byte-exact verification,
// simulated memory accounting and fault injection.
#include <gtest/gtest.h>

#include "app/harness.h"
#include "crypto/aead.h"
#include "crypto/safer_k64.h"
#include "crypto/safer_simplified.h"
#include "crypto/simple_cipher.h"
#include "memsim/configs.h"

namespace ilp::app {
namespace {

using crypto::safer_k64;
using crypto::safer_simplified;
using crypto::simple_cipher;

TEST(FileTransfer, IlpModeDeliversFileIntact) {
    engine::flow_config config;
    config.mode = path_mode::ilp;
    const transfer_result result =
        run_transfer_native<safer_simplified>(config);
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(result.verified);
    EXPECT_EQ(result.payload_bytes_delivered, config.file_bytes);
    // 15 KB at <=996 B payload per 1024 B packet: 16 reply messages.
    EXPECT_EQ(result.reply_messages, 16u);
}

TEST(FileTransfer, LayeredModeDeliversFileIntact) {
    engine::flow_config config;
    config.mode = path_mode::layered;
    const transfer_result result =
        run_transfer_native<safer_simplified>(config);
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(result.verified);
    EXPECT_EQ(result.payload_bytes_delivered, config.file_bytes);
}

class FileTransferPacketSizes : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(FileTransferPacketSizes, BothModesCompleteAndAgree) {
    // Property sweep over the paper's packet-size axis: both implementations
    // must deliver identical, correct data at every size.
    for (const path_mode mode : {path_mode::ilp, path_mode::layered}) {
        engine::flow_config config;
        config.mode = mode;
        config.packet_wire_bytes = GetParam();
        config.file_bytes = 6 * 1024;
        const transfer_result result =
            run_transfer_native<safer_simplified>(config);
        ASSERT_TRUE(result.completed)
            << "mode=" << static_cast<int>(mode) << " size=" << GetParam();
        EXPECT_TRUE(result.verified);
    }
}

INSTANTIATE_TEST_SUITE_P(PaperSizes, FileTransferPacketSizes,
                         ::testing::Values(256, 512, 768, 1024, 1280));

TEST(FileTransfer, AllCiphersWork) {
    engine::flow_config config;
    config.file_bytes = 4 * 1024;
    {
        const auto r = run_transfer_native<safer_simplified>(config);
        EXPECT_TRUE(r.completed && r.verified);
    }
    {
        const auto r = run_transfer_native<simple_cipher>(config);
        EXPECT_TRUE(r.completed && r.verified);
    }
    {
        const auto r = run_transfer_native<safer_k64>(config);
        EXPECT_TRUE(r.completed && r.verified);
    }
}

TEST(FileTransfer, MultipleCopies) {
    engine::flow_config config;
    config.copies = 3;
    config.file_bytes = 2048;
    const transfer_result result =
        run_transfer_native<safer_simplified>(config);
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(result.verified);
    EXPECT_EQ(result.payload_bytes_delivered, 3u * 2048);
}

TEST(FileTransfer, EmptyFile) {
    engine::flow_config config;
    config.file_bytes = 0;
    const transfer_result result =
        run_transfer_native<safer_simplified>(config);
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(result.verified);
    EXPECT_EQ(result.payload_bytes_delivered, 0u);
    EXPECT_EQ(result.reply_messages, 1u);  // one empty reply signals EOF
}

TEST(FileTransfer, OneBytePayloadPackets) {
    // Degenerate but legal: smallest wire budget that still carries data.
    engine::flow_config config;
    config.file_bytes = 64;
    config.packet_wire_bytes = 40;  // 28 header bytes + a few payload bytes
    const transfer_result result =
        run_transfer_native<safer_simplified>(config);
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(result.verified);
}

TEST(FileTransfer, SurvivesLossyLink) {
    engine::flow_config config;
    config.forward_faults.drop_probability = 0.1;
    config.forward_faults.corrupt_probability = 0.05;
    config.forward_faults.seed = 3;
    config.file_bytes = 8 * 1024;
    const transfer_result result =
        run_transfer_native<safer_simplified>(config);
    // Both faults must actually fire, or recovery is untested.
    ASSERT_GT(result.reply_pipe.packets_dropped, 0u);
    ASSERT_GT(result.reply_pipe.packets_corrupted, 0u);
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(result.verified);
    EXPECT_GT(result.reply_tcp_sender.retransmissions, 0u);
}

TEST(FileTransfer, CorruptionNeverReachesTheApplication) {
    engine::flow_config config;
    config.forward_faults.corrupt_probability = 0.25;
    config.forward_faults.seed = 17;
    config.file_bytes = 8 * 1024;
    for (const path_mode mode : {path_mode::ilp, path_mode::layered}) {
        config.mode = mode;
        const transfer_result result =
            run_transfer_native<safer_simplified>(config);
        ASSERT_GT(result.reply_pipe.packets_corrupted, 0u);  // fault fired
        ASSERT_TRUE(result.completed);
        EXPECT_TRUE(result.verified);
        EXPECT_GT(result.reply_tcp_receiver.checksum_failures, 0u);
    }
}

template <crypto::block_cipher Cipher>
void expect_identical_wire_traffic(engine::flow_config config) {
    config.mode = path_mode::ilp;
    const auto ilp = run_transfer_native<Cipher>(config);
    config.mode = path_mode::layered;
    const auto layered = run_transfer_native<Cipher>(config);
    ASSERT_TRUE(ilp.completed && layered.completed);
    EXPECT_EQ(ilp.reply_pipe.bytes_sent, layered.reply_pipe.bytes_sent);
    EXPECT_EQ(ilp.reply_messages, layered.reply_messages);
    EXPECT_EQ(ilp.server_send.wire_bytes, layered.server_send.wire_bytes);
    EXPECT_EQ(ilp.metrics.counter("crypto.rekeys"),
              layered.metrics.counter("crypto.rekeys"));
}

TEST(FileTransfer, IlpAndLayeredProduceIdenticalWireTraffic) {
    // The two implementations are alternative *implementations* of the same
    // protocol: the receiver must not be able to tell them apart, so a
    // cross-mode transfer (ILP sender, layered receiver and vice versa)
    // works too.  run_transfer uses one mode end-to-end, so compare both
    // directions via wire byte counts and message counts instead.
    engine::flow_config config;
    config.file_bytes = 4096;
    expect_identical_wire_traffic<safer_simplified>(config);
    // Secure wire v3 with rekeying: trailers and key-window advances are
    // framing, not implementation, so they must not depend on the mode.
    config.secure = true;
    config.rekey_interval_bytes = 1024;
    expect_identical_wire_traffic<crypto::aead_cipher>(config);
}

TEST(FileTransfer, IlpReducesSimulatedMemoryAccessesBothSides) {
    // The paper's Figure 13 effect at full-application scale: ILP performs
    // fewer memory accesses on the sending AND the receiving side.
    engine::flow_config config;
    config.file_bytes = 15 * 1024;

    memsim::memory_system ilp_client(memsim::supersparc_with_l2());
    memsim::memory_system ilp_server(memsim::supersparc_with_l2());
    config.mode = path_mode::ilp;
    const auto ilp =
        run_transfer_simulated<safer_simplified>(config, ilp_client,
                                                 ilp_server);

    memsim::memory_system lay_client(memsim::supersparc_with_l2());
    memsim::memory_system lay_server(memsim::supersparc_with_l2());
    config.mode = path_mode::layered;
    const auto layered =
        run_transfer_simulated<safer_simplified>(config, lay_client,
                                                 lay_server);

    ASSERT_TRUE(ilp.completed && ilp.verified);
    ASSERT_TRUE(layered.completed && layered.verified);

    const auto ilp_send = ilp_server.data_stats().total_accesses();
    const auto lay_send = lay_server.data_stats().total_accesses();
    const auto ilp_recv = ilp_client.data_stats().total_accesses();
    const auto lay_recv = lay_client.data_stats().total_accesses();
    EXPECT_LT(ilp_send, lay_send);
    EXPECT_LT(ilp_recv, lay_recv);
    // The reduction is substantial (paper: up to ~30 %), not a rounding
    // artifact.
    EXPECT_LT(static_cast<double>(ilp_send), 0.9 * static_cast<double>(lay_send));
    EXPECT_LT(static_cast<double>(ilp_recv), 0.9 * static_cast<double>(lay_recv));
}

TEST(FileTransfer, SimulatedAndNativeRunsAgreeOnProtocolBehaviour) {
    // The memory policy must not change observable behaviour: same message
    // counts, same delivered bytes.
    engine::flow_config config;
    config.file_bytes = 4096;
    const auto native = run_transfer_native<safer_simplified>(config);
    memsim::memory_system client_sys(memsim::test_tiny());
    memsim::memory_system server_sys(memsim::test_tiny());
    const auto simulated = run_transfer_simulated<safer_simplified>(
        config, client_sys, server_sys);
    ASSERT_TRUE(native.completed && simulated.completed);
    EXPECT_EQ(native.reply_messages, simulated.reply_messages);
    EXPECT_EQ(native.payload_bytes_delivered,
              simulated.payload_bytes_delivered);
    EXPECT_EQ(native.elapsed_us, simulated.elapsed_us);
}

TEST(FileTransfer, ZeroCopyAdapterDeliversAndCutsTraffic) {
    // fbufs-style adapter (paper refs [12]-[15]): the transfer still works,
    // and the counted memory traffic drops by the system copies on both
    // sides.
    engine::flow_config config;
    config.file_bytes = 8 * 1024;

    memsim::memory_system copy_client(memsim::supersparc_with_l2());
    memsim::memory_system copy_server(memsim::supersparc_with_l2());
    const auto copying = run_transfer_simulated<safer_simplified>(
        config, copy_client, copy_server);

    config.zero_copy = true;
    memsim::memory_system zc_client(memsim::supersparc_with_l2());
    memsim::memory_system zc_server(memsim::supersparc_with_l2());
    const auto zero_copy = run_transfer_simulated<safer_simplified>(
        config, zc_client, zc_server);

    ASSERT_TRUE(copying.completed && copying.verified);
    ASSERT_TRUE(zero_copy.completed && zero_copy.verified);
    EXPECT_EQ(copying.reply_messages, zero_copy.reply_messages);
    EXPECT_LT(zc_server.data_stats().total_accesses(),
              copy_server.data_stats().total_accesses());
    EXPECT_LT(zc_client.data_stats().total_accesses(),
              copy_client.data_stats().total_accesses());
}

TEST(FileTransfer, PassStructureMatchesPaperFigures) {
    // Fig. 3/5 pass inventory: the layered path must show the standalone
    // passes, the ILP path must fold them into the fused loop.
    engine::flow_config config;
    config.file_bytes = 2048;

    config.mode = path_mode::ilp;
    const auto ilp = run_transfer_native<safer_simplified>(config);
    EXPECT_GT(ilp.server_send.fused_loop_bytes, 0u);
    EXPECT_EQ(ilp.server_send.marshal_pass_bytes, 0u);
    EXPECT_EQ(ilp.server_send.cipher_pass_bytes, 0u);
    EXPECT_EQ(ilp.server_send.copy_pass_bytes, 0u);
    EXPECT_GT(ilp.client_receive.fused_loop_bytes, 0u);
    EXPECT_EQ(ilp.client_receive.cipher_pass_bytes, 0u);

    config.mode = path_mode::layered;
    const auto layered = run_transfer_native<safer_simplified>(config);
    EXPECT_EQ(layered.server_send.fused_loop_bytes, 0u);
    EXPECT_GT(layered.server_send.marshal_pass_bytes, 0u);
    EXPECT_GT(layered.server_send.cipher_pass_bytes, 0u);
    EXPECT_GT(layered.server_send.copy_pass_bytes, 0u);
    EXPECT_GT(layered.server_send.checksum_pass_bytes, 0u);
    EXPECT_GT(layered.client_receive.checksum_pass_bytes, 0u);
    EXPECT_GT(layered.client_receive.cipher_pass_bytes, 0u);
}

TEST(FileTransfer, SendIntoAFullSenderCountsAsBlockedInBothModes) {
    // A reply larger than the server's whole retransmission ring can never
    // be reserved: the refusal happens before any data manipulation and is
    // counted once, whichever implementation would have filled the segment.
    for (const path_mode mode : {path_mode::ilp, path_mode::layered}) {
        virtual_clock clock;
        net::duplex_link request_link(clock, 100);
        net::duplex_link reply_link(clock, 100);
        tcp::connection_config request_cfg;
        tcp::connection_config reply_cfg;
        reply_cfg.local_port = 6001;
        reply_cfg.remote_port = 6002;
        reply_cfg.send_buffer_bytes = 512;
        file_store store;
        store.add_random("f", 4096, 1);
        const std::array<std::byte, safer_simplified::key_bytes> key{};
        const safer_simplified cipher(key);
        const memsim::direct_memory mem;
        file_server<memsim::direct_memory, safer_simplified> server(
            mem, cipher, clock, request_link.reverse(), reply_link.forward(),
            tcp::mirrored(request_cfg), reply_cfg, mode, store);
        file_client<memsim::direct_memory, safer_simplified> client(
            mem, cipher, clock, request_link.forward(), reply_link.reverse(),
            request_cfg, tcp::mirrored(reply_cfg), mode);
        request_link.forward().set_receiver(
            [&](std::span<const std::byte> p) { server.on_request_packet(p); });
        request_link.reverse().set_receiver([&](std::span<const std::byte> p) {
            client.on_request_ack_packet(p);
        });
        reply_link.forward().set_receiver(
            [&](std::span<const std::byte> p) { client.on_reply_packet(p); });
        reply_link.reverse().set_receiver([&](std::span<const std::byte> p) {
            server.on_reply_ack_packet(p);
        });

        rpc::file_request request;
        request.request_id = 1;
        request.filename = "f";
        request.copy_count = 1;
        request.max_reply_payload =
            static_cast<std::uint32_t>(rpc::max_payload_for_wire(1024));
        ASSERT_TRUE(client.request_file(request));
        clock.advance(10'000);
        EXPECT_EQ(server.requests_served(), 1u);
        server.pump();
        EXPECT_EQ(server.reply_tcp_stats().send_blocked, 1u)
            << "mode=" << static_cast<int>(mode);
        EXPECT_EQ(server.send_counters().messages, 0u);
        server.quiesce();
        client.quiesce();
    }
}

// Every path_counters field on all four path ends, for each framing and
// mode on one fixed transfer.  The platform estimator turns these counters
// into the BENCH_fig08 numbers, so they are pinned exactly.
struct counter_pin {
    const char* name;
    bool secure;
    std::uint32_t wire_version;
    path_mode mode;
    // Each row: messages, payload, wire, fused loop, marshal pass, cipher
    // pass, checksum pass, copy pass, cipher bytes.
    path_counters server_send;
    path_counters client_receive;
    path_counters server_request;
    path_counters client_request;
};

const counter_pin counter_pins[] = {
    {"plain_ilp", false, rpc::wire_version_secure, path_mode::ilp,
     {9, 4096, 4352, 4352, 0, 0, 0, 0, 4352},
     {9, 4096, 4352, 4352, 0, 0, 0, 0, 4352},
     {1, 0, 40, 40, 0, 0, 0, 0, 40},
     {1, 0, 40, 40, 0, 0, 0, 0, 40}},
    {"plain_layered", false, rpc::wire_version_secure, path_mode::layered,
     {9, 4096, 4352, 0, 4352, 4352, 4352, 4352, 4352},
     {9, 4096, 4352, 0, 4352, 4352, 4352, 0, 4352},
     {1, 0, 40, 0, 0, 40, 40, 40, 40},
     {1, 0, 40, 0, 40, 40, 40, 40, 40}},
    {"v3_ilp", true, rpc::wire_version_secure, path_mode::ilp,
     {9, 4096, 4424, 4424, 0, 0, 0, 0, 4352},
     {9, 4096, 4424, 4352, 0, 0, 72, 0, 4352},
     {1, 0, 56, 48, 0, 0, 8, 0, 48},
     {1, 0, 56, 56, 0, 0, 0, 0, 48}},
    {"v3_layered", true, rpc::wire_version_secure, path_mode::layered,
     {9, 4096, 4424, 0, 4352, 4352, 4424, 4424, 4352},
     {9, 4096, 4424, 0, 4352, 4352, 4424, 0, 4352},
     {1, 0, 56, 0, 0, 48, 56, 48, 48},
     {1, 0, 56, 0, 48, 48, 56, 56, 48}},
    {"v2_ilp", true, rpc::wire_version, path_mode::ilp,
     {9, 4096, 4352, 4352, 0, 0, 0, 0, 4352},
     {9, 4096, 4352, 4352, 0, 0, 0, 0, 4352},
     {1, 0, 40, 40, 0, 0, 0, 0, 40},
     {1, 0, 40, 40, 0, 0, 0, 0, 40}},
    {"v2_layered", true, rpc::wire_version, path_mode::layered,
     {9, 4096, 4352, 0, 4352, 4352, 4352, 4352, 4352},
     {9, 4096, 4352, 0, 4352, 4352, 4352, 0, 4352},
     {1, 0, 40, 0, 0, 40, 40, 40, 40},
     {1, 0, 40, 0, 40, 40, 40, 40, 40}},
};

void expect_counters(const path_counters& got, const path_counters& want,
                     const std::string& where) {
    EXPECT_EQ(got.messages, want.messages) << where;
    EXPECT_EQ(got.payload_bytes, want.payload_bytes) << where;
    EXPECT_EQ(got.wire_bytes, want.wire_bytes) << where;
    EXPECT_EQ(got.fused_loop_bytes, want.fused_loop_bytes) << where;
    EXPECT_EQ(got.marshal_pass_bytes, want.marshal_pass_bytes) << where;
    EXPECT_EQ(got.cipher_pass_bytes, want.cipher_pass_bytes) << where;
    EXPECT_EQ(got.checksum_pass_bytes, want.checksum_pass_bytes) << where;
    EXPECT_EQ(got.copy_pass_bytes, want.copy_pass_bytes) << where;
    EXPECT_EQ(got.cipher_bytes, want.cipher_bytes) << where;
}

TEST(FileTransfer, PathCountersArePinnedForEveryFramingAndMode) {
    for (const counter_pin& pin : counter_pins) {
        engine::flow_config config;
        config.file_bytes = 4096;
        config.packet_wire_bytes = 512;
        config.mode = pin.mode;
        config.secure = pin.secure;
        config.secure_wire_version = pin.wire_version;
        config.rekey_interval_bytes = pin.secure ? 1024 : 0;
        const auto r = run_transfer_native<crypto::aead_cipher>(config);
        ASSERT_TRUE(r.completed && r.verified) << pin.name;
        const std::string name = pin.name;
        expect_counters(r.server_send, pin.server_send, name + " server send");
        expect_counters(r.client_receive, pin.client_receive,
                        name + " client receive");
        expect_counters(r.server_request, pin.server_request,
                        name + " server request receive");
        expect_counters(r.client_request, pin.client_request,
                        name + " client request send");
    }
}

}  // namespace
}  // namespace ilp::app
