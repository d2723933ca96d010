// System-level integration sweeps: the full application (client + server +
// TCP + kernel part) under a matrix of fault profiles, path modes and
// framing parameters — every combination must deliver byte-identical data
// or fail loudly, never silently corrupt.
#include <gtest/gtest.h>

#include "app/harness.h"
#include "crypto/safer_simplified.h"
#include "crypto/simple_cipher.h"
#include "memsim/configs.h"

namespace ilp::app {
namespace {

using crypto::safer_simplified;

struct fault_scenario {
    const char* name;
    double drop, duplicate, corrupt, reorder;
};

constexpr fault_scenario scenarios[] = {
    {"clean", 0, 0, 0, 0},
    {"lossy", 0.15, 0, 0, 0},
    {"duplicating", 0, 0.2, 0, 0},
    {"corrupting", 0, 0, 0.15, 0},
    {"reordering", 0, 0, 0, 0.2},
    {"hostile", 0.08, 0.08, 0.08, 0.08},
};

class FaultMatrix
    : public ::testing::TestWithParam<std::tuple<int, path_mode>> {};

TEST_P(FaultMatrix, TransferSurvivesOrFailsLoudly) {
    const auto& [scenario_index, mode] = GetParam();
    const fault_scenario& s = scenarios[scenario_index];

    engine::flow_config config;
    config.mode = mode;
    config.file_bytes = 10 * 1024;
    config.packet_wire_bytes = 512;
    config.forward_faults.drop_probability = s.drop;
    config.forward_faults.duplicate_probability = s.duplicate;
    config.forward_faults.corrupt_probability = s.corrupt;
    config.forward_faults.reorder_probability = s.reorder;
    config.forward_faults.seed = 1000 + scenario_index;
    // Stress the reverse (ACK) path too, at half intensity.
    config.reverse_faults.drop_probability = s.drop / 2;
    config.reverse_faults.seed = 2000 + scenario_index;

    const transfer_result result =
        run_transfer_native<safer_simplified>(config);
    ASSERT_TRUE(result.completed) << s.name;
    // The one inviolable property: whatever the link does, accepted data is
    // byte-identical to the original.
    EXPECT_TRUE(result.verified) << s.name;
    EXPECT_EQ(result.payload_bytes_delivered, config.file_bytes) << s.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, FaultMatrix,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values(path_mode::ilp, path_mode::layered)),
    [](const ::testing::TestParamInfo<std::tuple<int, path_mode>>& param) {
        return std::string(scenarios[std::get<0>(param.param)].name) +
               (std::get<1>(param.param) == path_mode::ilp ? "_ilp"
                                                           : "_layered");
    });

TEST(Integration, BackToBackTransfersOnFreshHarnesses) {
    // Determinism at system scale: the same configuration always produces
    // the same message counts, virtual-time trace and statistics.
    engine::flow_config config;
    config.file_bytes = 4096;
    config.forward_faults.drop_probability = 0.1;
    config.forward_faults.seed = 7;
    const auto a = run_transfer_native<safer_simplified>(config);
    const auto b = run_transfer_native<safer_simplified>(config);
    ASSERT_TRUE(a.completed && b.completed);
    EXPECT_EQ(a.elapsed_us, b.elapsed_us);
    EXPECT_EQ(a.reply_tcp_sender.retransmissions,
              b.reply_tcp_sender.retransmissions);
    EXPECT_EQ(a.reply_pipe.bytes_sent, b.reply_pipe.bytes_sent);
}

TEST(Integration, ZeroCopyAndFaultsCompose) {
    engine::flow_config config;
    config.zero_copy = true;
    config.file_bytes = 6 * 1024;
    config.forward_faults.drop_probability = 0.1;
    config.forward_faults.corrupt_probability = 0.1;
    config.forward_faults.seed = 12;
    const auto result = run_transfer_native<safer_simplified>(config);
    // Both faults must actually fire, or recovery is untested.
    ASSERT_GT(result.reply_pipe.packets_dropped, 0u);
    ASSERT_GT(result.reply_pipe.packets_corrupted, 0u);
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(result.verified);
    EXPECT_GT(result.reply_tcp_receiver.checksum_failures, 0u);
}

TEST(Integration, LargeTransferManyPackets) {
    engine::flow_config config;
    config.file_bytes = 256 * 1024;  // 257 packets at 1 KB
    config.deadline_us = 600'000'000;
    const auto result = run_transfer_native<crypto::simple_cipher>(config);
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(result.verified);
    EXPECT_GE(result.reply_messages, 257u);
}

TEST(Integration, SimulatorDeterminism) {
    // Two identical simulated runs produce bit-identical access statistics.
    engine::flow_config config;
    config.file_bytes = 4096;
    memsim::memory_system c1(memsim::supersparc_with_l2());
    memsim::memory_system s1(memsim::supersparc_with_l2());
    memsim::memory_system c2(memsim::supersparc_with_l2());
    memsim::memory_system s2(memsim::supersparc_with_l2());
    const auto a = run_transfer_simulated<safer_simplified>(config, c1, s1);
    const auto b = run_transfer_simulated<safer_simplified>(config, c2, s2);
    ASSERT_TRUE(a.completed && b.completed);
    // The access *stream* is fully deterministic...
    EXPECT_EQ(s1.data_stats().total_accesses(),
              s2.data_stats().total_accesses());
    EXPECT_EQ(c1.data_stats().total_accesses(),
              c2.data_stats().total_accesses());
    // ...while miss/cycle counts depend on the heap addresses the allocator
    // hands out, which differ between back-to-back runs inside one process
    // (cache set conflicts move around).  They must still agree closely.
    const auto near = [](std::uint64_t x, std::uint64_t y) {
        const double hi = static_cast<double>(std::max(x, y));
        const double lo = static_cast<double>(std::min(x, y));
        return lo >= 0.98 * hi;
    };
    EXPECT_TRUE(near(s1.data_stats().total_misses(),
                     s2.data_stats().total_misses()));
    EXPECT_TRUE(near(c1.cycles(), c2.cycles()));
}

}  // namespace
}  // namespace ilp::app
