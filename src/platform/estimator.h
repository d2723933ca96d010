// The experiment estimator: runs an instrumented transfer on a machine
// model and converts the simulator's counters into the paper's reported
// quantities — per-packet send/receive processing times (us) and transfer
// throughput (Mbps).
#pragma once

#include <cstdint>
#include <string>

#include "app/harness.h"
#include "platform/machines.h"

namespace ilp::platform {

// The three implementation variants Figure 12 compares.
enum class impl_kind {
    ilp,         // user-level TCP, fused data manipulations
    layered,     // user-level TCP, one pass per function
    kernel_tcp,  // layered manipulations over an in-kernel TCP path model
};

// Ciphers the experiments sweep over.
enum class cipher_kind {
    safer_simplified,  // the paper's measured cipher (§3.1)
    simple,            // constant-based cipher (§4.1)
    safer_full,        // full 6-round SAFER K-64 (complexity ablation)
    none,              // null cipher (framework ablations)
    aead,              // keystream+tag cipher (transport-security extension)
};

// ALU cost profile of a cipher: cycles of register work per data byte (at
// byte_alu_factor 1) and whether the work is byte-granular.
struct cipher_profile {
    std::string name;
    double alu_cycles_per_byte = 0;
    bool bytewise = false;
};

cipher_profile profile_for(cipher_kind kind);

// One side's raw measurements from an instrumented transfer.
struct side_measurement {
    app::path_counters counters;
    std::uint64_t data_cycles = 0;         // memory-system time, data side
    std::uint64_t instruction_cycles = 0;  // memory-system time, code side
    std::uint64_t packets = 0;             // data-bearing TPDUs
    std::uint64_t crossings = 0;           // user/kernel boundary crossings
};

// Full result of one platform experiment.
struct experiment_result {
    bool completed = false;
    machine_model machine;
    impl_kind impl = impl_kind::ilp;
    cipher_kind cipher = cipher_kind::safer_simplified;
    std::size_t packet_wire_bytes = 0;

    double send_us_per_packet = 0;
    double recv_us_per_packet = 0;
    double throughput_mbps = 0;

    side_measurement send_side;
    side_measurement recv_side;
    memsim::access_stats send_accesses;  // Figure 13/14 quantities
    memsim::access_stats recv_accesses;
    std::uint64_t send_icache_misses = 0;
    std::uint64_t recv_icache_misses = 0;
};

// Converts one side's measurements to a per-packet processing time on the
// given machine (exposed for tests and ablations).
double processing_us_per_packet(const machine_model& machine,
                                const cipher_profile& cipher,
                                impl_kind impl,
                                const side_measurement& side);

// Runs the complete experiment: an instrumented file transfer (client and
// server each on their own copy of the machine's memory system), the
// synthetic instruction-stream replay, and the timing model.
experiment_result run_experiment(const machine_model& machine, impl_kind impl,
                                 cipher_kind cipher,
                                 const engine::flow_config& base_config);

// Convenience: the paper's standard workload (15 KB file) at a given packet
// size.
experiment_result run_standard_experiment(const machine_model& machine,
                                          impl_kind impl, cipher_kind cipher,
                                          std::size_t packet_wire_bytes);

// Result of replaying one side's synthetic instruction stream against a
// machine's I-cache (exposed for the I-cache ablation bench).
struct icache_replay_result {
    std::uint64_t cycles = 0;
    std::uint64_t misses = 0;
    std::uint64_t fetch_lines = 0;
};

icache_replay_result replay_icache(const machine_model& machine,
                                   impl_kind impl, cipher_kind cipher,
                                   std::uint64_t packets,
                                   std::size_t wire_bytes_per_packet);

}  // namespace ilp::platform
