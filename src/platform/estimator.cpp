#include "platform/estimator.h"

#include "crypto/aead.h"
#include "crypto/block_cipher.h"
#include "crypto/safer_k64.h"
#include "crypto/safer_simplified.h"
#include "crypto/simple_cipher.h"

#include "util/contracts.h"

namespace ilp::platform {

namespace {

// Loop-body code sizes (bytes) for the synthetic instruction stream.  The
// cipher loop dominates; values approximate compiled inner loops of the era.
struct code_sizes {
    std::size_t control_entry = 3072;  // TCP + RPC control per packet
    std::size_t marshal_loop = 768;
    std::size_t cipher_loop = 1536;
    std::size_t checksum_loop = 320;
    std::size_t copy_loop = 256;
};

code_sizes sizes_for(cipher_kind cipher) {
    code_sizes s;
    switch (cipher) {
        case cipher_kind::safer_simplified: s.cipher_loop = 1536; break;
        case cipher_kind::simple: s.cipher_loop = 256; break;
        case cipher_kind::safer_full: s.cipher_loop = 2560; break;
        case cipher_kind::none: s.cipher_loop = 0; break;
        case cipher_kind::aead: s.cipher_loop = 384; break;
    }
    return s;
}

struct icache_result {
    std::uint64_t cycles = 0;
    std::uint64_t misses = 0;
};

// Replays the instruction fetch stream of one side of the transfer against
// the machine's I-cache.  Separately compiled layers are laid out with a
// stride of (8 KB + 256 B), so on a small direct-mapped I-cache (Alpha
// 21064) the loop bodies alias each other — running them *alternating per
// unit* (the fused ILP loop) then thrashes, while running each loop to
// completion over the message (the layered passes) barely misses.  A larger
// associative I-cache (SuperSPARC: 20 KB, 5-way) holds all bodies at once.
// This reproduces the paper's §4.2 Alpha observation.
icache_result replay_instruction_stream(const machine_model& machine,
                                        impl_kind impl, cipher_kind cipher,
                                        std::uint64_t packets,
                                        std::size_t wire_bytes_per_packet,
                                        bool sending, std::uint64_t* fetches = nullptr) {
    const code_sizes sizes = sizes_for(cipher);
    memsim::memory_system sys(machine.memory);
    // Each subsystem is a separately compiled object; the linker scatters
    // them across the address space.  On an 8 KB direct-mapped I-cache
    // (Alpha 21064) the cipher and checksum bodies end up sharing one cache
    // line's worth of sets — so the fused loop, which alternates between
    // them every unit, thrashes that line twice per unit, while the layered
    // passes (each loop runs to completion over the message) barely notice.
    // A 20 KB 5-way I-cache (SuperSPARC) absorbs the alias entirely.  This
    // is the mechanism behind the paper's §4.2 Alpha observation.
    constexpr std::uint64_t frame = 8 * 1024;
    struct region {
        std::uint64_t base;
        std::size_t bytes;
    };
    const region control{0, sizes.control_entry};                 // 0x0000
    const region marshal{1 * frame + 3072, sizes.marshal_loop};   // @3072
    const region cipher_r{2 * frame + 4096, sizes.cipher_loop};   // @4096
    const region checksum{3 * frame + 4096 + sizes.cipher_loop - 32,
                          sizes.checksum_loop};  // 1 line overlaps cipher
    const region copy{4 * frame + 6656, sizes.copy_loop};         // @6656

    auto fetch = [&](const region& r) {
        if (r.bytes > 0) sys.instruction_fetch(r.base, r.bytes);
    };

    const std::uint64_t units =
        std::max<std::uint64_t>(1, wire_bytes_per_packet / 8);

    for (std::uint64_t p = 0; p < packets; ++p) {
        fetch(control);
        switch (impl) {
            case impl_kind::ilp:
                // One fused loop: all stage bodies execute per unit.
                for (std::uint64_t u = 0; u < units; ++u) {
                    fetch(marshal);
                    fetch(cipher_r);
                    fetch(checksum);
                    fetch(copy);
                }
                // System copy pass remains separate.
                for (std::uint64_t u = 0; u < units; ++u) fetch(copy);
                break;
            case impl_kind::layered:
            case impl_kind::kernel_tcp: {
                // One pass per function; each loop runs to completion.
                for (std::uint64_t u = 0; u < units; ++u) fetch(marshal);
                for (std::uint64_t u = 0; u < units; ++u) fetch(cipher_r);
                for (std::uint64_t u = 0; u < units; ++u) fetch(copy);
                for (std::uint64_t u = 0; u < units; ++u) fetch(checksum);
                const int extra_copies = impl == impl_kind::kernel_tcp ? 1 : 2;
                for (int c = 0; c < extra_copies; ++c) {
                    for (std::uint64_t u = 0; u < units; ++u) fetch(copy);
                }
                break;
            }
        }
        (void)sending;
    }
    if (fetches != nullptr) *fetches = sys.instruction_fetches();
    return {sys.cycles(), sys.instruction_fetch_misses()};
}

template <typename Cipher>
app::transfer_result run_with_cipher(const engine::flow_config& config,
                                     memsim::memory_system& client_sys,
                                     memsim::memory_system& server_sys) {
    return app::run_transfer_simulated<Cipher>(config, client_sys, server_sys);
}

app::transfer_result run_dispatch(cipher_kind cipher,
                                  const engine::flow_config& config,
                                  memsim::memory_system& client_sys,
                                  memsim::memory_system& server_sys) {
    switch (cipher) {
        case cipher_kind::safer_simplified:
            return run_with_cipher<crypto::safer_simplified>(config, client_sys,
                                                             server_sys);
        case cipher_kind::simple:
            return run_with_cipher<crypto::simple_cipher>(config, client_sys,
                                                          server_sys);
        case cipher_kind::safer_full:
            return run_with_cipher<crypto::safer_k64>(config, client_sys,
                                                      server_sys);
        case cipher_kind::none: {
            const crypto::null_cipher cipher_obj;
            return app::run_transfer(config, memsim::sim_memory(client_sys),
                                     memsim::sim_memory(server_sys),
                                     cipher_obj, cipher_obj);
        }
        case cipher_kind::aead:
            return run_with_cipher<crypto::aead_cipher>(config, client_sys,
                                                        server_sys);
    }
    ILP_EXPECT(false && "unreachable");
    return {};
}

}  // namespace

cipher_profile profile_for(cipher_kind kind) {
    switch (kind) {
        case cipher_kind::safer_simplified:
            // add/xor + log/exp + PHT per byte: ~8 register ops.
            return {"SAFER K-64 (simplified)", 4.5, true};
        case cipher_kind::simple:
            // Three 64-bit register ops per 8 bytes.
            return {"simple (constant-based)", 0.75, false};
        case cipher_kind::safer_full:
            // Six rounds of the simplified work plus the PHT network.
            return {"SAFER K-64 (6 rounds)", 29.0, true};
        case cipher_kind::none:
            return {"none", 0.0, false};
        case cipher_kind::aead:
            // xor/rotate/multiply plus the tag mix: ~12 register ops per
            // 8-byte word.
            return {"aead (keystream+tag)", 1.5, false};
    }
    ILP_EXPECT(false && "unreachable");
    return {};
}

double processing_us_per_packet(const machine_model& machine,
                                const cipher_profile& cipher, impl_kind impl,
                                const side_measurement& side) {
    if (side.packets == 0) return 0.0;
    const app::path_counters& c = side.counters;

    const double cipher_alu =
        static_cast<double>(c.cipher_bytes) * cipher.alu_cycles_per_byte *
        (cipher.bytewise ? machine.byte_alu_factor : 1.0);

    std::uint64_t pass_bytes = c.fused_loop_bytes + c.marshal_pass_bytes +
                               c.cipher_pass_bytes + c.checksum_pass_bytes +
                               c.copy_pass_bytes;
    double data_cycles = static_cast<double>(side.data_cycles);
    std::uint64_t crossings = side.crossings;
    double control_factor = 1.0;
    if (impl == impl_kind::kernel_tcp) {
        // In-kernel TCP path model: the tcp_send copy merges into the system
        // copy, ACKs stay in the kernel, and the mature BSD code path is
        // tighter than the user-level implementation (§4.1).
        pass_bytes -= c.copy_pass_bytes;
        data_cycles -= static_cast<double>(c.copy_pass_bytes) / 4.0;
        crossings = side.packets;
        control_factor = 0.7;
    }
    const double data_alu =
        static_cast<double>(pass_bytes) * machine.alu_cycles_per_data_byte;
    const double control = machine.control_cycles_per_packet * control_factor *
                           static_cast<double>(side.packets);
    const double traps =
        machine.crossing_cycles * static_cast<double>(crossings);

    const double total_cycles = cipher_alu + data_alu + control + traps +
                                data_cycles +
                                static_cast<double>(side.instruction_cycles);
    return total_cycles / machine.clock_mhz /
           static_cast<double>(side.packets);
}

experiment_result run_experiment(const machine_model& machine, impl_kind impl,
                                 cipher_kind cipher,
                                 const engine::flow_config& base_config) {
    engine::flow_config config = base_config;
    config.mode = impl == impl_kind::ilp ? app::path_mode::ilp
                                         : app::path_mode::layered;

    memsim::memory_system client_sys(machine.memory);
    memsim::memory_system server_sys(machine.memory);
    const app::transfer_result transfer =
        run_dispatch(cipher, config, client_sys, server_sys);

    experiment_result result;
    result.completed = transfer.completed && transfer.verified;
    result.machine = machine;
    result.impl = impl;
    result.cipher = cipher;
    result.packet_wire_bytes = config.packet_wire_bytes;
    if (!result.completed) return result;

    const std::uint64_t packets = transfer.reply_messages;
    const std::size_t wire_per_packet =
        packets == 0 ? 0
                     : static_cast<std::size_t>(
                           transfer.server_send.wire_bytes / packets);

    result.send_side.counters = transfer.server_send;
    result.send_side.data_cycles = server_sys.cycles();
    result.send_side.packets = packets;
    result.send_side.crossings = transfer.reply_pipe.send_crossings +
                                 transfer.reply_ack_pipe.deliver_crossings;

    result.recv_side.counters = transfer.client_receive;
    result.recv_side.data_cycles = client_sys.cycles();
    result.recv_side.packets = packets;
    result.recv_side.crossings = transfer.reply_pipe.deliver_crossings +
                                 transfer.reply_ack_pipe.send_crossings;

    const icache_result send_icache = replay_instruction_stream(
        machine, impl, cipher, packets, wire_per_packet, /*sending=*/true);
    const icache_result recv_icache = replay_instruction_stream(
        machine, impl, cipher, packets, wire_per_packet, /*sending=*/false);
    result.send_side.instruction_cycles = send_icache.cycles;
    result.recv_side.instruction_cycles = recv_icache.cycles;
    result.send_icache_misses = send_icache.misses;
    result.recv_icache_misses = recv_icache.misses;

    const cipher_profile profile = profile_for(cipher);
    result.send_us_per_packet =
        processing_us_per_packet(machine, profile, impl, result.send_side);
    result.recv_us_per_packet =
        processing_us_per_packet(machine, profile, impl, result.recv_side);

    // Loop-back transfer: client and server share one CPU, so a packet's
    // wall time is send + receive + system overhead.  The in-kernel TCP
    // spends far less system time per packet: no user-level protocol task
    // to schedule and no ACK crossings (§4.1's explanation for Fig. 12).
    const double system_us = machine.system_us_per_packet *
                             (impl == impl_kind::kernel_tcp ? 0.55 : 1.0);
    const double per_packet_us = result.send_us_per_packet +
                                 result.recv_us_per_packet + system_us;
    const double payload_bits =
        static_cast<double>(transfer.payload_bytes_delivered) * 8.0;
    result.throughput_mbps =
        payload_bits / (static_cast<double>(packets) * per_packet_us);

    result.send_accesses = server_sys.data_stats();
    result.recv_accesses = client_sys.data_stats();
    return result;
}

icache_replay_result replay_icache(const machine_model& machine,
                                   impl_kind impl, cipher_kind cipher,
                                   std::uint64_t packets,
                                   std::size_t wire_bytes_per_packet) {
    icache_replay_result out;
    const icache_result r = replay_instruction_stream(
        machine, impl, cipher, packets, wire_bytes_per_packet,
        /*sending=*/true, &out.fetch_lines);
    out.cycles = r.cycles;
    out.misses = r.misses;
    return out;
}

experiment_result run_standard_experiment(const machine_model& machine,
                                          impl_kind impl, cipher_kind cipher,
                                          std::size_t packet_wire_bytes) {
    engine::flow_config config;
    config.file_bytes = 15 * 1024;
    config.packet_wire_bytes = packet_wire_bytes;
    return run_experiment(machine, impl, cipher, config);
}

}  // namespace ilp::platform
