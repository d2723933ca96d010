// File transfer over the full stack — the paper's application, runnable.
//
// Usage: file_transfer [ilp|layered] [file_kb] [packet_bytes] [copies]
//
// Runs the RPC file-transfer client and server over the user-level TCP in
// loop-back (all in this process, on the virtual clock), with the chosen
// data-path implementation, and prints transfer statistics.  Add loss with
// the environment-free fifth argument drop percentage, e.g.:
//
//     ./file_transfer ilp 64 1024 1 10     # 10 % packet loss
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "app/harness.h"
#include "crypto/safer_simplified.h"
#include "stats/table.h"

int main(int argc, char** argv) {
    using namespace ilp;

    engine::flow_config config;
    config.mode = app::path_mode::ilp;
    if (argc > 1 && std::strcmp(argv[1], "layered") == 0) {
        config.mode = app::path_mode::layered;
    }
    config.file_bytes =
        (argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 64) * 1024;
    config.packet_wire_bytes =
        argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 1024;
    config.copies =
        argc > 4 ? static_cast<std::uint32_t>(std::strtoul(argv[4], nullptr, 10))
                 : 1;
    if (argc > 5) {
        config.forward_faults.drop_probability =
            std::strtod(argv[5], nullptr) / 100.0;
        config.forward_faults.seed = 1234;
    }

    std::printf("transferring %zu KB x%u copies, %zu B packets, %s path%s\n",
                config.file_bytes / 1024, config.copies,
                config.packet_wire_bytes,
                config.mode == app::path_mode::ilp ? "ILP" : "layered",
                config.forward_faults.drop_probability > 0
                    ? " (lossy link)"
                    : "");

    const app::transfer_result result =
        app::run_transfer_native<crypto::safer_simplified>(config);

    if (!result.completed) {
        std::printf("transfer FAILED (did not complete)\n");
        return 1;
    }
    std::printf("transfer complete: %llu bytes, %s\n\n",
                static_cast<unsigned long long>(result.payload_bytes_delivered),
                result.verified ? "verified byte-identical"
                                : "VERIFICATION FAILED");

    stats::table table({"metric", "value"});
    table.row().cell("reply messages").cell(result.reply_messages);
    table.row().cell("virtual time (ms)").cell(
        static_cast<double>(result.elapsed_us) / 1000.0, 1);
    table.row().cell("segments transmitted").cell(
        result.reply_tcp_sender.segments_transmitted);
    table.row().cell("retransmissions").cell(
        result.reply_tcp_sender.retransmissions);
    table.row().cell("checksum failures").cell(
        result.reply_tcp_receiver.checksum_failures);
    table.row().cell("duplicate drops").cell(
        result.reply_tcp_receiver.duplicate_drops);
    table.row().cell("send: fused loop bytes").cell(
        result.server_send.fused_loop_bytes);
    table.row().cell("send: standalone pass bytes").cell(
        result.server_send.marshal_pass_bytes +
        result.server_send.cipher_pass_bytes +
        result.server_send.checksum_pass_bytes +
        result.server_send.copy_pass_bytes);
    table.row().cell("recv: fused loop bytes").cell(
        result.client_receive.fused_loop_bytes);
    table.row().cell("recv: standalone pass bytes").cell(
        result.client_receive.marshal_pass_bytes +
        result.client_receive.cipher_pass_bytes +
        result.client_receive.checksum_pass_bytes +
        result.client_receive.copy_pass_bytes);
    table.print();
    return result.verified ? 0 : 1;
}
