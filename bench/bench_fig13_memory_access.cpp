// E8 — Figure 13: simulated memory accesses of the ILP and non-ILP
// implementations (read and write, send and receive side, both ciphers).
//
// The paper instruments the transfer of 10.7 MB of data under shade's
// cachesim; we transfer the same volume (the 15 KB file, 730 copies) under
// the memory-system simulator with the SuperSPARC cache configuration and
// report access counts in millions, plus the headline deltas the paper
// quotes: ILP saves 13.7e6 reads + 12.0e6 writes on the send side and
// 8.4e6 + 8.3e6 on the receive side with the simplified SAFER K-64.
#include <cstdio>

#include "app/harness.h"
#include "bench/paper_data.h"
#include "crypto/safer_simplified.h"
#include "crypto/simple_cipher.h"
#include "memsim/configs.h"
#include "obs/export_text.h"
#include "obs/tracer.h"
#include "platform/estimator.h"
#include "stats/table.h"

namespace {

using namespace ilp;

struct run_stats {
    memsim::access_stats send;
    memsim::access_stats recv;
    bool ok = false;
};

template <typename Cipher>
run_stats run(app::path_mode mode, obs::tracer* tracer = nullptr) {
    engine::flow_config config;
    config.file_bytes = 15 * 1024;
    config.copies = 730;  // ~10.7 MB, as in the paper
    config.packet_wire_bytes = 1024;
    config.mode = mode;
    config.deadline_us = 3'600'000'000ull;
    memsim::memory_system client(memsim::supersparc_with_l2());
    memsim::memory_system server(memsim::supersparc_with_l2());
    obs::tracer* prev = obs::tracer::install(tracer);
    const auto result =
        app::run_transfer_simulated<Cipher>(config, client, server);
    obs::tracer::install(prev);
    return {server.data_stats(), client.data_stats(),
            result.completed && result.verified};
}

double millions(std::uint64_t v) { return static_cast<double>(v) / 1e6; }

}  // namespace

int main() {
    std::printf("=== Figure 13: memory accesses for 10.7 MB of data "
                "(millions) ===\n");
    std::printf("running 4 instrumented transfers of 10.7 MB each...\n\n");

    obs::tracer ilp_tracer;
    obs::tracer lay_tracer;
    const run_stats safer_ilp =
        run<crypto::safer_simplified>(app::path_mode::ilp, &ilp_tracer);
    const run_stats safer_lay =
        run<crypto::safer_simplified>(app::path_mode::layered, &lay_tracer);
    const run_stats simple_ilp = run<crypto::simple_cipher>(app::path_mode::ilp);
    const run_stats simple_lay =
        run<crypto::simple_cipher>(app::path_mode::layered);
    if (!(safer_ilp.ok && safer_lay.ok && simple_ilp.ok && simple_lay.ok)) {
        std::printf("ERROR: a transfer failed to complete\n");
        return 1;
    }

    stats::table table({"cipher", "side", "impl", "reads M", "writes M",
                        "total M"});
    const auto add = [&](const char* cipher, const char* side,
                         const char* impl, const memsim::access_stats& a) {
        table.row()
            .cell(cipher)
            .cell(side)
            .cell(impl)
            .cell(millions(a.reads.total_accesses()), 1)
            .cell(millions(a.writes.total_accesses()), 1)
            .cell(millions(a.total_accesses()), 1);
    };
    add("simplified SAFER", "send", "ILP", safer_ilp.send);
    add("simplified SAFER", "send", "non-ILP", safer_lay.send);
    add("simplified SAFER", "recv", "ILP", safer_ilp.recv);
    add("simplified SAFER", "recv", "non-ILP", safer_lay.recv);
    add("simple", "send", "ILP", simple_ilp.send);
    add("simple", "send", "non-ILP", simple_lay.send);
    add("simple", "recv", "ILP", simple_ilp.recv);
    add("simple", "recv", "non-ILP", simple_lay.recv);
    table.print();

    const double send_read_delta =
        millions(safer_lay.send.reads.total_accesses() -
                 safer_ilp.send.reads.total_accesses());
    const double send_write_delta =
        millions(safer_lay.send.writes.total_accesses() -
                 safer_ilp.send.writes.total_accesses());
    const double recv_read_delta =
        millions(safer_lay.recv.reads.total_accesses() -
                 safer_ilp.recv.reads.total_accesses());
    const double recv_write_delta =
        millions(safer_lay.recv.writes.total_accesses() -
                 safer_ilp.recv.writes.total_accesses());

    std::printf("\nILP savings with simplified SAFER (vs paper's shade "
                "measurements):\n");
    stats::table deltas({"quantity", "measured M", "paper M"});
    deltas.row().cell("send: fewer reads").cell(send_read_delta, 1).cell(
        ilp::bench::fig13_send_read_delta_m, 1);
    deltas.row().cell("send: fewer writes").cell(send_write_delta, 1).cell(
        ilp::bench::fig13_send_write_delta_m, 1);
    deltas.row().cell("recv: fewer reads").cell(recv_read_delta, 1).cell(
        ilp::bench::fig13_recv_read_delta_m, 1);
    deltas.row().cell("recv: fewer writes").cell(recv_write_delta, 1).cell(
        ilp::bench::fig13_recv_write_delta_m, 1);
    deltas.print();

    const double send_bytes_saved =
        static_cast<double>(safer_lay.send.reads.total_bytes() +
                            safer_lay.send.writes.total_bytes() -
                            safer_ilp.send.reads.total_bytes() -
                            safer_ilp.send.writes.total_bytes()) /
        (1024.0 * 1024.0);
    std::printf("\nPer-stage access attribution, simplified SAFER, ILP:\n%s",
                obs::stage_summary(ilp_tracer).c_str());
    std::printf("\nPer-stage access attribution, simplified SAFER, non-ILP:"
                "\n%s",
                obs::stage_summary(lay_tracer).c_str());

    std::printf("\nsend side moves %.0f MB less under ILP (paper: 55 MB read"
                " + 48 MB written less; our 64-bit-path model moves fewer,"
                " wider accesses, so the byte delta is the comparable"
                " quantity: %.0f MB here corresponds to the paper's 3 saved"
                " passes).\n",
                send_bytes_saved, send_bytes_saved);
    std::printf("Shape: ILP cuts send-side accesses by ~%0.f%% (paper: up to"
                " 30%%), reads and writes both drop, and the savings shrink"
                " with the simple cipher only because its table traffic is"
                " absent on both sides.\n",
                (1.0 - static_cast<double>(safer_ilp.send.total_accesses()) /
                           static_cast<double>(safer_lay.send.total_accesses())) *
                    100.0);
    return 0;
}
