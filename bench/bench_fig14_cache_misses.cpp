// E9 — Figure 14: simulated first-level data-cache misses (read and write,
// send and receive, both ciphers) for 10.7 MB of transferred data.
//
// The paper's surprise (§4.2): ILP does *not* improve the cache-miss ratio
// — it reduces accesses more than misses, so the ratio rises (receive:
// 4.7 % -> 18.7 % with the simplified SAFER K-64), while the constant-based
// simple cipher lets ILP halve the send-side misses.
#include <cstdio>

#include "app/harness.h"
#include "bench/paper_data.h"
#include "crypto/safer_simplified.h"
#include "crypto/simple_cipher.h"
#include "memsim/configs.h"
#include "obs/export_text.h"
#include "obs/tracer.h"
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
    config.copies = 730;  // ~10.7 MB
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
    std::printf("=== Figure 14: L1-D cache misses for 10.7 MB of data "
                "===\n");
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

    stats::table table({"cipher", "side", "impl", "read miss M",
                        "write miss M", "miss ratio %"});
    const auto add = [&](const char* cipher, const char* side,
                         const char* impl, const memsim::access_stats& a) {
        table.row()
            .cell(cipher)
            .cell(side)
            .cell(impl)
            .cell(millions(a.reads.total_misses()), 2)
            .cell(millions(a.writes.total_misses()), 2)
            .cell(a.miss_ratio() * 100.0, 1);
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

    std::printf("\nPer-stage miss attribution, simplified SAFER, ILP:\n%s",
                obs::stage_summary(ilp_tracer).c_str());
    std::printf("\nPer-stage miss attribution, simplified SAFER, non-ILP:\n%s",
                obs::stage_summary(lay_tracer).c_str());

    std::printf("\nHeadline comparisons with the paper:\n");
    std::printf("  recv miss ratio, simplified SAFER: non-ILP %.1f%% -> ILP"
                " %.1f%%   (paper: %.1f%% -> %.1f%%)\n",
                safer_lay.recv.miss_ratio() * 100.0,
                safer_ilp.recv.miss_ratio() * 100.0,
                ilp::bench::fig14_recv_ratio_non_ilp,
                ilp::bench::fig14_recv_ratio_ilp);
    std::printf("  -> shape: ILP %s the miss ratio (the paper's surprising"
                " result: fewer accesses, not better caching)\n",
                safer_ilp.recv.miss_ratio() > safer_lay.recv.miss_ratio()
                    ? "raises"
                    : "does not raise");
    const double send_miss_reduction =
        1.0 - static_cast<double>(simple_ilp.send.total_misses()) /
                  static_cast<double>(simple_lay.send.total_misses());
    std::printf("  simple cipher, send-side misses: ILP reduces them by"
                " %.0f%%  (paper: ~50%%)\n",
                send_miss_reduction * 100.0);
    std::printf("  1-byte miss check: the table-driven cipher's per-byte"
                " reads stay cache-resident in both modes here (%.2fM vs"
                " %.2fM); the paper's extra 1-byte misses came from its"
                " decrypt writing single bytes straight to memory, which"
                " this implementation's register-staged stages avoid by"
                " design (see EXPERIMENTS.md).\n",
                millions(safer_ilp.recv.reads.misses[memsim::size_bucket(1)]),
                millions(safer_lay.recv.reads.misses[memsim::size_bucket(1)]));
    return 0;
}
