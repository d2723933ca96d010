// A6 — §4.1's outlook: zero-copy network adapters raise the ILP benefit.
//
// "Using more advanced systems, e.g. zero-copy network adapters [13][14][15]
// and dedicated operating system support with less system overhead, could
// raise the benefits from ILP further."
//
// With an fbufs-style adapter the system copy at each domain crossing
// disappears for *both* implementations; what remains is dominated by the
// data manipulations, where ILP's advantage lives — so the relative gain
// grows.  This bench runs the standard experiment on the SS10-30 model with
// the conventional copying adapter and with the zero-copy adapter and
// compares the gains.
//
// Observability hooks (the BENCH regression pipeline):
//   --smoke        smaller simulated transfer (fast CI variant)
//   --json=PATH    write a versioned BENCH JSON report (schema v2) for
//                  `ilp-trace --diff` against a checked-in baseline.  The
//                  report measures real simulated-memory accesses for the
//                  {mode x adapter} grid instead of the estimator, so the
//                  receive-side access drop from in-place segment
//                  processing is regression-gated.
#include <cstdio>
#include <string>

#include "crypto/safer_simplified.h"
#include "memsim/configs.h"
#include "obs/bench_json.h"
#include "platform/estimator.h"
#include "stats/table.h"

namespace {

using namespace ilp;
using namespace ilp::platform;

struct pair_result {
    double ilp_us = 0;
    double layered_us = 0;

    double gain_percent() const {
        return (layered_us - ilp_us) / layered_us * 100.0;
    }
};

pair_result run(bool zero_copy) {
    engine::flow_config config;
    config.file_bytes = 15 * 1024;
    config.packet_wire_bytes = 1024;
    config.zero_copy = zero_copy;
    const machine_model m = machine("ss10-30");
    const auto ilp_run =
        run_experiment(m, impl_kind::ilp, cipher_kind::safer_simplified,
                       config);
    const auto lay_run =
        run_experiment(m, impl_kind::layered, cipher_kind::safer_simplified,
                       config);
    return {ilp_run.send_us_per_packet, lay_run.send_us_per_packet};
}

// One simulated transfer on SuperSPARC memory pairs; returns the client's
// modelled data accesses (the client is the reply *receiver*, so this is
// the receive-side cost the zero-copy loan path is meant to cut).
std::uint64_t measured_client_accesses(app::path_mode mode, bool zero_copy,
                                       std::size_t file_bytes) {
    engine::flow_config config;
    config.mode = mode;
    config.file_bytes = file_bytes;
    config.zero_copy = zero_copy;
    memsim::memory_system client(memsim::supersparc_with_l2());
    memsim::memory_system server(memsim::supersparc_with_l2());
    const auto result = app::run_transfer_simulated<crypto::safer_simplified>(
        config, client, server);
    if (!result.completed || !result.verified) return 0;
    return client.data_stats().total_accesses();
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
        } else {
            std::fprintf(stderr,
                         "usage: bench_ablation_zerocopy [--smoke]"
                         " [--json=PATH]\n");
            return 2;
        }
    }

    std::printf("=== A6: ILP benefit with a conventional vs zero-copy "
                "adapter (SS10-30, 1 KB, send) ===\n\n");
    const pair_result copying = run(false);
    const pair_result zero_copy = run(true);

    stats::table table({"adapter", "non-ILP us", "ILP us", "gain %"});
    table.row()
        .cell("copying (system copy)")
        .cell(copying.layered_us, 0)
        .cell(copying.ilp_us, 0)
        .cell(copying.gain_percent(), 1);
    table.row()
        .cell("zero-copy (fbufs)")
        .cell(zero_copy.layered_us, 0)
        .cell(zero_copy.ilp_us, 0)
        .cell(zero_copy.gain_percent(), 1);
    table.print();

    std::printf("\nShape (§4.1): removing the system copy shrinks both"
                " absolute times by the same amount, so the *relative* ILP"
                " gain rises (%.1f%% -> %.1f%%) — the paper's argument that"
                " ILP matters more on advanced communication subsystems.\n",
                copying.gain_percent(), zero_copy.gain_percent());

    if (!json_path.empty()) {
        // Measured leg: real simulated-memory access counts for the
        // {mode x adapter} grid.  The loan-delivery receive path must keep
        // a visible access reduction over the counted staging copy.
        const std::size_t file_bytes = smoke ? 8 * 1024 : 32 * 1024;
        obs::bench_report report("ablation_zerocopy");
        report.meta("machine", "supersparc_with_l2");
        report.meta("cipher", "safer_simplified");
        report.meta("mode", smoke ? "smoke" : "full");
        struct cell {
            const char* name;
            app::path_mode mode;
            bool zero_copy;
        };
        const cell cells[] = {
            {"ilp.copying", app::path_mode::ilp, false},
            {"ilp.zero_copy", app::path_mode::ilp, true},
            {"layered.copying", app::path_mode::layered, false},
            {"layered.zero_copy", app::path_mode::layered, true},
        };
        std::uint64_t ilp_copying = 0;
        std::uint64_t ilp_zc = 0;
        for (const cell& c : cells) {
            const std::uint64_t accesses =
                measured_client_accesses(c.mode, c.zero_copy, file_bytes);
            if (accesses == 0) {
                std::fprintf(stderr, "ERROR: %s transfer failed\n", c.name);
                return 1;
            }
            report.metric(std::string(c.name) + ".client_accesses",
                          static_cast<double>(accesses), "accesses",
                          obs::direction::lower_is_better);
            if (c.mode == app::path_mode::ilp) {
                (c.zero_copy ? ilp_zc : ilp_copying) = accesses;
            }
        }
        const double reduction_pct =
            (static_cast<double>(ilp_copying) - static_cast<double>(ilp_zc)) /
            static_cast<double>(ilp_copying) * 100.0;
        report.metric("ilp.zero_copy_reduction_pct", reduction_pct, "percent",
                      obs::direction::higher_is_better);
        std::printf("\nMeasured (SuperSPARC, %zu KB): ILP client accesses"
                    " %llu copying -> %llu zero-copy (%.1f%% fewer).\n",
                    file_bytes / 1024,
                    static_cast<unsigned long long>(ilp_copying),
                    static_cast<unsigned long long>(ilp_zc), reduction_pct);
        if (ilp_zc >= ilp_copying) {
            std::fprintf(stderr, "ERROR: zero-copy did not reduce"
                                 " receive-side accesses\n");
            return 1;
        }
        if (!report.write(json_path)) {
            std::fprintf(stderr, "ERROR: cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
    }

    return zero_copy.gain_percent() > copying.gain_percent() ? 0 : 1;
}
