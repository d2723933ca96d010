// E3 — Figure 8: ILP and non-ILP transfer throughput for 1 kbyte packets
// across the seven machine models.
//
// Throughput folds in the system-side per-packet overhead (IP, driver, task
// switches), which is why the relative throughput gain is always smaller
// than the packet-processing gain (paper §4.1).
//
// Observability hooks (the BENCH regression pipeline):
//   --smoke        first machine only (fast CI variant)
//   --json=PATH    write a versioned BENCH JSON report (schema v2) for
//                  `ilp-trace --diff` against a checked-in baseline
//   --trace=PATH   run one extra instrumented transfer with the span tracer
//                  installed and write a Chrome trace_event file
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/paper_data.h"
#include "crypto/safer_simplified.h"
#include "memsim/configs.h"
#include "obs/bench_json.h"
#include "obs/export_chrome.h"
#include "obs/export_text.h"
#include "obs/tracer.h"
#include "platform/estimator.h"
#include "stats/table.h"

int main(int argc, char** argv) {
    using namespace ilp;
    using namespace ilp::platform;

    bool smoke = false;
    std::string json_path;
    std::string trace_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
        } else if (arg.rfind("--trace=", 0) == 0) {
            trace_path = arg.substr(8);
        } else {
            std::fprintf(stderr,
                         "usage: bench_fig08_throughput [--smoke]"
                         " [--json=PATH] [--trace=PATH]\n");
            return 2;
        }
    }

    obs::bench_report report("fig08_throughput");
    report.meta("packet_wire_bytes", "1024");
    report.meta("cipher", "safer_simplified");
    report.meta("mode", smoke ? "smoke" : "full");

    std::printf("=== Figure 8: throughput, 1 KB packets (Mbps) ===\n");
    stats::table table({"machine", "non-ILP", "ILP", "gain %",
                        "paper non-ILP", "paper ILP", "paper gain %"});
    std::size_t machines_run = 0;
    for (const machine_model& m : paper_machines()) {
        if (smoke && machines_run == 1) break;
        const auto ilp_run = run_standard_experiment(
            m, impl_kind::ilp, cipher_kind::safer_simplified, 1024);
        const auto lay_run = run_standard_experiment(
            m, impl_kind::layered, cipher_kind::safer_simplified, 1024);
        const auto* paper = bench::find_table1(m.name, 1024);
        table.row()
            .cell(m.display)
            .cell(lay_run.throughput_mbps, 2)
            .cell(ilp_run.throughput_mbps, 2)
            .cell(stats::percent_gain(lay_run.throughput_mbps,
                                      ilp_run.throughput_mbps) *
                      -1.0,  // throughput: higher is better
                  1)
            .cell(paper->non_ilp_mbps, 2)
            .cell(paper->ilp_mbps, 2)
            .cell((paper->ilp_mbps - paper->non_ilp_mbps) /
                      paper->non_ilp_mbps * 100.0,
                  1);
        report.metric(m.name + std::string(".ilp_mbps"),
                      ilp_run.throughput_mbps, "mbps",
                      obs::direction::higher_is_better);
        report.metric(m.name + std::string(".layered_mbps"),
                      lay_run.throughput_mbps, "mbps",
                      obs::direction::higher_is_better);
        report.metric(m.name + std::string(".send_us_per_packet"),
                      ilp_run.send_us_per_packet, "us",
                      obs::direction::lower_is_better);
        report.metric(m.name + std::string(".recv_us_per_packet"),
                      ilp_run.recv_us_per_packet, "us",
                      obs::direction::lower_is_better);
        ++machines_run;
    }
    table.print();
    std::printf("\nShape: ILP throughput beats non-ILP everywhere, but the"
                " relative improvement is smaller than the packet-processing"
                " improvement because system operations consume time"
                " comparable to the data manipulations (paper §4.1).\n");

    if (!json_path.empty() && !report.write(json_path)) {
        std::fprintf(stderr, "ERROR: cannot write %s\n", json_path.c_str());
        return 1;
    }

    if (!trace_path.empty()) {
        // One extra instrumented transfer with the tracer installed: the
        // per-stage span structure and cache-miss attribution of a small
        // SuperSPARC run, exported as a Chrome trace.
        obs::tracer tracer(8192);
        obs::tracer* prev = obs::tracer::install(&tracer);
        engine::flow_config config;
        config.packet_wire_bytes = 1024;
        memsim::memory_system client(memsim::supersparc_with_l2());
        memsim::memory_system server(memsim::supersparc_with_l2());
        const auto result =
            app::run_transfer_simulated<crypto::safer_simplified>(
                config, client, server);
        obs::tracer::install(prev);
        if (!result.completed) {
            std::fprintf(stderr, "ERROR: traced transfer failed\n");
            return 1;
        }
        if (!obs::write_chrome_trace(tracer, trace_path,
                                     obs::trace_timebase::sim_us)) {
            std::fprintf(stderr, "ERROR: cannot write %s\n",
                         trace_path.c_str());
            return 1;
        }
        std::printf("\nPer-stage breakdown of the traced transfer:\n%s",
                    obs::stage_summary(tracer).c_str());
    }
    return 0;
}
