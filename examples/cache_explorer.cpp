// Cache explorer: run the same transfer on different machine models and see
// how the memory system experiences it.
//
// Usage: cache_explorer [ilp|layered] [machine]
//   machine: ss10-30 ss10-41 ss10-51 ss20-60 axp3000-500 axp3000-600
//            axp3000-800 (default: all)
//
// For each machine, transfers a 15 KB file with 1 KB packets under the
// memory-system simulator and prints per-side access counts, miss counts,
// miss ratios and memory-system cycles — the raw material behind the
// paper's §4.2 analysis.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "app/harness.h"
#include "crypto/safer_simplified.h"
#include "memsim/configs.h"
#include "platform/machines.h"
#include "stats/table.h"

int main(int argc, char** argv) {
    using namespace ilp;

    engine::flow_config config;
    config.mode = app::path_mode::ilp;
    if (argc > 1 && std::strcmp(argv[1], "layered") == 0) {
        config.mode = app::path_mode::layered;
    }
    const std::string only = argc > 2 ? argv[2] : "";

    std::printf("=== cache behaviour of one 15 KB transfer (1 KB packets, "
                "%s path) ===\n\n",
                config.mode == app::path_mode::ilp ? "ILP" : "layered");

    stats::table table({"machine", "side", "accesses", "L1D misses",
                        "miss %", "L2 hits", "mem cycles"});
    for (const platform::machine_model& m : platform::paper_machines()) {
        if (!only.empty() && m.name != only) continue;
        memsim::memory_system client(m.memory);
        memsim::memory_system server(m.memory);
        const auto result =
            app::run_transfer_simulated<crypto::safer_simplified>(
                config, client, server);
        if (!result.completed) {
            std::printf("%s: transfer failed!\n", m.display.c_str());
            continue;
        }
        const auto add = [&](const char* side, memsim::memory_system& sys) {
            table.row()
                .cell(m.display)
                .cell(side)
                .cell(sys.data_stats().total_accesses())
                .cell(sys.data_stats().total_misses())
                .cell(sys.data_stats().miss_ratio() * 100.0, 1)
                .cell(sys.l2() != nullptr ? sys.l2()->hits() : 0)
                .cell(sys.cycles());
        };
        add("send", server);
        add("recv", client);
    }
    table.print();
    std::printf("\nThings to look for (paper §4.2):\n"
                "  * the SS10-30 (no L2) pays main memory for every miss;\n"
                "  * the Alphas' 8 KB direct-mapped L1 misses more than the\n"
                "    SuperSPARC's 16 KB 4-way cache;\n"
                "  * re-run with `layered` — accesses rise by the extra\n"
                "    passes while misses barely move, which is exactly why\n"
                "    ILP's win is access elimination, not hit-rate.\n");
    return 0;
}
