// E0 — the paper's §1 introduction experiment.
//
// "The XDR marshalling routine ... for an array of 20 integer values has
// been combined with the TCP checksum routine.  The throughput is 70 Mbps
// for executing the two routines sequentially in contrast to 100 Mbps for
// integrating both functions into a single loop" — over 40 % gain.
//
// This bench measures the same two variants as native wall-clock code (the
// data manipulations run with direct_memory, i.e. raw loads/stores):
//   sequential: marshal pass (read ints, write XDR words), then checksum
//               pass (read the words again);
//   integrated: one fused loop — the checksum taps the words while they are
//               still in registers.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/paper_data.h"
#include "buffer/byte_buffer.h"
#include "checksum/internet_checksum.h"
#include "core/fused_pipeline.h"
#include "core/layered_path.h"
#include "core/stage.h"
#include "memsim/configs.h"
#include "stats/table.h"
#include "util/rng.h"

namespace {

using namespace ilp;

struct workload {
    std::vector<std::int32_t> values;
    byte_buffer wire;

    explicit workload(std::size_t count)
        : values(count), wire(count * 4) {
        rng r(1234);
        for (auto& v : values) v = static_cast<std::int32_t>(r.next_u32());
    }

    core::gather_source source() const {
        core::gather_source src;
        src.add({reinterpret_cast<const std::byte*>(values.data()),
                 values.size() * 4},
                core::segment_op::xdr_words);
        return src;
    }
};

std::uint16_t run_sequential(workload& w) {
    const memsim::direct_memory mem;
    core::marshal_to_buffer(mem, w.source(), w.wire.span());
    checksum::inet_accumulator acc;
    core::checksum_pass(mem, acc, w.wire.span(), 8);
    return acc.finish();
}

std::uint16_t run_integrated(workload& w) {
    const memsim::direct_memory mem;
    checksum::inet_accumulator acc;
    core::checksum_tap8 tap(acc);
    auto loop = core::make_pipeline(tap);
    loop.run(mem, w.source(), core::span_dest(w.wire.span()));
    return acc.finish();
}

void bm_sequential(benchmark::State& state) {
    workload w(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(run_sequential(w));
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0) * 4);
}

void bm_integrated(benchmark::State& state) {
    workload w(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(run_integrated(w));
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0) * 4);
}

BENCHMARK(bm_sequential)->Arg(20)->Arg(256)->Arg(4096)->Arg(65536);
BENCHMARK(bm_integrated)->Arg(20)->Arg(256)->Arg(4096)->Arg(65536);

// Quick self-timed comparison for the summary table (gbench reports the
// rigorous numbers above).
double measure_mbps(std::size_t ints, bool integrated) {
    workload w(ints);
    // Warm up and pick an iteration count that runs ~50 ms.
    const auto run = [&] {
        return integrated ? run_integrated(w) : run_sequential(w);
    };
    volatile std::uint16_t sink = run();
    const std::size_t iterations = std::max<std::size_t>(64, (1 << 22) / (ints * 4));
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iterations; ++i) sink = run();
    const auto end = std::chrono::steady_clock::now();
    (void)sink;
    const double seconds = std::chrono::duration<double>(end - start).count();
    return static_cast<double>(iterations * ints * 4) * 8.0 / seconds / 1e6;
}

// Simulated 1995 comparison: run both variants through the SuperSPARC
// memory model and convert cycles to Mbps at the SS10-30's 36 MHz.  On a
// memory-bound 1995 machine the integrated loop's saved pass (3 memory ops
// per word down to 2) is exactly the paper's >40 % gain.
void print_simulated_summary() {
    std::printf("\n--- simulated on the SS10-30 memory model (the paper's "
                "setting) ---\n");
    stats::table table({"ints", "variant", "mem ops", "mem cycles",
                        "model Mbps", "paper Mbps"});
    for (const std::size_t ints : {20u, 4096u}) {
        for (const bool integrated : {false, true}) {
            workload w(ints);
            memsim::memory_system sys(memsim::supersparc_with_l2());
            memsim::sim_memory mem(sys);
            checksum::inet_accumulator acc;
            if (integrated) {
                core::checksum_tap8 tap(acc);
                auto loop = core::make_pipeline(tap);
                loop.run(mem, w.source(), core::span_dest(w.wire.span()));
            } else {
                core::marshal_to_buffer(mem, w.source(), w.wire.span());
                core::checksum_pass(mem, acc, w.wire.span(), 8);
            }
            // ~1 ALU cycle per word of marshalling/checksum work on top of
            // the memory-system time.
            const double cycles =
                static_cast<double>(sys.cycles()) + static_cast<double>(ints);
            const double mbps =
                static_cast<double>(ints) * 32.0 / (cycles / 36.0) ;
            table.row()
                .cell(static_cast<std::uint64_t>(ints))
                .cell(integrated ? "integrated" : "sequential")
                .cell(sys.data_stats().total_accesses())
                .cell(sys.cycles())
                .cell(mbps, 0)
                .cell(ints == 20
                          ? std::to_string(static_cast<int>(
                                integrated
                                    ? ilp::bench::intro_integrated_mbps
                                    : ilp::bench::intro_sequential_mbps))
                          : std::string("-"));
        }
    }
    table.print();
    std::printf("Shape check (1995): the integrated loop does 2 memory ops"
                " per word instead of 3, worth the paper's >40%% throughput"
                " gain on memory-bound hardware.\n");
}

void print_summary() {
    std::printf("\n=== E0: intro experiment (paper §1) — XDR marshal of an "
                "int array + TCP checksum ===\n");
    stats::table table({"ints", "sequential Mbps", "integrated Mbps",
                        "gain %", "paper seq", "paper int", "paper gain %"});
    for (const std::size_t ints : {20u, 256u, 4096u, 65536u}) {
        const double seq = measure_mbps(ints, false);
        const double fused = measure_mbps(ints, true);
        table.row()
            .cell(static_cast<std::uint64_t>(ints))
            .cell(seq, 0)
            .cell(fused, 0)
            .cell((fused - seq) / seq * 100.0, 1)
            .cell(ints == 20 ? std::to_string(static_cast<int>(
                                   ilp::bench::intro_sequential_mbps))
                             : std::string("-"))
            .cell(ints == 20 ? std::to_string(static_cast<int>(
                                   ilp::bench::intro_integrated_mbps))
                             : std::string("-"))
            .cell(ints == 20 ? std::string(">40") : std::string("-"));
    }
    table.print();
    std::printf("Note: natively the fused loop runs in 2 KiB strips (fill"
                " once, each stage across the strip, drain once), so both"
                " variants are tight loops.  On a modern out-of-order core"
                " the integrated loop wins on small arrays, where the second"
                " pass's fixed cost dominates, and is within noise of the"
                " sequential passes on large ones — the 1995 effect was"
                " about memory operations, which the simulated comparison"
                " below isolates.\n");
    print_simulated_summary();
}

}  // namespace

int main(int argc, char** argv) {
    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    print_summary();
    return 0;
}
