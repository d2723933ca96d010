// Host-speed calibration for the end-to-end metrics.
//
// The host this benchmark was built on (a 4-vCPU Intel Xeon VM) has speed
// phases: for seconds to minutes at a time the same code runs up to 1.6x
// slower, because neighbours share the machine.  A phase often covers a
// whole run, so the medians of ten 20 s runs spread 6-13% (IQR/median).
// The fleet runner samples this kernel before every shard's run and after
// the last, and the gated metrics scale each rep by (sample / reference):
// the rep's figure at the speed the host had when `reference_s` was
// measured.  Normalised that way the same ten runs spread 0.7-3.3%.
//
// The kernel is the benchmark's own code, so no change to the stack can
// move it.  It mixes the kinds of work the stack does: dependent integer
// arithmetic, read-modify-writes into a table that fits in L2, and short
// copies.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <vector>

namespace ilp::bench_e2e {

class host_calibration {
public:
    // Median kernel time on the 4-vCPU Xeon VM in a quiet phase.
    static constexpr double reference_s = 0.006;

    // Runs the kernel once; returns its wall seconds.
    double sample() {
        const auto t = std::chrono::steady_clock::now();
        std::uint64_t x = 0x139408dcbbf7a44ull;
        for (std::uint32_t i = 0; i < iterations; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::uint64_t& e = table_[x & (table_.size() - 1)];
            e = e * 31 + x;
            if ((i & 255) == 0) {
                std::memcpy(to_.data() + (x & 1023), from_.data(), 2048);
                table_[7] += static_cast<std::uint64_t>(to_[100]);
            }
        }
        const std::chrono::duration<double> d =
            std::chrono::steady_clock::now() - t;
        return d.count();
    }

private:
    static constexpr std::uint32_t iterations = 2'000'000;
    std::vector<std::uint64_t> table_ = std::vector<std::uint64_t>(32768, 1);
    std::vector<unsigned char> from_ = std::vector<unsigned char>(4096, 1);
    std::vector<unsigned char> to_ = std::vector<unsigned char>(4096);
};

}  // namespace ilp::bench_e2e
