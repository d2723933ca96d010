// Multi-level memory-system simulator.
//
// Plays the role of SunOS `shade/cachesim` and DEC `atom` in the paper
// (§4.2): the instrumented protocol code streams every counted memory access
// through this model in program order, and the model reports access counts,
// per-size miss counts, per-level hit/miss statistics and an accumulated
// memory-system cycle count.
#pragma once

#include <cstdint>
#include <optional>

#include "memsim/access.h"
#include "memsim/cache.h"
#include "memsim/touch_map.h"

namespace ilp::memsim {

// Cycle costs of the hierarchy.  A hit in L1 costs l1_hit_cycles; an L1 miss
// that hits in L2 additionally costs l2_hit_cycles; a miss that goes to main
// memory costs memory_cycles.  Write-through traffic to the next level is
// charged at write_through_cycles per propagated write (models a write
// buffer absorbing most of the latency).
struct timing_model {
    std::uint32_t l1_hit_cycles = 1;
    std::uint32_t l2_hit_cycles = 8;
    std::uint32_t memory_cycles = 30;
    std::uint32_t write_through_cycles = 2;
};

struct memory_system_config {
    cache_config l1d;
    cache_config l1i;
    std::optional<cache_config> l2;  // unified second-level cache
    timing_model timing;
};

class memory_system {
public:
    explicit memory_system(const memory_system_config& config);

    // One data access of `bytes` bytes at `addr`.  Accesses spanning a cache
    // line boundary are split (each piece looked up separately) but counted
    // as a single access of the original size, matching how cachesim counts
    // load/store instructions.
    void data_access(std::uint64_t addr, std::size_t bytes, access_kind kind);

    void read(std::uint64_t addr, std::size_t bytes) {
        data_access(addr, bytes, access_kind::read);
    }
    void write(std::uint64_t addr, std::size_t bytes) {
        data_access(addr, bytes, access_kind::write);
    }

    // One instruction fetch of `bytes` code bytes starting at `addr`.
    void instruction_fetch(std::uint64_t addr, std::size_t bytes);

    // Per-size data access/miss histograms (misses are L1-D misses, the
    // quantity Figure 14 reports).
    const access_stats& data_stats() const noexcept { return data_stats_; }

    const cache& l1d() const noexcept { return l1d_; }
    const cache& l1i() const noexcept { return l1i_; }
    const cache* l2() const noexcept { return l2_ ? &*l2_ : nullptr; }

    std::uint64_t instruction_fetches() const noexcept { return ifetches_; }
    std::uint64_t instruction_fetch_misses() const noexcept {
        return ifetch_misses_;
    }

    // Accumulated memory-system time in cycles (data + instruction side).
    std::uint64_t cycles() const noexcept { return cycles_; }
    std::uint64_t data_cycles() const noexcept { return data_cycles_; }
    std::uint64_t instruction_cycles() const noexcept {
        return cycles_ - data_cycles_;
    }

    // Clears statistics but keeps cache contents (for phase-local
    // measurement), or flushes everything with cold_caches = true.
    void reset(bool cold_caches);

    // Attaches a shadow touch map (touch_map.h); every subsequent data
    // access is also reported there, at its original (unsplit) address and
    // size.  Pass nullptr to detach.  The map is the word-touch auditor's
    // data source and is not owned by the memory system.
    void set_touch_map(touch_map* map) noexcept { touch_map_ = map; }

private:
    // Charges the levels below L1 for one missing line; returns cycles.
    std::uint64_t charge_miss(std::uint64_t addr, access_kind kind);

    cache l1d_;
    cache l1i_;
    std::optional<cache> l2_;
    timing_model timing_;

    touch_map* touch_map_ = nullptr;
    access_stats data_stats_;
    std::uint64_t ifetches_ = 0;
    std::uint64_t ifetch_misses_ = 0;
    std::uint64_t cycles_ = 0;
    std::uint64_t data_cycles_ = 0;
};

}  // namespace ilp::memsim
