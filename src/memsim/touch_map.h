// Shadow word-touch counters for the runtime fusion auditor.
//
// Figure 13's memory-access counts rest on the ILP loop's core property:
// each payload word is read from source memory exactly once and written to
// destination memory exactly once.  A `touch_map` verifies it directly — it
// shadows declared byte ranges (the application buffer, the wire image, the
// TCP ring span) with per-byte read/write counters, and `memory_system`
// reports every counted data access into it.  The analyzer
// (src/analysis/touch_audit.h) then turns count mismatches into findings:
// a stage that re-reads payload memory shows up as reads==2, a loop that
// bounces data through a staging pass shows up as extra writes.
//
// The map is debug tooling: it piggybacks on `sim_memory` runs and costs
// nothing when no map is attached (one null check per access).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "memsim/access.h"
#include "util/contracts.h"

namespace ilp::memsim {

class touch_map {
public:
    struct counts {
        std::uint32_t reads = 0;
        std::uint32_t writes = 0;
    };

    // Registers [base, base+len) for auditing under `label`.  Ranges must
    // not overlap (each byte has one owner).
    void watch(std::string label, const std::byte* base, std::size_t len) {
        const std::uint64_t lo = reinterpret_cast<std::uintptr_t>(base);
        for (const range& r : ranges_) {
            ILP_EXPECT(lo + len <= r.base || r.base + r.counters.size() <= lo);
        }
        ranges_.push_back({std::move(label), lo, {}});
        ranges_.back().counters.resize(len);
    }

    // Called by memory_system for every counted data access; clips the
    // access to each watched range it intersects.
    void on_access(std::uint64_t addr, std::size_t bytes,
                   access_kind kind) noexcept {
        for (range& r : ranges_) {
            const std::uint64_t end = r.base + r.counters.size();
            if (addr >= end || addr + bytes <= r.base) continue;
            const std::uint64_t lo = addr > r.base ? addr : r.base;
            const std::uint64_t hi = addr + bytes < end ? addr + bytes : end;
            for (std::uint64_t a = lo; a < hi; ++a) {
                counts& c = r.counters[static_cast<std::size_t>(a - r.base)];
                if (kind == access_kind::read) {
                    ++c.reads;
                } else {
                    ++c.writes;
                }
            }
        }
    }

    std::size_t range_count() const noexcept { return ranges_.size(); }
    std::string_view label(std::size_t i) const { return ranges_[i].label; }
    std::size_t size(std::size_t i) const { return ranges_[i].counters.size(); }
    const counts& at(std::size_t i, std::size_t offset) const {
        return ranges_[i].counters[offset];
    }

    // Index of the range registered under `label`, or npos.
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::size_t find(std::string_view label_text) const noexcept {
        for (std::size_t i = 0; i < ranges_.size(); ++i) {
            if (ranges_[i].label == label_text) return i;
        }
        return npos;
    }

private:
    struct range {
        std::string label;
        std::uint64_t base = 0;
        std::vector<counts> counters;
    };

    std::vector<range> ranges_;
};

}  // namespace ilp::memsim
