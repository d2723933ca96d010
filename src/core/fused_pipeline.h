// The ILP loop: compile-time fusion of data-manipulation stages.
//
// `fused_pipeline<Stages...>` is the paper's integrated processing loop
// (Fig. 1): data is read once from the source into scratch (registers), every
// stage runs on it, and it is written once to the destination.  The exchanged
// unit Le is computed at compile time as lcm(Ls, L1, ..., Ln) from the stage
// unit sizes, with Ls = 8 modelling a 64-bit memory path (§2.2: "Le should
// also be chosen large enough to utilize the hardware architecture
// efficiently").
//
// The loop has two shapes, chosen by the memory policy:
//
//  * Under `sim_memory` it is the paper's loop exactly:
//    each iteration fills one Le-byte unit, runs every stage on it sub-unit
//    by sub-unit, and drains it.  The figure reproductions and the memsim
//    access counts measure this loop.
//  * Under `direct_memory` (native runs) it is strip-mined: it fills a stack
//    strip of `strip_bytes` (a multiple of Le) once, runs each stage across
//    the whole strip in unit order, then drains the strip once.  The cursor's
//    segment switch and each stage's set-up are paid per strip rather than
//    per unit, and each stage's loop is a tight loop the compiler can
//    schedule.
//
// The two shapes give the same bytes and the same accumulators: every stage
// still sees its units in the same order, each unit passes the stages in
// the same order (so a tap between two stages sees the same data), and the
// strip never crosses the end of a `run()` call, so part cuts — and the
// analyzer's ordering and alignment rules over them — are unchanged.  The
// strip is the wider "register file" of a modern core; memory traffic is
// still one read and one write per datum.
//
// Stage calls are statically dispatched and force-inlined — the modern form
// of the paper's macro expansion (§3.2.1: replacing macros with function
// calls "results in the loss of all performance benefits gained by ILP");
// dynamic_pipeline.h keeps the function-call variant for that ablation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/footprint.h"
#include "core/gather.h"
#include "core/stage.h"
#include "memsim/mem_policy.h"
#include "util/alignment.h"
#include "util/contracts.h"

namespace ilp::core {

// Native strip length S in bytes, chosen by a sweep over 8 B .. 4 KiB
// (DESIGN.md §5k).  A compile-time constant, not a knob.
inline constexpr std::size_t native_strip_bytes = 2048;

template <data_stage... Stages>
class fused_pipeline {
public:
    // The exchanged processing-unit length Le (paper §2.2), folding in the
    // system parameter Ls = 8 (64-bit memory path).
    static constexpr std::size_t unit_bytes =
        exchange_unit_of(std::size_t{8}, Stages::unit_bytes...);

    // Bytes per native strip: S, or one exchanged unit when Le > S.
    static constexpr std::size_t strip_bytes =
        unit_bytes > native_strip_bytes ? unit_bytes : native_strip_bytes;
    static_assert(strip_bytes % unit_bytes == 0,
                  "a strip must hold whole exchanged units");

    // True if any fused stage requires strictly serial processing; the
    // message planner consults this before scheduling parts out of order.
    static constexpr bool ordering_constrained =
        (false || ... || Stages::ordering_constrained);

    // Strictest stream-offset alignment any fused stage demands; slicing a
    // message at an offset that violates this makes a stage's block
    // straddle the cut (the analyzer's R3-granularity rule).
    static constexpr std::size_t required_alignment = std::max(
        {std::size_t{1}, analysis::footprint_of<Stages>().alignment...});

    // The composition's footprints in fusion order, for the analyzer and
    // the per-layer pipeline registrations.
    static std::vector<analysis::footprint> footprints() {
        return {analysis::footprint_of<Stages>()...};
    }

    explicit fused_pipeline(Stages&... stages) : stages_(&stages...) {}

    // Streams n bytes (a multiple of unit_bytes) from src to dst through all
    // stages; cursors advance so consecutive calls continue where the
    // previous one stopped (how message parts share one wire stream).
    template <memsim::memory_policy Mem>
    void run(const Mem& mem, gather_cursor& src, scatter_cursor& dst,
             std::size_t n) {
        ILP_EXPECT(n % unit_bytes == 0);
        // A strip natively; the paper's one unit under the simulator and
        // the tracer.
        constexpr std::size_t step =
            std::is_same_v<Mem, memsim::direct_memory> ? strip_bytes
                                                       : unit_bytes;
        alignas(8) std::byte scratch[step];
        for (std::size_t off = 0; off < n; off += step) {
            const std::size_t len = std::min(step, n - off);
            src.fill(mem, scratch, len);
            apply_stages(mem, scratch, len,
                         std::index_sequence_for<Stages...>{});
            dst.drain(mem, scratch, len);
        }
    }

    // Whole-message convenience: source and destination must describe the
    // same number of bytes.
    template <memsim::memory_policy Mem>
    void run(const Mem& mem, const gather_source& src,
             const scatter_dest& dst) {
        ILP_EXPECT(src.total_size() == dst.total_size());
        gather_cursor in(src);
        scatter_cursor out(dst);
        run(mem, in, out, src.total_size());
    }

private:
    // Runs each stage in turn over the `len` bytes at `scratch`, one stage
    // unit after another.
    template <memsim::memory_policy Mem, std::size_t... I>
    ILP_ALWAYS_INLINE void apply_stages([[maybe_unused]] const Mem& mem,
                                        [[maybe_unused]] std::byte* scratch,
                                        [[maybe_unused]] std::size_t len,
                                        std::index_sequence<I...>) {
        (apply_one<I>(mem, scratch, len), ...);
    }

    template <std::size_t I, memsim::memory_policy Mem>
    ILP_ALWAYS_INLINE void apply_one(const Mem& mem, std::byte* scratch,
                                     std::size_t len) {
        using stage_type = std::tuple_element_t<I, std::tuple<Stages...>>;
        auto* stage = std::get<I>(stages_);
        for (std::size_t i = 0; i < len; i += stage_type::unit_bytes) {
            stage->process_unit(mem, scratch + i);
        }
    }

    std::tuple<Stages*...> stages_;
};

// Deduction-friendly factory.
template <data_stage... Stages>
fused_pipeline<Stages...> make_pipeline(Stages&... stages) {
    return fused_pipeline<Stages...>(stages...);
}

// ---------------------------------------------------------------------------
// Common source/destination constructors

inline gather_source span_source(std::span<const std::byte> data) {
    gather_source src;
    src.add(data);
    return src;
}

inline scatter_dest span_dest(std::span<std::byte> data) {
    scatter_dest dst;
    dst.add(data);
    return dst;
}

// Destination writing into (up to two) ring-buffer spans — the ILP send
// loop's "align the data to the ring buffer structure" duty (§3.2.2).
inline scatter_dest ring_dest(const ring_span& dst) {
    scatter_dest out;
    if (!dst.first.empty()) out.add(dst.first);
    if (!dst.second.empty()) out.add(dst.second);
    return out;
}

// Source reading straight out of a loaned kernel-segment chain (up to two
// spans when the packet straddles the receive-ring wrap) — the zero-copy
// receive handoff: the fused loop consumes the wire bytes in place, with no
// reassembly copy ahead of it.
inline gather_source chain_source(const const_ring_span& chain) {
    gather_source src;
    if (!chain.first.empty()) src.add(chain.first);
    if (!chain.second.empty()) src.add(chain.second);
    return src;
}

// Read-only sink (e.g. a verification pass that only feeds checksum taps).
inline scatter_dest null_dest(std::size_t n) {
    scatter_dest out;
    out.add_discard(n);
    return out;
}

}  // namespace ilp::core
