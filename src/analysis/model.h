// Pipeline models — the composed form the applicability rules run on.
//
// A `pipeline_model` is one composed pipeline: which stages are fused (their
// footprints, in loop order), how data is scheduled through them (linear vs
// the paper's out-of-order B,C,A part plan, plus the part geometry itself),
// and where in the codebase the composition lives.  Compositions are written
// as stage graphs (graph.h); compose_and_check (compose.h) folds each into
// a pipeline_model, both for the engine's legality gate and for every
// pipeline `ilp-lint` checks (app::pipeline_inventory).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/footprint.h"

namespace ilp::analysis {

// How the stages are composed.
enum class pipeline_kind {
    fused,       // compile-time fused_pipeline (the ILP loop)
    word_chain,  // Abbott & Peterson word-filter chain
    layered,     // separate per-layer passes (the non-ILP baseline)
};

// One message part as scheduled through the loop, in processing order.
// Offsets are stream offsets from the start of the wire image.
struct part_info {
    std::size_t offset = 0;
    std::size_t len = 0;
};

struct pipeline_model {
    // Name, unique within the inventory, used in diagnostics and --list.
    std::string name;
    // Where the composition lives: "src/app/send_path.h:fill_message_ilp".
    std::string site;

    pipeline_kind kind = pipeline_kind::fused;

    // Stage footprints in the order they apply to each unit.
    std::vector<footprint> stages;

    // The exchanged unit Le the loop iterates in (lcm of stage units and the
    // Ls = 8 memory-path parameter for fused pipelines; the 4-byte word for
    // word-filter chains).
    std::size_t exchange_unit_bytes = 8;

    // Message parts in the order the composition processes them; empty means
    // "one contiguous run" and disables part-geometry checks.
    std::vector<part_info> parts;

    // True when `parts` are processed in a different order than their stream
    // offsets (the §3.2.2 B,C,A schedule).  Ordering-constrained stages are
    // illegal under this flag.
    bool out_of_order_parts = false;

    // False models compositions that enter the loop before every header
    // length is fixed — the paper's second applicability rule.
    bool header_sizes_known = true;
};

}  // namespace ilp::analysis
