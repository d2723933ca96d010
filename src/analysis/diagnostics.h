// Diagnostic rendering for analyzer findings.
//
// Text mode mirrors compiler diagnostics so editors and humans parse it at
// a glance:
//
//   src/app/compose_models.h:flow_graph: error: [R1-ordering] stage
//   'crc32_tap' is ordering-constrained but ...
//   (pipeline: flow/safer-k64/v2/tap-crc32/send-bca)
//
// JSON mode is the machine-readable CI contract: a stable top-level object
// with per-finding records and summary counts; `ilp-lint --json` emits it
// and the workflow fails on any error-severity finding.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/check.h"
#include "util/json.h"

namespace ilp::analysis {

// "fused", "word_chain" or "layered", as --list and the JSON report say.
const char* kind_name(pipeline_kind k);

// One finding in text form (no trailing newline).
std::string render_text(const finding& f);

// All findings plus a summary line, to `out`.  Returns the error count.
std::size_t print_report(std::FILE* out, const std::vector<finding>& findings);

// The full JSON document (findings + counts + pipeline inventory), in the
// records layout.
std::string render_json(const std::vector<pipeline_model>& models,
                        const std::vector<finding>& findings);
// The same document as one value of a larger one (`ilp-lint --compose`).
void write_json(json::writer& w, const std::vector<pipeline_model>& models,
                const std::vector<finding>& findings);

}  // namespace ilp::analysis
