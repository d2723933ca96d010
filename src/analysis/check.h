// Fusion-legality checker: Braun & Diot's applicability rules, executable.
//
// `check_pipeline` maps one pipeline model to a list of findings.
// Error-severity findings are fusions the paper rules illegal — running them
// silently computes garbage (a CRC over parts processed out of order, a
// cipher block straddling a part boundary); warnings are legal-but-costly
// compositions (word-granularity handoffs, table working sets that thrash
// the data cache); notes record properties reviewers should see (what data
// a checksum tap actually covers).
//
// Rules (ids appear in diagnostics and JSON output):
//   R1-ordering     error  ordering-constrained stage under out-of-order
//                          part schedule (§2.2: CRC, stream ciphers)
//   R2-header-size  error  a header length is only known mid-loop (§2.2)
//   R3-granularity  error  part geometry straddles a stage's unit/alignment
//   R4-footprint    error  malformed footprint declaration (analyzer input)
//   W1-word-handoff warn   word filters split >4-byte units into word
//                          stores (§2.1/§2.2 critique)
//   W2-cache-pressure warn fused table working set rivals the L1 data cache
//                          (§4.2: table-driven manipulations under ILP)
//   W3-register-pressure warn Le exceeds what registers can hold (§2.2)
//   W4-conservative-footprint warn a stage has no declared footprint; the
//                          checker is running on a synthesized conservative
//                          default, so "legal" overstates what was proved
//   N1-tap-domain   note   what an observe-only tap covers (cipher-text vs
//                          plain-text checksums)
//   A1-redundant-touch / A2-missed-touch / A3-copy-count: emitted by the
//                          runtime word-touch auditor (touch_audit.h), not
//                          by this checker.
#pragma once

#include <string>
#include <vector>

#include "analysis/model.h"

namespace ilp::analysis {

enum class severity { note, warning, error };

const char* severity_name(severity s) noexcept;

struct finding {
    severity sev = severity::note;
    const char* rule = "";      // stable id, e.g. "R1-ordering"
    std::string site;           // file:function-style location
    std::string pipeline;       // pipeline (stage graph) name
    std::string message;
    // The offending stage — or stage pair, rendered "a × b" — the rule
    // fired on.  Machine-readable companion to the prose in `message`; the
    // composer copies the first error's value into its verdict.
    std::string stage;
};

// Working-set threshold for W2: half of the smallest evaluated L1 data
// cache (Alpha 21064: 8 KB direct-mapped).  Above this the fused loop's
// tables compete with packet data for most of the cache.
inline constexpr std::size_t cache_pressure_threshold_bytes = 4096;

// Largest exchanged unit we accept without a register-pressure warning; the
// loop scratch is meant to live in registers (§2.2).
inline constexpr std::size_t register_file_budget_bytes = 64;

// Applies every static rule to one model.
std::vector<finding> check_pipeline(const pipeline_model& model);

// Applies the part-geometry rules (R3) to an explicit geometry — used by
// ilp-lint's --sweep mode to prove the plan generator never produces a
// straddling plan for any marshalled size.
std::vector<finding> check_part_geometry(const pipeline_model& model,
                                         const std::vector<part_info>& parts);

// True if no finding is error-severity.
bool passes(const std::vector<finding>& findings) noexcept;

}  // namespace ilp::analysis
