#include "analysis/compose.h"

#include <numeric>

namespace ilp::analysis {

namespace {

void add_graph_finding(verdict& v, const stage_graph& g, severity sev,
                       const char* rule, std::string message,
                       std::string stage) {
    v.findings.push_back({sev, rule, g.site, g.name, std::move(message),
                          std::move(stage)});
}

// Graph-level R2: the trailer is a header size — its length must be fixed
// (and reserved) before the loop starts.  Stages that emit trailer bytes
// (AEAD tag) and framings that reserve them must agree exactly; an
// unclaimed reservation would put uninitialized bytes on the wire, an
// unreserved obligation would have no place to put the tag.
void check_trailer_obligations(verdict& v, const stage_graph& g) {
    std::size_t obliged = 0;
    const char* last_obliger = nullptr;
    for (const block_node& n : g.nodes) {
        if (n.fp.trailer_bytes == 0) continue;
        obliged += n.fp.trailer_bytes;
        last_obliger = n.fp.name;
    }
    if (obliged == g.trailer_reserved_bytes) return;
    if (obliged > g.trailer_reserved_bytes) {
        add_graph_finding(
            v, g, severity::error, "R2-header-size",
            std::string("stage '") + last_obliger + "' obliges " +
                std::to_string(obliged) +
                " trailer byte(s) but the framing reserves only " +
                std::to_string(g.trailer_reserved_bytes) +
                "; the trailer length is a header size that must be fixed "
                "before the loop starts (paper §2.2)",
            std::string(last_obliger) + " × framing");
    } else {
        add_graph_finding(
            v, g, severity::error, "R2-header-size",
            "framing reserves " + std::to_string(g.trailer_reserved_bytes) +
                " trailer byte(s) but the composed stages oblige only " +
                std::to_string(obliged) +
                "; no stage fills the reservation, so the wire would carry "
                "uninitialized trailer bytes",
            "framing × (no trailer-emitting stage)");
    }
}

}  // namespace

verdict compose_and_check(const stage_graph& g) {
    verdict v;
    v.hash = graph_hash(g);
    v.composed.name = g.name;
    v.composed.site = g.site;
    v.composed.kind = g.kind;
    v.composed.out_of_order_parts = g.out_of_order_parts;
    v.composed.header_sizes_known = g.header_sizes_known;
    v.composed.parts = g.parts;

    const std::optional<std::vector<std::size_t>> order = topo_order(g);
    if (!order.has_value()) {
        add_graph_finding(
            v, g, severity::error, "R4-footprint",
            "stage graph is cyclic (or has a dangling edge); a composition "
            "must be a DAG to fold into a pipeline",
            "graph cycle");
        v.legal = false;
        v.rule = v.findings.front().rule;
        v.offender = v.findings.front().stage;
        return v;
    }

    // Fold the footprints along the topological order: the composed stage
    // list, and Le as the lcm of every unit size over the Ls = 8 base — the
    // same fold fused_pipeline does at compile time.  A word chain hands
    // out 4-byte words whatever its filters process (W1 flags the gap), so
    // its Le is the handoff, not the fold.
    const bool word_chain = g.kind == pipeline_kind::word_chain;
    std::size_t le = word_chain ? 4 : 8;
    for (const std::size_t i : *order) {
        const footprint& fp = g.nodes[i].fp;
        v.composed.stages.push_back(fp);
        if (!word_chain && fp.unit_bytes != 0) le = std::lcm(le, fp.unit_bytes);
    }
    v.composed.exchange_unit_bytes = le;

    v.findings = check_pipeline(v.composed);
    check_trailer_obligations(v, g);

    v.legal = passes(v.findings);
    if (!v.legal) {
        for (const finding& f : v.findings) {
            if (f.sev != severity::error) continue;
            v.rule = f.rule;
            v.offender = f.stage;
            break;
        }
    }
    return v;
}

}  // namespace ilp::analysis
