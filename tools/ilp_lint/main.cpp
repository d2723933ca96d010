// ilp-lint — fusion-legality linter for every pipeline the stack runs.
//
// Composes each stage graph of app::pipeline_inventory() (the TCP, RPC and
// application layers' static compositions plus the engine's flow graphs),
// runs the paper's applicability rules over it, and reports compiler-style
// diagnostics.  Exit status is the CI contract: 0 when no error-severity
// finding exists, 1 otherwise.
//
//   ilp-lint             text diagnostics over every inventory pipeline
//   ilp-lint --json      machine-readable report (findings + inventory)
//   ilp-lint --list      inventory only: every pipeline and its stages
//   ilp-lint --audit     additionally run the word-touch audits (the
//                        dynamic exactly-once check) on the fused
//                        send/receive paths under the memory simulator
//   ilp-lint --sweep=N   additionally check part geometry for every
//                        marshalled size up to N bytes against the send
//                        plan (plan_parts), catching torn-unit sizes
//   ilp-lint --compose   additionally sweep the runtime composition space:
//                        every cipher × framing × tap × schedule graph is
//                        composed, checked, and (where executable) run both
//                        fused and layered — accepted graphs must be
//                        bit-identical, rejected ones must name their rule
//                        (with --json, output gains a "compose" section)
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/compose.h"
#include "analysis/diagnostics.h"
#include "app/compose_models.h"
#include "app/compose_sweep.h"
#include "app/touch_audits.h"
#include "core/message_plan.h"
#include "crypto/safer_k64.h"
#include "util/json.h"

namespace {

using namespace ilp;

// The fused send path's flow graph, the name its audit findings carry.
constexpr const char* send_graph_name = "flow/safer-k64/v2/tap-none/send-bca";

void print_inventory(const std::vector<analysis::pipeline_model>& models) {
    for (const analysis::pipeline_model& m : models) {
        std::printf("%-24s %-10s Le=%-3zu %s\n", m.name.c_str(),
                    analysis::kind_name(m.kind),
                    m.exchange_unit_bytes, m.site.c_str());
        for (const analysis::footprint& fp : m.stages) {
            std::printf("    %-24s unit=%zu r/w=%zu/%zu align=%zu%s%s%s\n",
                        fp.name, fp.unit_bytes, fp.reads_per_unit,
                        fp.writes_per_unit, fp.alignment,
                        fp.ordering_constrained ? " ordering-constrained" : "",
                        fp.length_known_before_loop ? "" : " mid-loop-length",
                        fp.aux_table_bytes != 0 ? " tables" : "");
        }
    }
    std::printf("%zu pipelines registered\n", models.size());
}

// Geometry sweep: plan_parts() must produce a legal B,C,A plan for every
// message size the marshaller can emit.  A regression that breaks the
// padding math shows up here long before a runtime assertion does.
std::vector<analysis::finding> sweep_plans(std::size_t max_bytes) {
    std::vector<analysis::finding> out;
    const analysis::pipeline_model send_model =
        analysis::compose_and_check(app::flow_send_graph<crypto::safer_k64>(
                                        {}, app::compose_tap::none, 0))
            .composed;
    for (std::size_t marshalled = core::encryption_header_bytes;
         marshalled <= max_bytes; marshalled += 4) {
        const core::message_plan plan = core::plan_parts(marshalled);
        std::vector<analysis::part_info> parts;
        for (const core::message_part& p : plan.ilp_order()) {
            if (!p.empty()) parts.push_back({p.offset, p.len});
        }
        std::vector<analysis::finding> f =
            analysis::check_part_geometry(send_model, parts);
        for (analysis::finding& one : f) {
            one.message += " (marshalled size " + std::to_string(marshalled) +
                           " in sweep)";
            out.push_back(std::move(one));
        }
        if (!plan.well_formed()) {
            out.push_back({analysis::severity::error, "R3-granularity",
                           send_model.site, send_model.name,
                           "plan_parts(" + std::to_string(marshalled) +
                               ") produced a malformed plan",
                           {}});
        }
    }
    return out;
}

std::vector<analysis::finding> run_audits() {
    std::vector<analysis::finding> out;
    std::array<std::byte, crypto::safer_k64::key_bytes> key{};
    rng(3).fill(key);
    const crypto::safer_k64 cipher(key);

    const auto add = [&](const app::audit_outcome& o, const char* site,
                         const char* pipeline, const char* path) {
        out.insert(out.end(), o.findings.begin(), o.findings.end());
        if (o.round_trip_ok) return;
        out.push_back({analysis::severity::error, "A0-audit-fixture", site,
                       pipeline,
                       std::string("audit payload failed to round-trip "
                                   "through the ") +
                           path + "; the audit result is not trustworthy",
                       {}});
    };
    const char* recv_site = "src/app/receive_path.h:receive_reply_ilp";
    add(app::audit_fused_send(cipher), "src/app/send_path.h:fill_message_ilp",
        send_graph_name, "fused send path");
    add(app::audit_fused_receive(cipher), recv_site, "app-recv-reply-ilp",
        "fused receive path");
    // Cut the zero-copy wire at an odd offset so the chain cut lands
    // mid-word inside the payload region.
    const std::size_t split = rpc::layout_reply(1024).wire_bytes / 2 + 3;
    add(app::audit_fused_receive(cipher, 1024, split), recv_site,
        "app-recv-zero-copy", "zero-copy fused receive path");
    return out;
}

// Machine-readable form of the composition sweep — the verdict schema CI
// checks (see README "Composition sweep").
void write_compose_json(json::writer& w,
                        const app::compose_sweep_report& rep) {
    w.begin_object();
    w.key("graphs").u64(rep.cases.size());
    w.key("accepted").u64(rep.accepted);
    w.key("rejected").u64(rep.rejected);
    w.key("executed").u64(rep.executed);
    w.key("miscomputations").u64(rep.miscomputations);
    w.key("unexplained_rejections").u64(rep.unexplained_rejections);
    w.key("ok").boolean(rep.ok());
    w.key("cases").begin_array();
    for (const app::compose_case& c : rep.cases) {
        char hash[20];
        std::snprintf(hash, sizeof hash, "%016" PRIx64, c.hash);
        w.begin_object();
        w.key("name").string(c.name);
        w.key("hash").string(hash);
        w.key("legal").boolean(c.legal);
        w.key("rule").string(c.rule);
        w.key("offender").string(c.offender);
        w.key("executed").boolean(c.executed);
        w.key("outputs_match").boolean(c.outputs_match);
        w.key("taps_match").boolean(c.taps_match);
        w.key("mismatch_expected").boolean(c.mismatch_expected);
        w.key("ok").boolean(c.ok);
        w.key("status").string(c.status);
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

void print_compose_text(const app::compose_sweep_report& rep) {
    for (const app::compose_case& c : rep.cases) {
        if (c.ok) continue;
        std::printf("compose: FAIL %-44s %s\n", c.name.c_str(),
                    c.status.c_str());
    }
    std::printf(
        "compose: %zu graphs, %zu accepted, %zu rejected, %zu differential "
        "run(s), %zu miscomputation(s), %zu unexplained rejection(s)\n",
        rep.cases.size(), rep.accepted, rep.rejected, rep.executed,
        rep.miscomputations, rep.unexplained_rejections);
}

}  // namespace

int main(int argc, char** argv) {
    bool json = false;
    bool list = false;
    bool audit = false;
    bool compose = false;
    std::size_t sweep_bytes = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--audit") {
            audit = true;
        } else if (arg == "--compose") {
            compose = true;
        } else if (arg.rfind("--sweep=", 0) == 0) {
            sweep_bytes = static_cast<std::size_t>(
                std::strtoull(arg.c_str() + 8, nullptr, 10));
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: ilp-lint [--json] [--list] [--audit] "
                        "[--compose] [--sweep=BYTES]\n");
            return 0;
        } else {
            std::fprintf(stderr, "ilp-lint: unknown option '%s'\n",
                         arg.c_str());
            return 2;
        }
    }

    std::vector<analysis::pipeline_model> models;
    std::vector<analysis::finding> findings;
    for (const analysis::stage_graph& g : app::pipeline_inventory()) {
        analysis::verdict v = analysis::compose_and_check(g);
        models.push_back(std::move(v.composed));
        findings.insert(findings.end(), v.findings.begin(), v.findings.end());
    }

    if (list) {
        print_inventory(models);
        return 0;
    }

    if (sweep_bytes > 0) {
        std::vector<analysis::finding> swept = sweep_plans(sweep_bytes);
        findings.insert(findings.end(), swept.begin(), swept.end());
    }
    if (audit) {
        std::vector<analysis::finding> audited = run_audits();
        findings.insert(findings.end(), audited.begin(), audited.end());
    }

    app::compose_sweep_report compose_report;
    if (compose) compose_report = app::run_compose_sweep();

    std::size_t errors = 0;
    if (json) {
        json::writer w(json::layout::records);
        if (compose) {
            w.begin_object().key("lint");
            analysis::write_json(w, models, findings);
            w.key("compose");
            write_compose_json(w, compose_report);
            w.end_object();
        } else {
            analysis::write_json(w, models, findings);
        }
        std::fputs(w.text().c_str(), stdout);
        std::fputc('\n', stdout);
        for (const analysis::finding& f : findings) {
            if (f.sev == analysis::severity::error) ++errors;
        }
    } else {
        errors = analysis::print_report(stdout, findings);
        if (compose) print_compose_text(compose_report);
    }
    if (compose && !compose_report.ok()) return 1;
    return errors == 0 ? 0 : 1;
}
