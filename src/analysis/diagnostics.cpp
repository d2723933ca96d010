#include "analysis/diagnostics.h"

namespace ilp::analysis {

const char* kind_name(pipeline_kind k) {
    switch (k) {
        case pipeline_kind::fused: return "fused";
        case pipeline_kind::word_chain: return "word_chain";
        case pipeline_kind::layered: return "layered";
    }
    return "unknown";
}

std::string render_text(const finding& f) {
    std::string out = f.site;
    out += ": ";
    out += severity_name(f.sev);
    out += ": [";
    out += f.rule;
    out += "] ";
    out += f.message;
    if (!f.pipeline.empty()) {
        out += "  (pipeline: ";
        out += f.pipeline;
        out += ")";
    }
    if (!f.stage.empty()) {
        out += "  (stage: ";
        out += f.stage;
        out += ")";
    }
    return out;
}

std::size_t print_report(std::FILE* out,
                         const std::vector<finding>& findings) {
    std::size_t errors = 0;
    std::size_t warnings = 0;
    for (const finding& f : findings) {
        if (f.sev == severity::error) ++errors;
        if (f.sev == severity::warning) ++warnings;
        std::fprintf(out, "%s\n", render_text(f).c_str());
    }
    std::fprintf(out, "%zu finding(s): %zu error(s), %zu warning(s)\n",
                 findings.size(), errors, warnings);
    return errors;
}

void write_json(json::writer& w, const std::vector<pipeline_model>& models,
                const std::vector<finding>& findings) {
    std::size_t errors = 0;
    std::size_t warnings = 0;
    w.begin_object();
    w.key("pipelines").begin_array();
    for (const pipeline_model& m : models) {
        w.begin_object();
        w.key("name").string(m.name);
        w.key("site").string(m.site);
        w.key("kind").string(kind_name(m.kind));
        w.key("stages").begin_array();
        for (const footprint& fp : m.stages) w.string(fp.name);
        w.end_array();
        w.key("exchange_unit_bytes").u64(m.exchange_unit_bytes);
        w.end_object();
    }
    w.end_array();
    w.key("findings").begin_array();
    for (const finding& f : findings) {
        if (f.sev == severity::error) ++errors;
        if (f.sev == severity::warning) ++warnings;
        w.begin_object();
        w.key("severity").string(severity_name(f.sev));
        w.key("rule").string(f.rule);
        w.key("site").string(f.site);
        w.key("pipeline").string(f.pipeline);
        w.key("stage").string(f.stage);
        w.key("message").string(f.message);
        w.end_object();
    }
    w.end_array();
    w.key("errors").u64(errors);
    w.key("warnings").u64(warnings);
    w.end_object();
}

std::string render_json(const std::vector<pipeline_model>& models,
                        const std::vector<finding>& findings) {
    json::writer w(json::layout::records);
    write_json(w, models, findings);
    return w.take();
}

}  // namespace ilp::analysis
