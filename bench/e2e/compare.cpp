// Parent-vs-change comparison of bench_e2e runs (choosing-metrics §8).
//
// Each input is the --json report of one untraced run of one workload; its
// end-to-end metrics are that run's medians.  The i-th parent run and the
// i-th change run of a workload form pair i, so alternate which side runs
// first when collecting them.  Per workload and gated metric the verdict is
//
//   unresolved  either side's IQR exceeds the bound and not every change run
//               beats every parent run
//   improved    at least ten pairs, the change wins >= 90% of them (ties
//               count for neither), and the medians differ by more than
//               the parent's IQR
//   worse       the change median is worse than the parent's by > bound
//   no-worse    otherwise
//
// Bounds and directions come from BENCHMARK.json.
#include "compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>

#include "stats.h"
#include "stats/table.h"
#include "util/json.h"

namespace ilp::bench_e2e {
namespace {

struct gated_metric {
    std::string name;
    bool higher_better = false;
    double bound = 0.0;
};

std::optional<std::vector<gated_metric>> load_bounds(const std::string& path) {
    const std::optional<json::value> doc = json::parse_file(path);
    if (!doc.has_value()) return std::nullopt;
    const json::value* list = doc->find("end_to_end");
    if (list == nullptr || list->as_array() == nullptr) return std::nullopt;
    std::vector<gated_metric> out;
    for (const json::value& m : *list->as_array()) {
        out.push_back({m.string_at("name"), m.string_at("better") == "higher",
                       m.number_at("bound")});
    }
    return out;
}

// workload -> metric -> one value per run, in argument order.
using runs = std::map<std::string, std::map<std::string, std::vector<double>>>;

bool load_runs(const std::vector<std::string>& paths, runs& out) {
    for (const std::string& path : paths) {
        const std::optional<json::value> doc = json::parse_file(path);
        const json::value* meta = doc ? doc->find("meta") : nullptr;
        const json::value* metrics = doc ? doc->find("metrics") : nullptr;
        if (meta == nullptr || metrics == nullptr ||
            metrics->as_array() == nullptr) {
            std::fprintf(stderr, "ERROR: %s is not a bench_e2e report\n",
                         path.c_str());
            return false;
        }
        auto& by_metric = out[meta->string_at("workload")];
        for (const json::value& m : *metrics->as_array()) {
            by_metric[m.string_at("name")].push_back(m.number_at("value"));
        }
    }
    return true;
}

std::string fmt(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4g", v);
    return buf;
}

}  // namespace

int run_compare(const std::vector<std::string>& args) {
    std::string bounds_path = "BENCHMARK.json";
    std::vector<std::string> parent_paths;
    std::vector<std::string> change_paths;
    bool change_side = false;
    for (const std::string& arg : args) {
        if (arg.rfind("--bounds=", 0) == 0) {
            bounds_path = arg.substr(9);
        } else if (arg == "--") {
            change_side = true;
        } else {
            (change_side ? change_paths : parent_paths).push_back(arg);
        }
    }
    const std::optional<std::vector<gated_metric>> gated =
        load_bounds(bounds_path);
    if (!gated.has_value() || parent_paths.empty() || change_paths.empty()) {
        std::fprintf(stderr,
                     "usage: bench_e2e compare [--bounds=BENCHMARK.json] "
                     "PARENT.json... -- CHANGE.json...\n");
        return 2;
    }
    runs parent;
    runs change;
    if (!load_runs(parent_paths, parent) || !load_runs(change_paths, change)) {
        return 2;
    }

    int worse = 0;
    for (const gated_metric& g : *gated) {
        stats::table t({"workload", "parent median [q1, q3]",
                        "change median [q1, q3]", "delta %", "wins", "verdict"});
        bool any = false;
        for (const auto& [workload, by_metric] : parent) {
            const auto p_it = by_metric.find(g.name);
            const auto c_wl = change.find(workload);
            if (p_it == by_metric.end() || c_wl == change.end()) continue;
            const auto c_it = c_wl->second.find(g.name);
            if (c_it == c_wl->second.end()) continue;
            const std::vector<double>& pv = p_it->second;
            const std::vector<double>& cv = c_it->second;
            const summary ps = summarize(pv);
            const summary cs = summarize(cv);
            const auto better = [&](double a, double b) {
                return g.higher_better ? a > b : a < b;
            };
            const std::size_t pairs = std::min(pv.size(), cv.size());
            std::size_t wins = 0;
            for (std::size_t i = 0; i < pairs; ++i) {
                if (better(cv[i], pv[i])) ++wins;
            }
            const bool all_better =
                g.higher_better
                    ? *std::min_element(cv.begin(), cv.end()) >
                          *std::max_element(pv.begin(), pv.end())
                    : *std::max_element(cv.begin(), cv.end()) <
                          *std::min_element(pv.begin(), pv.end());
            // Signed change in the metric's good direction.
            const double gain = ps.median == 0.0
                                    ? 0.0
                                    : (g.higher_better ? cs.median - ps.median
                                                       : ps.median - cs.median) /
                                          ps.median;
            std::string verdict;
            if ((ps.spread() > g.bound || cs.spread() > g.bound) &&
                !all_better) {
                verdict = "unresolved";
            } else if (pairs >= 10 && wins * 10 >= pairs * 9 &&
                       std::abs(cs.median - ps.median) > ps.q3 - ps.q1) {
                verdict = "improved";
            } else if (-gain > g.bound) {
                verdict = "worse";
                ++worse;
            } else {
                verdict = "no-worse";
            }
            t.row().cell(workload)
                .cell(fmt(ps.median) + " [" + fmt(ps.q1) + ", " + fmt(ps.q3) +
                      "] n=" + std::to_string(ps.n))
                .cell(fmt(cs.median) + " [" + fmt(cs.q1) + ", " + fmt(cs.q3) +
                      "] n=" + std::to_string(cs.n))
                .cell(gain * 100.0, 2)
                .cell(std::to_string(wins) + "/" + std::to_string(pairs))
                .cell(verdict);
            any = true;
        }
        if (!any) continue;
        std::printf("%s (%s is better, bound %.0f%%)\n", g.name.c_str(),
                    g.higher_better ? "higher" : "lower", g.bound * 100.0);
        t.print();
    }

    // ILP speedup per side, when both bulk workloads were run.
    for (const auto& [side, data] : {std::pair{"parent", &parent},
                                     std::pair{"change", &change}}) {
        const auto ilp = data->find("bulk");
        const auto layered = data->find("bulk_layered");
        if (ilp == data->end() || layered == data->end()) continue;
        const auto a = ilp->second.find("goodput_MBps");
        const auto b = layered->second.find("goodput_MBps");
        if (a == ilp->second.end() || b == layered->second.end()) continue;
        const double base = median_of(b->second);
        std::printf("%s ilp_speedup: bulk goodput / bulk_layered goodput = "
                    "%.3f (base %.2f MB/s)\n",
                    side, median_of(a->second) / base, base);
    }
    return worse == 0 ? 0 : 1;
}

}  // namespace ilp::bench_e2e
