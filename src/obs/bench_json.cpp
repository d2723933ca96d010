#include "obs/bench_json.h"

#include "util/json.h"

namespace ilp::obs {

namespace {

const char* direction_name(direction d) {
    switch (d) {
        case direction::higher_is_better: return "higher";
        case direction::lower_is_better: return "lower";
        case direction::info: break;
    }
    return "info";
}

}  // namespace

bench_report::bench_report(std::string bench_name)
    : bench_(std::move(bench_name)) {}

void bench_report::meta(std::string key, std::string value) {
    meta_.emplace_back(std::move(key), std::move(value));
}

void bench_report::metric(std::string name, double value, std::string unit,
                          direction dir) {
    metrics_.push_back({std::move(name), value, std::move(unit), dir});
}

void bench_report::histogram_metric(std::string name, const histogram& h,
                                    std::string unit) {
    metric(name + ".p99", h.percentile(99.0), unit,
           direction::lower_is_better);
    histograms_.push_back({std::move(name), std::move(unit), h});
}

std::string bench_report::render() const {
    json::writer w(json::layout::records);
    w.begin_object();
    w.key("schema_version").u64(bench_schema_version);
    w.key("bench").string(bench_);
    w.key("meta").begin_object();
    for (const auto& [key, value] : meta_) w.key(key).string(value);
    w.end_object();
    w.key("metrics").begin_array();
    for (const metric_row& m : metrics_) {
        w.begin_object();
        w.key("name").string(m.name);
        w.key("value").number(m.value);
        w.key("unit").string(m.unit);
        w.key("better").string(direction_name(m.dir));
        w.end_object();
    }
    w.end_array();
    w.key("histograms").begin_array();
    for (const hist_row& h : histograms_) {
        w.begin_object();
        w.key("name").string(h.name);
        w.key("unit").string(h.unit);
        w.key("count").u64(h.hist.count());
        w.key("min").u64(h.hist.min());
        w.key("max").u64(h.hist.max());
        w.key("mean").number(h.hist.mean());
        w.key("p50").number(h.hist.percentile(50.0));
        w.key("p90").number(h.hist.percentile(90.0));
        w.key("p99").number(h.hist.percentile(99.0));
        w.key("buckets").begin_array();
        for (std::size_t b = 0; b < histogram::bucket_count; ++b) {
            if (h.hist.buckets()[b] == 0) continue;
            w.begin_array();
            w.u64(histogram::bucket_lo(b));
            w.u64(histogram::bucket_hi(b));
            w.u64(h.hist.buckets()[b]);
            w.end_array();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.take();
}

bool bench_report::write(const std::string& path) const {
    return json::write_file(path, render());
}

}  // namespace ilp::obs
