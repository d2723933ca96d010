// Goodput and recovery-cost baseline across loss regimes, ILP vs layered.
//
// Three reply-link regimes with fixed seeds — clean, 1 % Bernoulli loss and
// Gilbert–Elliott bursty loss — each run on both data paths.  Emits the
// versioned BENCH JSON schema (recorded as
// bench/baselines/BENCH_recovery.json) so `ilp-trace --diff` can gate later
// changes to the retry and retransmission machinery.  `--json=PATH`
// additionally writes the report to a file.  Exits 1 when a lossy regime
// drops no packet: its recovery figures would then measure a clean run.
#include <cstdio>
#include <string>
#include <vector>

#include "app/harness.h"
#include "crypto/aead.h"
#include "crypto/safer_simplified.h"
#include "obs/bench_json.h"

int main(int argc, char** argv) {
    using namespace ilp;

    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
        } else {
            std::fprintf(stderr, "usage: bench_recovery [--json=PATH]\n");
            return 2;
        }
    }

    struct regime {
        const char* name;
        bool lossy;
        void (*apply)(engine::flow_config&);
    };
    const std::vector<regime> regimes = {
        {"clean", false, [](engine::flow_config&) {}},
        {"bernoulli_1pct", true,
         [](engine::flow_config& c) {
             c.forward_faults.drop_probability = 0.01;
             c.forward_faults.seed = 13;
         }},
        {"gilbert_elliott_burst", true,
         [](engine::flow_config& c) {
             c.forward_faults.burst.enabled = true;
             c.forward_faults.burst.p_good_to_bad = 0.05;
             c.forward_faults.burst.p_bad_to_good = 0.25;
             c.forward_faults.burst.bad_loss = 0.95;
             c.forward_faults.seed = 11;
         }},
    };

    obs::bench_report report("recovery");
    report.meta("file_kb", "128");
    report.meta("packet_bytes", "1024");
    report.meta("cipher", "safer_simplified");

    // A lossy regime must actually lose packets.
    bool vacuous = false;
    const auto check_fired = [&vacuous](const std::string& key, bool lossy,
                                        const app::transfer_result& result) {
        if (!lossy || result.reply_pipe.packets_dropped != 0) return;
        std::fprintf(stderr, "ERROR: %s dropped no packet\n", key.c_str());
        vacuous = true;
    };

    for (const regime& r : regimes) {
        for (const app::path_mode mode :
             {app::path_mode::ilp, app::path_mode::layered}) {
            engine::flow_config config;
            config.mode = mode;
            config.file_bytes = 128 * 1024;
            config.packet_wire_bytes = 1024;
            r.apply(config);

            const app::transfer_result result =
                app::run_transfer_native<crypto::safer_simplified>(config);

            const std::string key =
                std::string(r.name) + "." +
                (mode == app::path_mode::ilp ? "ilp" : "layered");
            check_fired(key, r.lossy, result);
            const auto count = [&](const char* name, std::uint64_t v,
                                   obs::direction dir) {
                report.metric(key + "." + name, static_cast<double>(v),
                              "count", dir);
            };
            report.metric(key + ".completed",
                          result.completed && result.verified ? 1.0 : 0.0,
                          "bool", obs::direction::higher_is_better);
            report.metric(key + ".goodput_mbps", result.throughput_mbps(),
                          "mbps", obs::direction::higher_is_better);
            report.metric(key + ".elapsed_ms",
                          static_cast<double>(result.elapsed_us) / 1000.0,
                          "ms", obs::direction::lower_is_better);
            count("segments", result.reply_tcp_sender.segments_transmitted,
                  obs::direction::info);
            count("retransmissions", result.reply_tcp_sender.retransmissions,
                  obs::direction::lower_is_better);
            count("packets_dropped", result.reply_pipe.packets_dropped,
                  obs::direction::info);
            count("burst_dropped", result.reply_pipe.packets_burst_dropped,
                  obs::direction::info);
            count("rpc_retries", result.recovery.rpc_retries,
                  obs::direction::lower_is_better);
            count("connection_resets", result.recovery.connection_resets,
                  obs::direction::lower_is_better);
            count("rsts_sent", result.recovery.rsts_sent,
                  obs::direction::info);
            count("refetched_bytes", result.recovery.refetched_bytes,
                  obs::direction::lower_is_better);
            if (const obs::histogram* gap =
                    result.metrics.find_hist("client.reply_gap_us")) {
                report.histogram_metric(key + ".reply_gap_us", *gap, "us");
            }
            if (const obs::histogram* retry =
                    result.metrics.find_hist("client.retry_latency_us")) {
                report.histogram_metric(key + ".retry_latency_us", *retry,
                                        "us");
            }
        }
    }

    // Rekey-under-load regime: the secure (AEAD) framing with an epoch
    // rekey every 16 KB of reply wire, under the same bursty loss as the
    // gilbert_elliott regime.  Gates that key rollover under loss neither
    // stalls the transfer (reply-gap p99) nor produces spurious explicit
    // failures (tag_failures / epoch_skews must stay 0: retransmits land in
    // the two-epoch window).
    for (const app::path_mode mode :
         {app::path_mode::ilp, app::path_mode::layered}) {
        engine::flow_config config;
        config.mode = mode;
        config.file_bytes = 128 * 1024;
        config.packet_wire_bytes = 1024;
        config.secure = true;
        config.rekey_interval_bytes = 16 * 1024;
        config.forward_faults.burst.enabled = true;
        config.forward_faults.burst.p_good_to_bad = 0.05;
        config.forward_faults.burst.p_bad_to_good = 0.25;
        config.forward_faults.burst.bad_loss = 0.95;
        config.forward_faults.seed = 11;

        const app::transfer_result result =
            app::run_transfer_native<crypto::aead_cipher>(config);

        const std::string key =
            std::string("rekey_under_load.") +
            (mode == app::path_mode::ilp ? "ilp" : "layered");
        check_fired(key, true, result);
        report.metric(key + ".completed",
                      result.completed && result.verified ? 1.0 : 0.0, "bool",
                      obs::direction::higher_is_better);
        report.metric(key + ".goodput_mbps", result.throughput_mbps(), "mbps",
                      obs::direction::higher_is_better);
        report.metric(key + ".rekeys",
                      static_cast<double>(result.metrics.counter(
                          "crypto.rekeys")),
                      "count", obs::direction::info);
        report.metric(key + ".epoch_window_hits",
                      static_cast<double>(result.metrics.counter(
                          "crypto.epoch_window_hits")),
                      "count", obs::direction::info);
        report.metric(key + ".tag_failures",
                      static_cast<double>(result.metrics.counter(
                          "crypto.tag_failures")),
                      "count", obs::direction::lower_is_better);
        report.metric(key + ".epoch_skews",
                      static_cast<double>(result.metrics.counter(
                          "crypto.epoch_skews")),
                      "count", obs::direction::lower_is_better);
        if (const obs::histogram* gap =
                result.metrics.find_hist("client.reply_gap_us")) {
            report.histogram_metric(key + ".reply_gap_us", *gap, "us");
        }
    }

    std::fputs(report.render().c_str(), stdout);
    if (!json_path.empty() && !report.write(json_path)) {
        std::fprintf(stderr, "ERROR: cannot write %s\n", json_path.c_str());
        return 1;
    }
    return vacuous ? 1 : 0;
}
