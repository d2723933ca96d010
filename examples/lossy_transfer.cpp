// Failure recovery walkthrough: one transfer across a hostile link, showing
// the fault plan, TCP give-up/reset signalling and the RPC layer's
// resumable retry in action.
//
// Usage: lossy_transfer [scenario]
//
// Scenarios:
//   burst     Gilbert–Elliott bursty loss on the reply link (default)
//   outage    the reply link goes dark mid-transfer, then comes back
//   blackout  the reply link never comes back — the client gives up
//
// Everything runs in-process on the virtual clock, so results are exact
// and reproducible: rerunning a scenario replays the same losses.
#include <cstdio>
#include <cstring>

#include "app/harness.h"
#include "crypto/safer_simplified.h"
#include "stats/table.h"

int main(int argc, char** argv) {
    using namespace ilp;

    const char* scenario = argc > 1 ? argv[1] : "burst";

    engine::flow_config config;
    config.file_bytes = 128 * 1024;
    config.packet_wire_bytes = 1024;
    config.retry.max_attempts = 5;
    config.retry.response_timeout_us = 2'000'000;

    if (std::strcmp(scenario, "burst") == 0) {
        // Correlated loss: the link alternates between a good state and a
        // bad state that eats almost every packet for a few packets in a
        // row — TCP's go-back-N absorbs this without RPC involvement.
        config.forward_faults.burst.enabled = true;
        config.forward_faults.burst.p_good_to_bad = 0.05;
        config.forward_faults.burst.p_bad_to_good = 0.25;
        config.forward_faults.burst.bad_loss = 0.95;
    } else if (std::strcmp(scenario, "outage") == 0) {
        // The reply link dies 1 ms in and stays dead past TCP's give-up
        // point, so the server's sender RSTs.  The client times out,
        // resets both connections and re-requests the file *from the
        // byte offset it already holds*.
        config.forward_faults.outages.push_back({1'000, 3'000'000});
    } else if (std::strcmp(scenario, "blackout") == 0) {
        // The link never recovers: the retry budget runs out and the
        // transfer terminates with an explicit failure — it never hangs.
        config.forward_faults.outages.push_back({0, 1'000'000'000'000ull});
    } else {
        std::fprintf(stderr, "unknown scenario '%s'\n", scenario);
        return 2;
    }

    std::printf("scenario: %s — transferring %zu KB over the faulty link\n\n",
                scenario, config.file_bytes / 1024);

    const app::transfer_result result =
        app::run_transfer_native<crypto::safer_simplified>(config);

    if (result.completed) {
        std::printf("transfer complete in %.1f ms of virtual time, %s\n\n",
                    static_cast<double>(result.elapsed_us) / 1000.0,
                    result.verified ? "verified byte-identical"
                                    : "VERIFICATION FAILED");
    } else {
        std::printf("transfer FAILED explicitly after %.1f ms: %s\n\n",
                    static_cast<double>(result.elapsed_us) / 1000.0,
                    result.recovery.gave_up ? "retry budget exhausted"
                                            : "deadline reached");
    }

    const app::recovery_report& r = result.recovery;
    stats::table table({"recovery metric", "value"});
    table.row().cell("RPC retries").cell(r.rpc_retries);
    table.row().cell("connection resets").cell(r.connection_resets);
    table.row().cell("TCP RSTs sent").cell(r.rsts_sent);
    table.row().cell("TCP RSTs received").cell(r.rsts_received);
    table.row().cell("requests deduplicated").cell(r.requests_deduplicated);
    table.row().cell("server jobs abandoned").cell(r.jobs_abandoned);
    table.row().cell("bytes re-served (resume overlap)").cell(
        r.refetched_bytes);
    table.row().cell("link drops: burst").cell(
        result.reply_pipe.packets_burst_dropped);
    table.row().cell("link drops: outage").cell(
        result.reply_pipe.packets_outage_dropped);
    table.row().cell("TCP retransmissions").cell(
        result.reply_tcp_sender.retransmissions);
    table.print();

    return result.completed && result.verified ? 0 : 1;
}
