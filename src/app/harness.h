// Experiment harness: one complete file transfer between a client and a
// server over loop-back links, driven on the virtual clock as a one-flow
// engine shard (engine/shard.h) — the same wiring every fleet flow gets.
//
// This is the unit every benchmark runs: the paper's measurements transmit
// "a 15 kbyte file with varying message sizes ... several times from a
// server (sender) to a client (receiver) on the same machine using UDP in
// loop back mode" (§4.1).
#pragma once

#include <string>

#include "app/file_transfer.h"
#include "engine/fleet.h"
#include "engine/shard.h"
#include "memsim/memory_system.h"
#include "obs/registry.h"
#include "obs/tracer.h"

namespace ilp::app {

// End-to-end recovery accounting for one transfer, aggregated across both
// endpoints and both connections.  This is a *view* over the metrics
// registry (see recovery_from): the registry is the source of truth, the
// struct keeps the established field spellings for tests and benches.
struct recovery_report {
    std::uint64_t rpc_retries = 0;         // request re-issues by the client
    std::uint64_t connection_resets = 0;   // endpoint reset() calls, all four
    std::uint64_t rsts_sent = 0;           // TCP give-up notifications
    std::uint64_t rsts_received = 0;
    std::uint64_t requests_deduplicated = 0;
    std::uint64_t jobs_abandoned = 0;      // server jobs dropped on reset
    std::uint64_t refetched_bytes = 0;     // reply payload served > once
    bool gave_up = false;  // explicit failure: retry budget exhausted
};

inline recovery_report recovery_from(const obs::registry& m) {
    recovery_report r;
    r.rpc_retries = m.counter("recovery.rpc_retries");
    r.connection_resets = m.counter("recovery.connection_resets");
    r.rsts_sent = m.counter("recovery.rsts_sent");
    r.rsts_received = m.counter("recovery.rsts_received");
    r.requests_deduplicated = m.counter("recovery.requests_deduplicated");
    r.jobs_abandoned = m.counter("recovery.jobs_abandoned");
    r.refetched_bytes = m.counter("recovery.refetched_bytes");
    r.gave_up = m.counter("recovery.gave_up") != 0;
    return r;
}

struct transfer_result {
    bool completed = false;
    bool verified = false;  // received copies byte-identical to the file
    recovery_report recovery;
    // Every quantity the harness measures, under dotted names (recovery.*,
    // server.send.*, client.receive.*, client.* histograms, transfer.*).
    obs::registry metrics;
    sim_time elapsed_us = 0;
    std::uint64_t payload_bytes_delivered = 0;
    std::uint64_t reply_messages = 0;
    path_counters server_send;    // the paper's "send" side
    path_counters client_receive;  // the paper's "receive" side
    path_counters server_request;  // request direction, server receive
    path_counters client_request;  // request direction, client send
    tcp::sender_stats reply_tcp_sender;
    tcp::receiver_stats reply_tcp_receiver;
    net::pipe_stats reply_pipe;
    net::pipe_stats reply_ack_pipe;

    // Application-level throughput in Mbps (payload bits over virtual time),
    // the quantity Figures 8/9/12 report.
    double throughput_mbps() const {
        if (elapsed_us == 0) return 0.0;
        return static_cast<double>(payload_bytes_delivered) * 8.0 /
               static_cast<double>(elapsed_us);
    }
};

// Runs one transfer with the given memory policies (one per side — e.g. two
// sim_memory instances over distinct memory systems, or two direct_memory).
//
// The transfer is an ordinary one-flow engine shard (see engine/shard.h),
// wired exactly as every fleet flow is: allocated ports, flow 0's tag (its
// fault coins come from that tag's stream), port demuxes and
// scheduler-metered sends on the shard's tick cadence.  So its flow
// outcome equals engine::run_fleet's for the same flow.
template <memsim::memory_policy Mem, crypto::block_cipher Cipher>
transfer_result run_transfer(const engine::flow_config& config,
                             const Mem& client_mem, const Mem& server_mem,
                             const Cipher& client_cipher,
                             const Cipher& server_cipher) {
    // Link latency and poll cadence are the shard_options defaults.
    engine::shard_options opts;
    // The kernel queue bound belongs to the pipe; every other part of a
    // fault plan is the flow's own.
    opts.request_forward_faults.max_queue_packets =
        config.request_forward_faults.max_queue_packets;
    opts.request_reverse_faults.max_queue_packets =
        config.request_reverse_faults.max_queue_packets;
    opts.reply_forward_faults.max_queue_packets =
        config.forward_faults.max_queue_packets;
    opts.reply_reverse_faults.max_queue_packets =
        config.reverse_faults.max_queue_packets;
    engine::shard<Mem, Cipher> shard(0, opts, client_mem, server_mem);

    engine::flow_config fc = config;
    if (fc.secure && fc.flow_secret == 0) {
        fc.flow_secret = derive_seed(engine::default_key_seed, 0x5ec00000ull);
    }

    transfer_result result;
    if (!shard.open_flow(0, fc, client_cipher, server_cipher)) return result;
    shard.run();

    file_client<Mem, Cipher>& client = shard.client(0);
    file_server<Mem, Cipher>& server = shard.server(0);
    net::duplex_link& reply_link = shard.reply_link();
    const engine::flow_outcome& outcome = shard.outcome(0);
    result.completed = outcome.completed;
    result.elapsed_us = outcome.elapsed_us;

    // Aggregation across endpoints and connections is repeated add() into
    // one registry; the recovery_report below is just a view over it.
    obs::registry& m = result.metrics;
    const client_recovery_stats& cr = client.recovery();
    m.add("recovery.rpc_retries", cr.retries);
    if (cr.gave_up) m.add("recovery.gave_up");
    m.add("recovery.connection_resets", cr.connection_resets);
    m.add("recovery.connection_resets", server.reply_tcp_stats().resets);
    m.add("recovery.connection_resets", server.request_tcp_stats().resets);
    m.add("recovery.rsts_sent", server.reply_tcp_stats().rsts_sent);
    m.add("recovery.rsts_sent", client.request_tcp_stats().rsts_sent);
    m.add("recovery.rsts_received", client.reply_tcp_stats().rsts_received);
    m.add("recovery.rsts_received", server.request_tcp_stats().rsts_received);
    m.add("recovery.requests_deduplicated", server.requests_deduplicated());
    m.add("recovery.jobs_abandoned", server.jobs_abandoned());
    const std::uint64_t served = server.send_counters().payload_bytes;
    m.add("recovery.refetched_bytes", cr.refetched_bytes);
    if (served > client.bytes_received()) {
        m.add("recovery.refetched_bytes", served - client.bytes_received());
    }
    m.add("crypto.rekeys", server.secure_stats().rekeys);
    m.add("crypto.epoch_adoptions", server.secure_stats().epoch_adoptions);
    m.add("crypto.request_tag_failures", server.secure_stats().tag_failures);
    m.add("crypto.epoch_window_hits", client.secure_stats().window_hits);
    obs::publish(m, "server.send", server.send_counters());
    obs::publish(m, "client.receive", client.receive_counters());
    m.merge(client.metrics());
    m.add("transfer.payload_bytes", client.bytes_received());
    m.add("transfer.elapsed_us", result.elapsed_us);
    if (result.completed) m.add("transfer.completed");
    result.recovery = recovery_from(m);
    result.payload_bytes_delivered = client.bytes_received();
    result.server_send = server.send_counters();
    result.client_receive = client.receive_counters();
    result.server_request = server.request_counters();
    result.client_request = client.request_send_counters();
    result.reply_tcp_sender = server.reply_tcp_stats();
    result.reply_tcp_receiver = client.reply_tcp_stats();
    result.reply_pipe = reply_link.forward().stats();
    result.reply_ack_pipe = reply_link.reverse().stats();
    result.reply_messages = result.client_receive.messages;

    // The shard already verified each received copy against the served file.
    result.verified = outcome.verified;
    return result;
}

// Convenience for native runs: both sides use raw memory.
template <crypto::block_cipher Cipher>
transfer_result run_transfer_native(const engine::flow_config& config) {
    const Cipher cipher =
        engine::make_static_cipher<Cipher>(engine::default_key_seed);
    return run_transfer(config, memsim::direct_memory{},
                        memsim::direct_memory{}, cipher, cipher);
}

// Convenience for simulator runs: client and server each stream their
// accesses into their own memory system (send side vs. receive side, as the
// paper's §4.2 analysis separates them).
template <crypto::block_cipher Cipher>
transfer_result run_transfer_simulated(const engine::flow_config& config,
                                       memsim::memory_system& client_sys,
                                       memsim::memory_system& server_sys) {
    const Cipher cipher =
        engine::make_static_cipher<Cipher>(engine::default_key_seed);
    return run_transfer(config, memsim::sim_memory(client_sys),
                        memsim::sim_memory(server_sys), cipher, cipher);
}

}  // namespace ilp::app
