// One worker shard of the multi-flow engine.
//
// A shard owns everything its flows touch — a virtual clock, one request
// and one reply duplex link, four port demultiplexers (one per pipe
// direction), a port allocator, a file store and the flow table — so shards
// share *nothing* and can run serially on one thread or each on its own OS
// thread with identical results: flows are deterministic on their shard's
// virtual clock.
//
// Scheduler round (tick): visit every live flow in flow-id order, let the
// service policy (engine/scheduler.h) meter the server's segment
// transmissions, poll the client's retry machinery, advance the clock one
// poll step, then reap flows that completed, failed explicitly, or hit
// their per-flow deadline.  Reaped flows quiesce their TCP timers (armed
// timers capture endpoint pointers), unbind their demux routes and return
// their ports to the allocator; their endpoints and outcome stay readable
// until the shard dies.
//
// There is one wiring for every flow: app::run_transfer is an ordinary
// one-flow shard.  Each pipe delivers to its demux twice over — staged
// spans for copying connections and ACKs, in-place loans for zero-copy
// connections (net/demux.h) — so a zero_copy flow gets the loaned receive
// path on a shared link as well as the zero-copy send.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/gate.h"
#include "app/compose_models.h"
#include "app/file_transfer.h"
#include "engine/flow.h"
#include "engine/scheduler.h"
#include "net/demux.h"
#include "obs/tracer.h"
#include "pipeline/stage_runner.h"
#include "rpc/messages.h"
#include "util/contracts.h"

namespace ilp::engine {

struct shard_options {
    sim_time link_latency_us = 100;
    sim_time poll_step_us = 200;
    // Pipe-level fault plans (request forward/reverse, reply
    // forward/reverse).  These normally carry only the shared kernel-queue
    // bound: every flow sends on its own tag, whose plan is the flow's
    // (flow_config::*_faults).
    net::fault_config request_forward_faults{};
    net::fault_config request_reverse_faults{};
    net::fault_config reply_forward_faults{};
    net::fault_config reply_reverse_faults{};
    // Fair-share bound per flow inside the shared kernel queue (0 = off).
    std::size_t per_flow_queue_cap = 0;
    sched_policy policy = sched_policy::round_robin;
    std::size_t drr_quantum_bytes = 4096;
    // Local-port range the allocator hands flows (4 ports per flow).
    std::uint16_t first_port = 10'000;
    std::uint16_t last_port = 59'999;
    // Run the pipelined dataplane's fused stage on a dedicated worker thread
    // per shard.  Only honoured under direct memory (no memsim attribution
    // source): simulated-memory runs demote to inline stepping, which
    // produces identical output with single-threaded counter updates.
    bool pipeline_workers = false;
    // Deterministic per-flow trace sampling (obs/sampler.h): installed on
    // the shard's tracer and stamped into every outcome.  The default
    // samples every flow — the pre-sampling behaviour.
    obs::flow_sampler trace_sampler{};
};

// One pipelined-dataplane stage's server memory traffic: how often the
// stage ran, and the simulated memory system's counters across those runs
// (zero under direct_memory).  Sampled from the memory system itself, the
// same counters a tracer span reads, so it holds with ILP_OBS=OFF too.
struct pipeline_stage_cost {
    std::uint64_t calls = 0;
    obs::mem_counters mem;
};

struct pipeline_stage_costs {
    pipeline_stage_cost segmentize;   // stage A
    pipeline_stage_cost fused_loop;   // stage B
    pipeline_stage_cost bookkeeping;  // stage C
};

template <memsim::memory_policy Mem, crypto::block_cipher Cipher>
class shard {
public:
    shard(std::uint32_t index, const shard_options& opts,
          const Mem& client_mem, const Mem& server_mem)
        : index_(index),
          opts_(opts),
          client_mem_(client_mem),
          server_mem_(server_mem),
          scheduler_(opts.policy, opts.drr_quantum_bytes),
          request_link_(clock_, opts.link_latency_us,
                        opts.request_forward_faults,
                        opts.request_reverse_faults),
          reply_link_(clock_, opts.link_latency_us, opts.reply_forward_faults,
                      opts.reply_reverse_faults),
          ports_(opts.first_port, opts.last_port) {
        // An installed tracer timestamps this shard's spans on this shard's
        // clock (worker threads carry no tracer; the macros no-op there)
        // and applies this shard's flow sampler to its event ring.
        if (obs::tracer* t = obs::tracer::current()) {
            t->set_clock(&clock_);
            t->set_sampler(opts_.trace_sampler);
        }
        const std::pair<net::datagram_pipe*, net::port_demux*> pipes[] = {
            {&request_link_.forward(), &request_fwd_demux_},
            {&request_link_.reverse(), &request_rev_demux_},
            {&reply_link_.forward(), &reply_fwd_demux_},
            {&reply_link_.reverse(), &reply_rev_demux_}};
        for (const auto& [pipe, demux] : pipes) {
            pipe->set_receiver(demux->receiver());
            pipe->set_segment_receiver(demux->segment_receiver());
            pipe->set_per_tag_queue_cap(opts_.per_flow_queue_cap);
        }
    }

    shard(const shard&) = delete;
    shard& operator=(const shard&) = delete;

    // Opens flow `id`: allocates its four local ports, binds its demux
    // routes, installs its per-flow fault plans, constructs the endpoint
    // pair and issues the file request.  Returns false — with an explicit
    // outcome recorded — when the port range is exhausted or the request
    // cannot be issued.
    bool open_flow(std::uint32_t id, const flow_config& cfg,
                   const Cipher& client_cipher, const Cipher& server_cipher) {
        ILP_EXPECT(table_.find(id) == table_.end());
        auto holder =
            std::make_unique<flow_entry>(client_cipher, server_cipher);
        flow_entry& e = *holder;
        e.id = id;
        e.tag = id + 1;
        e.cfg = cfg;
        e.outcome.flow_id = id;
        e.outcome.shard = index_;
        e.outcome.trace_sampled = opts_.trace_sampler.sampled(id);
        // (push_back, not `= "f"`: dodges a GCC 12 -Wrestrict false
        // positive in the string assignment fast path.)
        e.file.push_back('f');
        e.file += std::to_string(id);
        store_.add_random(e.file, cfg.file_bytes, cfg.file_seed);

        tcp::connection_config request_cfg;
        tcp::connection_config reply_cfg;
        reply_cfg.local_addr = 0x0a000002;  // server
        reply_cfg.remote_addr = 0x0a000001;
        request_cfg.zero_copy = reply_cfg.zero_copy = cfg.zero_copy;
        request_cfg.net_tag = reply_cfg.net_tag = e.tag;
        if (!allocate_ports(e)) {
            e.finished = true;
            e.outcome.ports_exhausted = true;
            e.outcome.black_box.record(clock_.now(),
                                       obs::flight_event::ports_exhausted);
            table_.emplace(id, std::move(holder));
            return false;
        }
        request_cfg.local_port = e.ports[port_client_request];
        request_cfg.remote_port = e.ports[port_server_request];
        reply_cfg.local_port = e.ports[port_server_reply];
        reply_cfg.remote_port = e.ports[port_client_reply];
        // Per-flow fault plans on the flow's own tag stream.
        request_link_.forward().configure_tag(e.tag,
                                              cfg.request_forward_faults);
        request_link_.reverse().configure_tag(e.tag,
                                              cfg.request_reverse_faults);
        reply_link_.forward().configure_tag(e.tag, cfg.forward_faults);
        reply_link_.reverse().configure_tag(e.tag, cfg.reverse_faults);

        // Both endpoints share the flow's security parameters — the
        // deterministic KDF stands in for the key exchange.  The client-side
        // secret override is the key-mismatch test knob.
        app::secure_params server_sec = secure_params_for(cfg);
        app::secure_params client_sec = server_sec;
        if (cfg.client_secret_override != 0) {
            client_sec.flow_secret = cfg.client_secret_override;
        }

        // Composition-legality gate: the flow's runtime-assembled stage
        // graphs (send and receive side) must be verified legal before any
        // fused loop runs.  A verified-illegal graph — e.g. a crc32 tap on
        // the B,C,A send schedule — demotes the flow to the layered path
        // deterministically; the demotion is counted, never silent.  The
        // verdict depends only on (cipher, framing, tap), never on the key
        // epoch, so this one check at setup covers every rekey.
        app::path_mode mode = cfg.mode;
        if (mode == app::path_mode::ilp) {
            const analysis::verdict& tx = gate_.check(
                app::flow_send_graph<Cipher>(server_sec, cfg.tap, 0));
            const analysis::verdict& rx = gate_.check(
                app::flow_receive_graph<Cipher>(client_sec, cfg.tap, 0));
            if (!tx.legal || !rx.legal) {
                mode = app::path_mode::layered;
                gate_.count_fallback();
                e.cfg.mode = mode;
                e.outcome.composed_fallback = true;
                e.outcome.black_box.record(
                    clock_.now(), obs::flight_event::composed_fallback);
            }
        }

        e.server = std::make_unique<app::file_server<Mem, Cipher>>(
            server_mem_, e.server_cipher, clock_, request_link_.reverse(),
            reply_link_.forward(), tcp::mirrored(request_cfg), reply_cfg, mode,
            store_, server_sec);
        e.client = std::make_unique<app::file_client<Mem, Cipher>>(
            client_mem_, e.client_cipher, clock_, request_link_.forward(),
            reply_link_.reverse(), request_cfg, tcp::mirrored(reply_cfg), mode,
            cfg.retry, client_sec);
        bind_routes(e);

        rpc::file_request request;
        request.request_id = 7 + id;
        request.filename = e.file;
        request.copy_count = cfg.copies;
        // Secure framing spends 8 of the per-packet wire budget on the
        // trailer; the payload shrinks so segments still fit the budget.
        const bool secure_framing =
            cfg.secure && cfg.secure_wire_version == rpc::wire_version_secure;
        request.max_reply_payload = static_cast<std::uint32_t>(
            secure_framing
                ? rpc::max_payload_for_secure_wire(cfg.packet_wire_bytes)
                : rpc::max_payload_for_wire(cfg.packet_wire_bytes));
        e.started_at = clock_.now();
        bool issued = false;
        if (request.max_reply_payload != 0) {
            obs::scoped_flow flow_scope(id);
            issued = e.client->request_file(request);
        }
        if (!issued) {
            e.finished = true;
            e.outcome.request_rejected = true;
            e.outcome.black_box.record(clock_.now(),
                                       obs::flight_event::request_rejected);
            teardown(e);
        } else {
            e.outcome.black_box.record(e.started_at,
                                       obs::flight_event::connect, id);
            ++active_;
            active_insert(e);
            // The runner outlives every flow on the shard; threaded only
            // under direct memory (no attribution source to race on).
            if (e.cfg.pipeline_depth > 0 && mode == app::path_mode::ilp) {
                ensure_pipeline(e.cfg.pipeline_depth);
            }
        }
        table_.emplace(id, std::move(holder));
        return issued;
    }

    // Finishes a flow early (lifecycle teardown).  The outcome records
    // whatever state the flow reached; ports and routes are recycled.
    void close_flow(std::uint32_t id) {
        const auto it = table_.find(id);
        ILP_EXPECT(it != table_.end());
        if (!it->second->finished) finish(*it->second, false);
    }

    // Runs every open flow to its terminal outcome.
    void run() {
        if (obs::tracer* t = obs::tracer::current()) {
            t->set_clock(&clock_);
            t->set_sampler(opts_.trace_sampler);
        }
        while (active_ > 0) tick();
    }

    // One scheduler round; exposed so tests can single-step.  Both sweeps
    // walk the intrusive active list (live flows in id order) rather than
    // the whole table, so finished flows cost nothing per round.
    void tick() {
        for (flow_entry* e = active_head_; e != nullptr; e = e->active_next) {
            service(*e);
        }
        clock_.advance(opts_.poll_step_us);
        for (flow_entry* e = active_head_; e != nullptr;) {
            flow_entry* next = e->active_next;  // finish() unlinks e
            const bool deadline =
                clock_.now() - e->started_at >= e->cfg.deadline_us;
            if (e->client->done() || e->client->failed() || deadline) {
                finish(*e, deadline);
            }
            e = next;
        }
    }

    // --- introspection ---------------------------------------------------
    std::uint32_t index() const noexcept { return index_; }
    virtual_clock& clock() noexcept { return clock_; }
    net::duplex_link& request_link() noexcept { return request_link_; }
    net::duplex_link& reply_link() noexcept { return reply_link_; }
    const app::file_store& store() const noexcept { return store_; }
    std::size_t flows() const noexcept { return table_.size(); }
    std::size_t active_flows() const noexcept { return active_; }
    const net::port_allocator& ports() const noexcept { return ports_; }

    app::file_client<Mem, Cipher>& client(std::uint32_t id) {
        return *entry(id).client;
    }
    app::file_server<Mem, Cipher>& server(std::uint32_t id) {
        return *entry(id).server;
    }
    const flow_outcome& outcome(std::uint32_t id) const {
        const auto it = table_.find(id);
        ILP_EXPECT(it != table_.end());
        return it->second->outcome;
    }
    std::uint64_t serviced_bytes(std::uint32_t id) const {
        const auto it = table_.find(id);
        ILP_EXPECT(it != table_.end());
        return it->second->serviced_bytes;
    }
    std::vector<flow_outcome> outcomes() const {
        std::vector<flow_outcome> out;
        out.reserve(table_.size());
        for (const auto& [id, e] : table_) out.push_back(e->outcome);
        return out;
    }
    const Mem& client_mem() const noexcept { return client_mem_; }
    const Mem& server_mem() const noexcept { return server_mem_; }
    const analysis::legality_gate& gate() const noexcept { return gate_; }
    // Per-shard flow-latency sketch (log2 buckets over elapsed_us of every
    // finished flow) and the bounded slowest-flow list it cannot express.
    const obs::histogram& latency_sketch() const noexcept {
        return latency_sketch_;
    }
    const std::vector<slow_flow>& slowest_flows() const noexcept {
        return slowest_;
    }
    // Ring-stall accounting of this shard's pipelined dataplane (zeros when
    // no flow opted in).
    pipeline::ring_stall_stats pipeline_stats() const noexcept {
        return pipeline_.has_value() ? pipeline_->stats()
                                     : pipeline::ring_stall_stats{};
    }
    bool pipeline_threaded() const noexcept {
        return pipeline_.has_value() && pipeline_->threaded();
    }
    const pipeline_stage_costs& pipeline_costs() const noexcept {
        return stage_costs_;
    }

private:
    // e.ports slots; each of the four pipe directions has its own demux, so
    // distinct slots guarantee bind() can never conflict.
    static constexpr std::size_t port_client_request = 0;
    static constexpr std::size_t port_server_request = 1;
    static constexpr std::size_t port_client_reply = 2;
    static constexpr std::size_t port_server_reply = 3;

    struct flow_entry {
        flow_entry(const Cipher& cc, const Cipher& sc)
            : client_cipher(cc), server_cipher(sc) {}
        std::uint32_t id = 0;
        std::uint32_t tag = 0;
        flow_config cfg;
        Cipher client_cipher;  // stable storage: endpoints keep pointers
        Cipher server_cipher;
        std::string file;
        std::array<std::uint16_t, 4> ports{};
        std::unique_ptr<app::file_server<Mem, Cipher>> server;
        std::unique_ptr<app::file_client<Mem, Cipher>> client;
        sim_time started_at = 0;
        sched_state sched;
        std::uint64_t serviced_bytes = 0;
        // Last counter values the flight recorder turned into events, so
        // each service visit records only the transitions since the last.
        std::uint64_t fr_retransmissions = 0;
        std::uint64_t fr_retries = 0;
        std::uint64_t fr_rekeys = 0;
        std::uint64_t fr_tag_failures = 0;
        std::uint64_t fr_epoch_skews = 0;
        bool finished = false;
        flow_outcome outcome;
        // Intrusive active-list links (id-ordered): tick() walks only live
        // flows, so a mostly-finished table costs nothing per round, and
        // finish() unlinks in O(1).
        flow_entry* active_prev = nullptr;
        flow_entry* active_next = nullptr;
    };

    static app::secure_params secure_params_for(const flow_config& cfg) {
        app::secure_params sec;
        sec.enabled = cfg.secure;
        sec.flow_secret = cfg.flow_secret;
        sec.wire_version = cfg.secure_wire_version;
        sec.rekey_interval_bytes = cfg.rekey_interval_bytes;
        return sec;
    }

    flow_entry& entry(std::uint32_t id) {
        const auto it = table_.find(id);
        ILP_EXPECT(it != table_.end());
        return *it->second;
    }

    bool allocate_ports(flow_entry& e) {
        std::size_t n = 0;
        for (; n < e.ports.size(); ++n) {
            const std::optional<std::uint16_t> p = ports_.allocate();
            if (!p.has_value()) break;
            e.ports[n] = *p;
        }
        if (n == e.ports.size()) return true;
        // Partial allocation on exhaustion: give the ports back.
        for (std::size_t i = 0; i < n; ++i) ports_.release(e.ports[i]);
        return false;
    }

    // Data ports take loans too: a zero-copy sender's segments arrive in
    // place (ACKs are always staged spans).
    void bind_routes(flow_entry& e) {
        flow_entry* ep = &e;
        bool ok = request_fwd_demux_.bind(
            e.ports[port_server_request],
            [ep](std::span<const std::byte> p) {
                obs::scoped_flow flow_scope(ep->id);
                ep->server->on_request_packet(p);
            },
            [ep](const const_ring_span& s) {
                obs::scoped_flow flow_scope(ep->id);
                ep->server->on_request_segment(s);
            });
        ok = request_rev_demux_.bind(e.ports[port_client_request],
                                     [ep](std::span<const std::byte> p) {
                                         obs::scoped_flow flow_scope(ep->id);
                                         ep->client->on_request_ack_packet(p);
                                     }) &&
             ok;
        ok = reply_fwd_demux_.bind(
                 e.ports[port_client_reply],
                 [ep](std::span<const std::byte> p) {
                     obs::scoped_flow flow_scope(ep->id);
                     ep->client->on_reply_packet(p);
                 },
                 [ep](const const_ring_span& s) {
                     obs::scoped_flow flow_scope(ep->id);
                     ep->client->on_reply_segment(s);
                 }) &&
             ok;
        ok = reply_rev_demux_.bind(e.ports[port_server_reply],
                                   [ep](std::span<const std::byte> p) {
                                       obs::scoped_flow flow_scope(ep->id);
                                       ep->server->on_reply_ack_packet(p);
                                   }) &&
             ok;
        ILP_ENSURE(ok);  // freshly allocated ports cannot conflict
    }

    void service(flow_entry& e) {
        if (e.cfg.pipeline_depth > 0 && e.cfg.mode == app::path_mode::ilp &&
            pipeline_.has_value()) {
            service_pipelined(e);
            return;
        }
        obs::scoped_flow flow_scope(e.id);
        scheduler_.begin_visit(e.sched, e.server->next_wire_bytes());
        for (;;) {
            const std::size_t wire = e.server->next_wire_bytes();
            if (!scheduler_.grant(e.sched, wire)) break;
            const std::size_t sent = e.server->pump_one();
            if (sent == 0) break;  // TCP window/buffer blocked
            scheduler_.charge(e.sched, sent);
            e.serviced_bytes += sent;
            e.outcome.black_box.record(clock_.now(),
                                       obs::flight_event::segment,
                                       static_cast<std::uint32_t>(sent));
        }
        e.client->poll();
        record_transitions(e);
    }

    // Pipelined service visit: the same grant → send → charge contract as
    // the serial loop above, but with the fused stage of segment n
    // overlapped with the segmentation of segment n+1 through the stage
    // runner.  Every batch (up to cfg.pipeline_batch segments) is drained
    // *within* the visit — before tick() advances the clock — so pipelining
    // is invisible to virtual time and the fleet digest.
    void service_pipelined(flow_entry& e) {
        obs::scoped_flow flow_scope(e.id);
        auto& runner = *pipeline_;
        app::file_server<Mem, Cipher>& server = *e.server;
        const std::size_t k =
            e.cfg.pipeline_batch == 0 ? 1 : e.cfg.pipeline_batch;
        scheduler_.begin_visit(e.sched, server.next_wire_bytes());
        bool blocked = false;
        while (!blocked) {
            std::size_t batch = 0;
            bool flush = false;
            while (batch < k && !flush) {
                const std::size_t wire = server.next_wire_bytes();
                if (!scheduler_.grant(e.sched, wire)) {
                    blocked = true;
                    break;
                }
                auto* slot = runner.acquire();
                if (slot == nullptr) {
                    // Pipeline full: retire the oldest in-flight segment.
                    drain_one(server);
                    slot = runner.acquire();
                    ILP_ENSURE(slot != nullptr);
                }
                bool segmentized;
                {
                    ILP_OBS_ATTR("server", server_obs_src_);
                    ILP_OBS_SPAN("pipeline", "segmentize");
                    const stage_meter meter(server_obs_src_,
                                            stage_costs_.segmentize);
                    segmentized = server.segmentize_segment(*slot);
                }
                if (!segmentized) {  // TCP window/buffer blocked
                    runner.recycle(slot);
                    blocked = true;
                    break;
                }
                scheduler_.charge(e.sched, slot->wire);
                e.serviced_bytes += slot->wire;
                e.outcome.black_box.record(
                    clock_.now(), obs::flight_event::segment,
                    static_cast<std::uint32_t>(slot->wire));
                runner.submit(slot);
                ++batch;
                // Rekey barrier: the segment just queued advances the key
                // window when it completes; drain before the next segment
                // snapshots its cipher, so post-rekey segments encrypt
                // under the new epoch exactly as the serial path would.
                if (server.pipeline_flush_pending()) flush = true;
            }
            if (batch > 0) runner.note_batch();
            while (runner.outstanding()) drain_one(server);
        }
        e.client->poll();
        record_transitions(e);
    }

    // Stage C for one slot.  Inline mode runs the fused loop inside
    // next_done() on this thread, so the server attribution scope must cover
    // it — serial runs the same loop under that scope inside pump_one().
    void drain_one(app::file_server<Mem, Cipher>& server) {
        typename app::file_server<Mem, Cipher>::pipeline_slot* slot = nullptr;
        {
            // Under simulated memory the runner is inline, so next_done()
            // runs exactly one fused stage: its traffic is stage B's.
            ILP_OBS_ATTR("server", server_obs_src_);
            const stage_meter meter(server_obs_src_, stage_costs_.fused_loop);
            slot = pipeline_->next_done();
        }
        ILP_ENSURE(slot != nullptr);
        {
            ILP_OBS_ATTR("server", server_obs_src_);
            ILP_OBS_SPAN("pipeline", "bookkeeping");
            const stage_meter meter(server_obs_src_, stage_costs_.bookkeeping);
            server.complete_segment(*slot);
        }
        pipeline_->release(slot);
    }

    // Charges the server memory traffic of its scope to one stage.
    class stage_meter {
    public:
        stage_meter(const memsim::memory_system* source,
                    pipeline_stage_cost& cost)
            : source_(source), cost_(&cost) {
            if (source_ != nullptr) before_ = obs::sample_counters(*source_);
        }
        ~stage_meter() {
            ++cost_->calls;
            if (source_ != nullptr) {
                cost_->mem += obs::sample_counters(*source_) - before_;
            }
        }
        stage_meter(const stage_meter&) = delete;
        stage_meter& operator=(const stage_meter&) = delete;

    private:
        const memsim::memory_system* source_;
        pipeline_stage_cost* cost_;
        obs::mem_counters before_;
    };

    // (Re)creates the shard's stage runner so its slot pool covers the
    // deepest pipeline requested so far.  Only called from open_flow, when
    // nothing is in flight.  Threading is demoted to inline stepping under
    // simulated memory: memsim counters are not thread-safe, and inline
    // stepping produces identical output.
    void ensure_pipeline(std::size_t depth) {
        const bool threaded = opts_.pipeline_workers &&
                              obs::attribution_source(server_mem_) == nullptr;
        if (pipeline_.has_value() && pipeline_->depth() >= depth &&
            pipeline_->threaded() == threaded) {
            return;
        }
        std::size_t d = depth;
        if (pipeline_.has_value()) d = std::max(d, pipeline_->depth());
        pipeline_.emplace(d, threaded,
                          &app::file_server<Mem, Cipher>::fuse_slot);
    }

    // Id-ordered intrusive active list.  Production paths open flows in
    // increasing id order, so the backwards scan is O(1) there; finish()
    // unlinks in O(1) always.
    void active_insert(flow_entry& e) {
        flow_entry* pos = active_tail_;
        while (pos != nullptr && pos->id > e.id) pos = pos->active_prev;
        e.active_prev = pos;
        e.active_next = pos != nullptr ? pos->active_next : active_head_;
        if (e.active_next != nullptr) {
            e.active_next->active_prev = &e;
        } else {
            active_tail_ = &e;
        }
        if (pos != nullptr) {
            pos->active_next = &e;
        } else {
            active_head_ = &e;
        }
    }

    void active_remove(flow_entry& e) {
        if (e.active_prev != nullptr) {
            e.active_prev->active_next = e.active_next;
        } else {
            active_head_ = e.active_next;
        }
        if (e.active_next != nullptr) {
            e.active_next->active_prev = e.active_prev;
        } else {
            active_tail_ = e.active_prev;
        }
        e.active_prev = e.active_next = nullptr;
    }

    // Flight recorder: turn this visit's counter deltas into dated events.
    // A handful of counter loads per flow per tick — O(1), always on.
    void record_transitions(flow_entry& e) {
        obs::flight_recorder& fr = e.outcome.black_box;
        const sim_time now = clock_.now();
        const std::uint64_t retx = e.server->reply_tcp_stats().retransmissions;
        if (retx != e.fr_retransmissions) {
            fr.record(now, obs::flight_event::retransmit,
                      static_cast<std::uint32_t>(retx));
            e.fr_retransmissions = retx;
        }
        const std::uint64_t retries = e.client->recovery().retries;
        if (retries != e.fr_retries) {
            fr.record(now, obs::flight_event::rpc_retry,
                      static_cast<std::uint32_t>(retries));
            e.fr_retries = retries;
        }
        if (!e.cfg.secure) return;
        const std::uint64_t rekeys = e.server->secure_stats().rekeys;
        if (rekeys != e.fr_rekeys) {
            fr.record(now, obs::flight_event::rekey,
                      static_cast<std::uint32_t>(rekeys));
            e.fr_rekeys = rekeys;
        }
        const std::uint64_t tags = e.client->secure_stats().tag_failures +
                                   e.server->secure_stats().tag_failures;
        if (tags != e.fr_tag_failures) {
            fr.record(now, obs::flight_event::tag_failure,
                      static_cast<std::uint32_t>(tags));
            e.fr_tag_failures = tags;
        }
        const std::uint64_t skews = e.client->secure_stats().epoch_skews;
        if (skews != e.fr_epoch_skews) {
            fr.record(now, obs::flight_event::epoch_skew,
                      static_cast<std::uint32_t>(skews));
            e.fr_epoch_skews = skews;
        }
    }

    void finish(flow_entry& e, bool deadline_hit) {
        e.finished = true;
        --active_;
        active_remove(e);
        flow_outcome& o = e.outcome;
        o.completed = e.client->done();
        o.gave_up = e.client->failed() && !o.completed;
        o.deadline_exceeded = deadline_hit && !o.completed && !o.gave_up;
        o.elapsed_us = clock_.now() - e.started_at;
        o.payload_bytes = e.client->bytes_received();
        o.rpc_retries = e.client->recovery().retries;
        o.tcp_retransmissions = e.server->reply_tcp_stats().retransmissions;
        o.serviced_bytes = e.serviced_bytes;
        o.rekeys = e.server->secure_stats().rekeys;
        o.tag_failures = e.client->secure_stats().tag_failures +
                         e.server->secure_stats().tag_failures;
        o.epoch_skews = e.client->secure_stats().epoch_skews;
        o.epoch_window_hits = e.client->secure_stats().window_hits;
        const net::tag_stats fwd = reply_link_.forward().stats_for_tag(e.tag);
        const net::tag_stats rev = reply_link_.reverse().stats_for_tag(e.tag);
        o.reply_packets_dropped = fwd.packets_dropped;
        o.queue_dropped = fwd.packets_queue_dropped + rev.packets_queue_dropped;
        if (o.completed) {
            o.verified = true;
            const std::vector<std::byte>* original = store_.find(e.file);
            for (std::uint32_t c = 0; c < e.cfg.copies; ++c) {
                const auto received = e.client->copy_data(c);
                if (received.size() != original->size() ||
                    (original->size() > 0 &&
                     std::memcmp(received.data(), original->data(),
                                 original->size()) != 0)) {
                    o.verified = false;
                }
            }
        }
        // Terminal flight-recorder entry + the shard's O(1) latency state:
        // a log2-bucket sketch instead of any per-flow histogram, plus a
        // bounded top-k so the slowest flows keep their identity.
        const obs::flight_event terminal =
            o.completed          ? obs::flight_event::completed
            : o.gave_up          ? obs::flight_event::gave_up
            : o.deadline_exceeded ? obs::flight_event::deadline_exceeded
                                  : obs::flight_event::connect;
        if (terminal != obs::flight_event::connect) {
            o.black_box.record(clock_.now(), terminal,
                               static_cast<std::uint32_t>(o.rpc_retries));
        }
        latency_sketch_.record(o.elapsed_us);
        note_slow_flow(o.flow_id, o.elapsed_us);
        teardown(e);
    }

    // Keeps the k slowest finished flows, replace-min: O(k) per finish with
    // k fixed, so per-flow cost stays O(1) at any fleet size.
    void note_slow_flow(std::uint32_t id, sim_time elapsed_us) {
        if (slowest_.size() < max_slow_flows) {
            slowest_.push_back({id, elapsed_us});
            return;
        }
        std::size_t min_i = 0;
        for (std::size_t i = 1; i < slowest_.size(); ++i) {
            if (slowest_[i].elapsed_us < slowest_[min_i].elapsed_us) min_i = i;
        }
        if (elapsed_us > slowest_[min_i].elapsed_us) {
            slowest_[min_i] = {id, elapsed_us};
        }
    }

    // Recycles the flow's routes, ports and timers.  Endpoint state stays
    // readable (stats, received data) until the shard dies; late packets
    // addressed to the recycled ports count as no-listener drops.
    void teardown(flow_entry& e) {
        e.client->quiesce();
        e.server->quiesce();
        request_fwd_demux_.unbind(e.ports[port_server_request]);
        request_rev_demux_.unbind(e.ports[port_client_request]);
        reply_fwd_demux_.unbind(e.ports[port_client_reply]);
        reply_rev_demux_.unbind(e.ports[port_server_reply]);
        for (const std::uint16_t p : e.ports) ports_.release(p);
    }

    std::uint32_t index_;
    shard_options opts_;
    Mem client_mem_;
    Mem server_mem_;
    const memsim::memory_system* server_obs_src_ =
        obs::attribution_source(server_mem_);
    flow_scheduler scheduler_;
    virtual_clock clock_;  // declared before the links: they capture it
    net::duplex_link request_link_;
    net::duplex_link reply_link_;
    net::port_demux request_fwd_demux_;  // -> server request receivers
    net::port_demux request_rev_demux_;  // -> client request-ACK handlers
    net::port_demux reply_fwd_demux_;    // -> client reply receivers
    net::port_demux reply_rev_demux_;    // -> server reply-ACK handlers
    net::port_allocator ports_;
    app::file_store store_;
    analysis::legality_gate gate_;
    std::optional<pipeline::stage_runner<
        typename app::file_server<Mem, Cipher>::pipeline_slot>>
        pipeline_;
    pipeline_stage_costs stage_costs_;
    std::map<std::uint32_t, std::unique_ptr<flow_entry>> table_;
    std::size_t active_ = 0;
    flow_entry* active_head_ = nullptr;  // live flows, ascending id
    flow_entry* active_tail_ = nullptr;
    static constexpr std::size_t max_slow_flows = 8;
    obs::histogram latency_sketch_;
    std::vector<slow_flow> slowest_;
};

}  // namespace ilp::engine
