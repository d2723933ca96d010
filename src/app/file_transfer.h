// The paper's application: RPC-style bulk file transfer (§3.1).
//
// "A client sends a request describing the file to receive, the number of
// copies of this file to be received, and the maximum length of bytes to
// receive within a single reply message.  After receiving a file
// transmission request, the server segments the file into smaller units and
// sends these units as a set of reply messages back to the client."
//
// Topology (all in-process, loop-back, like the paper's measurements):
//
//     client ── request link (tcp data ->, acks <-) ──> server
//     client <── reply link  (tcp data <-, acks ->) ── server
//
// Client and server each carry their own memory-access policy so the
// simulator can attribute send-side and receive-side traffic separately
// (the paper instruments sending and receiving independently, §4.2).
#pragma once

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "app/path_mode.h"
#include "app/receive_path.h"
#include "app/secure_path.h"
#include "app/send_path.h"
#include "buffer/byte_buffer.h"
#include "net/datagram.h"
#include "obs/tracer.h"
#include "rpc/messages.h"
#include "tcp/connection.h"
#include "util/rng.h"

namespace ilp::app {

// ---------------------------------------------------------------------------
// RPC-level failure recovery

// Retry policy the client applies on top of TCP, on the virtual clock.  A
// retry fires when the request connection fails, the reply connection is
// reset by the server (RST), or no reply progress is made for
// `response_timeout_us`.  Each retry re-issues the request from the highest
// contiguously received offset and re-establishes the reply connection on a
// fresh ISN carried in the request, so recovery resumes instead of
// restarting.
struct retry_policy {
    unsigned max_attempts = 5;  // total request issues (first try + retries)
    sim_time response_timeout_us = 3'000'000;  // no-progress watchdog; 0 = off
    sim_time backoff_us = 50'000;  // delay before the first retry, doubled
    sim_time max_backoff_us = 1'600'000;  // per retry up to this cap
};

struct client_recovery_stats {
    std::uint64_t retries = 0;            // re-issued requests
    std::uint64_t connection_resets = 0;  // endpoint reset() calls
    std::uint64_t refetched_bytes = 0;    // reply payload delivered twice
    bool gave_up = false;                 // max_attempts exhausted
};

// ---------------------------------------------------------------------------
// Server-side file storage

class file_store {
public:
    void add(std::string name, std::vector<std::byte> contents);

    // Adds a deterministic pseudo-random file (workload generator).
    void add_random(std::string name, std::size_t bytes, std::uint64_t seed);

    const std::vector<std::byte>* find(const std::string& name) const;

private:
    std::map<std::string, std::vector<std::byte>> files_;
};

// The scratch packet of an endpoint's pass-per-layer sends.  Only a layered
// endpoint stages; an ILP endpoint fills the TCP ring directly and gets an
// empty buffer.  A flow the legality gate demoted is layered by the time its
// endpoints are built, so it gets its staging too.
inline byte_buffer layered_staging_for(path_mode mode) {
    return mode == path_mode::layered
               ? byte_buffer::uninitialized(
                     net::datagram_pipe::max_packet_bytes)
               : byte_buffer{};
}

// ---------------------------------------------------------------------------
// Server

template <memsim::memory_policy Mem, crypto::block_cipher Cipher>
class file_server {
public:
    // The caller owns packet routing (the engine's port demuxes feed
    // on_request_packet / on_request_segment / on_reply_ack_packet); only
    // the two outbound pipes are attached here.
    file_server(const Mem& mem, const Cipher& cipher, virtual_clock& clock,
                net::datagram_pipe& request_ack_out,
                net::datagram_pipe& reply_data_out,
                const tcp::connection_config& request_cfg,
                const tcp::connection_config& reply_cfg, path_mode mode,
                const file_store& store, const secure_params& secure = {})
        : mem_(mem),
          keys_(cipher, secure),
          rekey_interval_bytes_(
              secure_framing(secure) ? secure.rekey_interval_bytes : 0),
          mode_(mode),
          store_(&store),
          request_isn_(request_cfg.initial_seq),
          request_rx_(mem, clock, request_ack_out, request_cfg),
          reply_tx_(mem, clock, reply_data_out, reply_cfg),
          layered_staging_(layered_staging_for(mode)),
          request_staging_(byte_buffer::uninitialized(
              net::datagram_pipe::max_packet_bytes)) {
        reply_tx_.set_attribution("server", obs_src_);
        // The client's request sender RSTs when it gives up; rewind to the
        // agreed initial sequence so its re-established sender lines up.
        request_rx_.set_failure_handler(
            [this] { request_rx_.reset(request_isn_); });
        request_rx_.set_processor([this](std::span<std::byte> payload) {
            return process_request(payload);
        });
        if (mode_ == path_mode::ilp) {
            // Zero-copy deliveries (on_segment) run the fused request path
            // in place over the loaned chain; the layered path has no chain
            // processor, so TCP stages a counted copy for it instead.
            request_rx_.set_chain_processor(
                [this](const const_ring_span& payload) {
                    return process_request(payload);
                });
        }
        request_rx_.set_accept_handler(
            [this](std::size_t wire_len) { on_request(wire_len); });
    }

    // Packet entry points; the attribution scope travels with them because
    // they also fire from inside clock.advance() (delivery timers).
    void on_request_packet(std::span<const std::byte> p) {
        ILP_OBS_ATTR("server", obs_src_);
        request_rx_.on_packet(p);
    }
    void on_request_segment(const const_ring_span& s) {
        ILP_OBS_ATTR("server", obs_src_);
        request_rx_.on_segment(s);
    }
    void on_reply_ack_packet(std::span<const std::byte> p) {
        ILP_OBS_ATTR("server", obs_src_);
        reply_tx_.on_ack_packet(p);
    }

    // Disarms pending TCP timers.  Required before destroying a server whose
    // clock lives on (engine flow teardown): armed timers capture `this`.
    void quiesce() { reply_tx_.quiesce(); }

    // Sends every reply segment TCP has buffer and window space for.  ACK
    // arrival and request acceptance only record state: the caller meters
    // segments out through pump_one() or pump() (the engine's scheduler).
    void pump() {
        while (pump_one() != 0) {
        }
    }

    // Sends at most one reply segment — the three pipeline stages below run
    // inline on one stack slot; returns its wire size in bytes, 0 when
    // nothing was sent (no pending jobs, reply stream failed, or TCP out of
    // buffer/window space).  A zero-payload completion reply still reports
    // its header wire bytes, so 0 unambiguously means "blocked".
    std::size_t pump_one() {
        ILP_OBS_ATTR("server", obs_src_);
        pipeline_slot slot;
        if (!segmentize_segment(slot)) return 0;
        ILP_OBS_SPAN("app", send_span(slot.key, slot.mode));
        fuse_slot(slot);
        complete_segment(slot);
        return slot.wire;
    }

    // -----------------------------------------------------------------------
    // The reply send in three stages, so a stage_runner can overlap the
    // fused loop of segment n with the segmentation of segment n+1 (ILP
    // mode only).  Stage A charges nothing, and the rekey barrier
    // (pipeline_flush_pending) makes the caller drain before a key-window
    // advance, so every segment is encrypted under the same epoch whether
    // the stages run pipelined or inline in pump_one().

    // One in-flight reply segment.  The staging block lives here because
    // `src` holds gather segments pointing into it; slots therefore need
    // stable addresses for their lifetime (the stage_runner's pool provides
    // that).
    struct pipeline_slot {
        rpc::reply_staging staging;
        core::gather_source src;
        core::message_plan plan;
        typename tcp::tcp_sender<Mem>::pending_segment pending;
        std::size_t wire = 0;         // full wire size incl. trailer
        std::size_t payload_len = 0;  // file bytes carried
        seal_key<Cipher> key;         // snapshot taken at reservation
        bool rekey = false;           // completing it advances the key window
        path_mode mode = path_mode::ilp;
        std::span<std::byte> layered_staging;  // serial layered sends only
        std::optional<std::uint16_t> payload_sum;
        std::optional<Mem> mem;
    };

    // Stage A: claim the next segment of the front job — build its source
    // and plan, reserve (but do not fill or publish) its ring space, and
    // snapshot the key it must be sealed under.  Returns false when nothing
    // can be sent: no runnable job, failed reply stream, or no buffer/window
    // space for the reservation.
    bool segmentize_segment(pipeline_slot& slot) {
        ILP_OBS_ATTR("server", obs_src_);
        if (reply_tx_.failed()) {
            // The reply stream is dead (RST already went out).  Park: the
            // client re-requests what it is missing, which resets the
            // stream and replaces these jobs.
            if (!jobs_.empty()) {
                jobs_abandoned_ += jobs_.size();
                jobs_.clear();
            }
            return false;
        }
        while (!jobs_.empty() && jobs_.front().finished) jobs_.pop_front();
        if (jobs_.empty()) return false;
        reply_job& job = jobs_.front();
        ILP_OBS_SPAN("app", "reply_segment");

        const std::size_t payload_len = next_payload_len(job);
        rpc::reply_header header;
        header.request_id = job.request.request_id;
        header.copy_index = job.copy;
        header.offset = static_cast<std::uint32_t>(job.offset);
        header.total_bytes = static_cast<std::uint32_t>(job.file->size());

        const rpc::reply_layout layout = rpc::layout_reply(payload_len);
        const std::size_t wire = layout.wire_bytes + keys_.trailer_bytes();
        const auto pending = reply_tx_.reserve_segment(wire);
        if (!pending.has_value()) {
            return false;  // delayed until buffer space is available (§3.2.2)
        }
        slot.src = rpc::make_reply_source(
            header, {job.file->data() + job.offset, payload_len},
            slot.staging);
        slot.plan = layout.plan;
        slot.pending = *pending;
        slot.wire = wire;
        slot.payload_len = payload_len;
        slot.key = keys_.reply_key();
        slot.mode = mode_;
        slot.layered_staging = mode_ == path_mode::layered
                                   ? layered_staging_.subspan(0, wire)
                                   : std::span<std::byte>{};
        slot.mem = mem_;
        // rekey_interval_bytes policy: the segment that fills the interval
        // advances the key window when it completes.  Everything already
        // segmentized was (or will be) encrypted under the current epoch, so
        // the caller must drain the pipeline before any further
        // segmentation.  Segments already in the TCP ring (and any
        // retransmissions of them) keep their old-epoch ciphertext — that is
        // precisely what the receiver's two-epoch window absorbs.
        slot.rekey = false;
        if (rekey_interval_bytes_ != 0) {
            bytes_since_rekey_ += wire;
            if (bytes_since_rekey_ >= rekey_interval_bytes_) {
                bytes_since_rekey_ = 0;
                slot.rekey = flush_pending_ = true;
            }
        }

        job.offset += payload_len;
        if (job.offset >= job.file->size()) {
            job.offset = 0;
            if (++job.copy >= job.request.copy_count) job.finished = true;
        }
        if (job.finished) jobs_.pop_front();
        return true;
    }

    // Stage B: the fill — the fused marshal+encrypt+checksum loop writing
    // straight into the reserved ring span (or, serial layered sends, the
    // pass-per-layer baseline).  Static and self-contained (everything it
    // reads lives in the slot) so it can run on a pipeline worker thread.
    static void fuse_slot(pipeline_slot& slot) {
        slot.payload_sum =
            fill_segment(slot.mode, *slot.mem, slot.key, slot.src, slot.plan,
                         slot.pending.dst, slot.layered_staging);
    }

    // Stage C: publish the filled segment (transmit + retransmit arming) and
    // do the send's bookkeeping.
    void complete_segment(pipeline_slot& slot) {
        ILP_OBS_ATTR("server", obs_src_);
        reply_tx_.commit_segment(slot.pending, slot.payload_sum);
        count_sent(tx_counters_, slot.mode, slot.plan.total_bytes, slot.wire);
        tx_counters_.payload_bytes += slot.payload_len;
        if (slot.rekey) {
            keys_.advance();
            ++sec_stats_.rekeys;
            flush_pending_ = false;
            ILP_OBS_INSTANT("crypto", "rekey");
        }
    }

    // True when a segmentized segment will advance the key window at
    // completion: the caller must drain in-flight segments (through stage C)
    // before segmentizing more, so post-rekey segments snapshot the new key.
    bool pipeline_flush_pending() const noexcept { return flush_pending_; }

    // Wire size of the segment the next pump_one() would send (what a
    // byte-metered scheduler charges before granting), 0 when idle/failed.
    std::size_t next_wire_bytes() const {
        if (reply_tx_.failed()) return 0;
        for (const reply_job& job : jobs_) {
            if (!job.finished) {
                return rpc::layout_reply(next_payload_len(job)).wire_bytes +
                       keys_.trailer_bytes();
            }
        }
        return 0;
    }

    const path_counters& send_counters() const noexcept { return tx_counters_; }
    const path_counters& request_counters() const noexcept {
        return rx_counters_;
    }
    const tcp::sender_stats& reply_tcp_stats() const {
        return reply_tx_.stats();
    }
    const tcp::receiver_stats& request_tcp_stats() const {
        return request_rx_.stats();
    }
    std::uint64_t requests_served() const noexcept { return requests_served_; }
    std::uint64_t requests_rejected() const noexcept {
        return requests_rejected_;
    }
    std::uint64_t requests_deduplicated() const noexcept {
        return requests_deduplicated_;
    }
    std::uint64_t jobs_abandoned() const noexcept { return jobs_abandoned_; }

    const secure_flow_stats& secure_stats() const noexcept {
        return sec_stats_;
    }
    crypto::key_epoch current_epoch() const noexcept {
        return keys_.current_epoch();
    }

private:
    struct reply_job {
        rpc::file_request request;
        const std::vector<std::byte>* file = nullptr;
        std::uint32_t copy = 0;
        std::size_t offset = 0;
        bool finished = false;
    };

    // Request-direction processor: the flow's framing decides how the
    // request is decrypted and judged (secure flows under the epoch-free
    // control key).  Wire is either a contiguous span (staged copy) or a
    // const_ring_span chain (zero-copy loan).
    template <typename Wire>
    tcp::rx_process_result process_request(const Wire& payload) {
        secure_rx_status status;
        const auto result =
            keys_.receive_request(mode_, mem_, payload, request_staging_.span(),
                                  &status, rx_counters_);
        if (status.cause == secure_rx_cause::tag_mismatch) {
            ++sec_stats_.tag_failures;
            ILP_OBS_INSTANT("crypto", "request_tag_mismatch");
        }
        return result;
    }

    void on_request(std::size_t wire_len) {
        ILP_OBS_SPAN("app", "serve_request");
        ILP_EXPECT(wire_len >= keys_.trailer_bytes());
        const auto request = rpc::unmarshal_request(
            request_staging_.subspan(0, wire_len - keys_.trailer_bytes()));
        if (!request.has_value() || request->copy_count == 0 ||
            request->max_reply_payload == 0) {
            ++requests_rejected_;
            return;
        }
        // Version pinning: the flow's negotiated framing decides which wire
        // version is acceptable; anything else is rejected explicitly.
        if (request->version != keys_.wire_version()) {
            ++requests_rejected_;
            return;
        }
        // A v3 request carries the client's epoch: re-centre the key window
        // before replying (a server picking up a flow resumed after an
        // outage must not answer under a retired epoch).
        if (keys_.adopt(request->key_epoch)) {
            ++sec_stats_.epoch_adoptions;
            ILP_OBS_INSTANT("crypto", "epoch_adopted");
        }
        const std::vector<std::byte>* file = store_->find(request->filename);
        if (file == nullptr) {
            ++requests_rejected_;
            return;
        }

        // Idempotence: an attempt already being served on a healthy reply
        // stream (duplicated request packet, or an impatient client retry
        // that crossed its own answer) is dropped, not double-served.
        for (const reply_job& job : jobs_) {
            if (job.request.request_id == request->request_id &&
                job.request.start_offset == request->start_offset &&
                job.request.reply_isn == request->reply_isn &&
                !reply_tx_.failed()) {
                ++requests_deduplicated_;
                return;
            }
        }

        // A new attempt: if the reply stream failed, or the client asks for
        // an ISN other than our current stream position, it abandoned the
        // old stream — rewind to the requested ISN and drop stale jobs.
        if (reply_tx_.failed() || request->reply_isn != reply_tx_.next_seq()) {
            reply_tx_.reset(request->reply_isn);
            jobs_abandoned_ += jobs_.size();
            jobs_.clear();
        } else {
            // Same request re-issued at a new offset on a healthy stream:
            // the superseded job must not keep serving stale data.
            for (auto it = jobs_.begin(); it != jobs_.end();) {
                if (it->request.request_id == request->request_id) {
                    ++jobs_abandoned_;
                    it = jobs_.erase(it);
                } else {
                    ++it;
                }
            }
        }

        ++requests_served_;
        reply_job job;
        job.request = *request;
        job.file = file;
        // start_offset indexes the reply stream (copies concatenated);
        // map it back to (copy, offset-within-copy).
        const std::uint64_t total = file->size();
        const std::uint64_t stream_total = total * request->copy_count;
        const std::uint64_t start =
            std::min<std::uint64_t>(request->start_offset, stream_total);
        if (total > 0) {
            job.copy = static_cast<std::uint32_t>(start / total);
            job.offset = static_cast<std::size_t>(start % total);
        }
        if (job.copy >= request->copy_count) job.finished = true;
        jobs_.push_back(std::move(job));
    }

    static std::size_t next_payload_len(const reply_job& job) {
        return std::min<std::size_t>(job.file->size() - job.offset,
                                     job.request.max_reply_payload);
    }

    Mem mem_;
    const memsim::memory_system* obs_src_ = obs::attribution_source(mem_);
    flow_keys<Cipher> keys_;
    // Reply-stream bytes between key-window advances; 0 when the flow never
    // rekeys (plain, or negotiated down to v2).
    const std::uint64_t rekey_interval_bytes_;
    path_mode mode_;
    const file_store* store_;
    secure_flow_stats sec_stats_;
    std::uint64_t bytes_since_rekey_ = 0;  // segmentized since the last rekey
    bool flush_pending_ = false;  // a segmentized segment will rekey
    std::uint32_t request_isn_;
    tcp::tcp_receiver<Mem> request_rx_;
    tcp::tcp_sender<Mem> reply_tx_;
    byte_buffer layered_staging_;
    byte_buffer request_staging_;
    std::deque<reply_job> jobs_;
    path_counters tx_counters_;
    path_counters rx_counters_;
    std::uint64_t requests_served_ = 0;
    std::uint64_t requests_rejected_ = 0;
    std::uint64_t requests_deduplicated_ = 0;
    std::uint64_t jobs_abandoned_ = 0;
};

// ---------------------------------------------------------------------------
// Client

template <memsim::memory_policy Mem, crypto::block_cipher Cipher>
class file_client {
public:
    // The caller routes packets to on_request_ack_packet / on_reply_packet
    // / on_reply_segment; only the outbound pipes are attached here.
    file_client(const Mem& mem, const Cipher& cipher, virtual_clock& clock,
                net::datagram_pipe& request_data_out,
                net::datagram_pipe& reply_ack_out,
                const tcp::connection_config& request_cfg,
                const tcp::connection_config& reply_cfg, path_mode mode,
                const retry_policy& retry = {},
                const secure_params& secure = {})
        : mem_(mem),
          keys_(cipher, secure),
          mode_(mode),
          clock_(&clock),
          policy_(retry),
          request_isn_(request_cfg.initial_seq),
          request_tx_(mem, clock, request_data_out, request_cfg),
          reply_rx_(mem, clock, reply_ack_out, reply_cfg),
          layered_staging_(layered_staging_for(mode)) {
        request_tx_.set_attribution("client", obs_src_);
        reply_rx_.set_processor([this](std::span<std::byte> payload) {
            return process_reply(payload);
        });
        if (mode_ == path_mode::ilp) {
            // Zero-copy deliveries run the fused reply path in place over
            // the loaned chain; the layered path has no chain processor, so
            // TCP stages a counted copy for it instead.
            reply_rx_.set_chain_processor(
                [this](const const_ring_span& payload) {
                    return process_reply(payload);
                });
        }
        reply_rx_.set_accept_handler([this](std::size_t) { commit_reply(); });
    }

    // Packet entry points; attribution travels with them (they fire from
    // delivery timers inside clock.advance()).
    void on_request_ack_packet(std::span<const std::byte> p) {
        ILP_OBS_ATTR("client", obs_src_);
        request_tx_.on_ack_packet(p);
    }
    void on_reply_packet(std::span<const std::byte> p) {
        ILP_OBS_ATTR("client", obs_src_);
        reply_rx_.on_packet(p);
    }
    void on_reply_segment(const const_ring_span& s) {
        ILP_OBS_ATTR("client", obs_src_);
        reply_rx_.on_segment(s);
    }

    // Disarms pending TCP timers.  Required before destroying a client whose
    // clock lives on (engine flow teardown): armed timers capture `this`.
    void quiesce() { request_tx_.quiesce(); }

    // Sends the file request; returns false if it could not be queued.
    // The reply_isn field is overwritten: the first attempt always runs on
    // the reply connection's configured sequence state.
    bool request_file(const rpc::file_request& request) {
        ILP_OBS_ATTR("client", obs_src_);
        ILP_OBS_SPAN("rpc", "request");
        rpc::file_request r = request;
        r.reply_isn = reply_rx_.expected_seq();
        r.version = keys_.wire_version();
        r.key_epoch = current_epoch();
        if (!issue_request(r)) return false;
        state_.request = r;
        state_.active = true;
        state_.total_known = false;
        state_.buffers.clear();
        state_.received.assign(request.copy_count, 0);
        state_.completed_replies.assign(request.copy_count, 0);
        attempt_ = 1;
        retry_at_ = 0;
        recovery_ = {};
        last_progress_us_ = clock_->now();
        return true;
    }

    // Drives failure detection and the retry state machine; call regularly
    // from the event loop.  Retries fire on transport failure (request
    // sender gave up, or the server RST the reply stream) and on the
    // response timeout, after an exponential backoff, until max_attempts.
    void poll() {
        if (!state_.active || recovery_.gave_up || done()) return;
        ILP_OBS_ATTR("client", obs_src_);
        const sim_time now = clock_->now();
        if (retry_at_ != 0) {  // backoff in progress
            if (now < retry_at_) return;
            retry_at_ = 0;
            perform_retry();
            return;
        }
        const bool transport_failed =
            request_tx_.failed() || reply_rx_.peer_failed();
        const bool timed_out =
            policy_.response_timeout_us != 0 &&
            now - last_progress_us_ >= policy_.response_timeout_us;
        if (!transport_failed && !timed_out) return;
        if (attempt_ >= policy_.max_attempts) {
            recovery_.gave_up = true;
            return;
        }
        sim_time delay = policy_.backoff_us;
        for (unsigned i = 1; i < attempt_ && delay < policy_.max_backoff_us;
             ++i) {
            delay *= 2;
        }
        if (delay > policy_.max_backoff_us) delay = policy_.max_backoff_us;
        if (delay == 0) {
            perform_retry();
        } else {
            retry_at_ = now + delay;
        }
    }

    bool done() const {
        if (!state_.active || !state_.total_known) return false;
        for (std::uint32_t c = 0; c < state_.request.copy_count; ++c) {
            if (state_.received[c] < state_.total) return false;
            if (state_.completed_replies[c] == 0) return false;
        }
        return true;
    }

    // Terminal failure: every attempt the retry policy allows has been
    // spent.  (Individual TCP failures are recovered internally by poll().)
    bool failed() const { return recovery_.gave_up; }

    const client_recovery_stats& recovery() const noexcept {
        return recovery_;
    }

    // The reassembled file contents of one received copy.
    std::span<const std::byte> copy_data(std::uint32_t copy) const {
        ILP_EXPECT(state_.total_known && copy < state_.buffers.size());
        return {state_.buffers[copy].get(), state_.total};
    }

    std::uint64_t bytes_received() const noexcept {
        std::uint64_t sum = 0;
        for (const auto b : state_.received) sum += b;
        return sum;
    }

    const path_counters& receive_counters() const noexcept {
        return rx_counters_;
    }
    const path_counters& request_send_counters() const noexcept {
        return tx_counters_;
    }
    const tcp::receiver_stats& reply_tcp_stats() const {
        return reply_rx_.stats();
    }
    const tcp::sender_stats& request_tcp_stats() const {
        return request_tx_.stats();
    }

    // Client-local metrics: reply inter-arrival gaps and retry latencies
    // (virtual us), plus commit/retry counters.  The harness merges this
    // into the transfer-wide registry.
    const obs::registry& metrics() const noexcept { return metrics_; }

    const secure_flow_stats& secure_stats() const noexcept {
        return sec_stats_;
    }
    crypto::key_epoch current_epoch() const noexcept {
        return keys_.current_epoch();
    }

private:
    struct free_storage {
        void operator()(std::byte* p) const noexcept { std::free(p); }
    };

    struct transfer_state {
        rpc::file_request request;
        bool active = false;
        // The file size a reply claims is tentative until TCP accepts the
        // segment that carried it; commit_reply() latches it.  Until then a
        // corrupted reply's garbage size must not fix the transfer's.
        bool total_known = false;
        std::size_t total = 0;
        // One buffer of `total` bytes per copy.
        std::vector<std::unique_ptr<std::byte, free_storage>> buffers;
        std::vector<std::size_t> received;
        std::vector<std::uint32_t> completed_replies;  // replies reaching EOF
    };

    // Wire is either a contiguous span (staged copy) or a const_ring_span
    // chain (zero-copy loan); the receive-path overloads resolve by type.
    template <typename Wire>
    tcp::rx_process_result process_reply(const Wire& payload) {
        const auto resolve = [this](const rpc::reply_header& h,
                                    std::size_t payload_bytes)
            -> std::span<std::byte> {
            if (!state_.active || h.request_id != state_.request.request_id ||
                h.copy_index >= state_.request.copy_count) {
                return {};
            }
            if (!state_.total_known && !reserve_storage(h.total_bytes)) {
                return {};
            }
            if (h.total_bytes != state_.total ||
                h.offset + payload_bytes > state_.total) {
                return {};
            }
            if (payload_bytes == 0) {
                // Empty file: a zero-length reply still signals completion.
                return {};
            }
            return {state_.buffers[h.copy_index].get() + h.offset,
                    payload_bytes};
        };

        rpc::reply_header header;
        secure_rx_status status;
        const std::uint64_t payload_before = rx_counters_.payload_bytes;
        const tcp::rx_process_result result = keys_.receive_reply(
            mode_, mem_, payload, resolve, &header, &status, rx_counters_);
        note_secure_status(status);
        // Remember what this reply would contribute; it is committed only if
        // TCP's final stage accepts the segment.
        if (result.ok) {
            pending_header_ = header;
            pending_payload_bytes_ = static_cast<std::size_t>(
                rx_counters_.payload_bytes - payload_before);
            pending_valid_ = true;
        } else {
            pending_valid_ = false;
        }
        return result;
    }

    // Tentative storage for the geometry a not-yet-accepted reply claims.
    // It replaces whatever an earlier reply TCP never accepted left behind.
    // calloc, not a zero-filled vector: a garbage size gets nullptr (the
    // reply is rejected) instead of std::bad_alloc, and a large request
    // comes back as zero pages nobody touches until data lands in them.
    bool reserve_storage(std::size_t total) {
        state_.buffers.clear();
        state_.buffers.reserve(state_.request.copy_count);
        state_.total = total;
        for (std::uint32_t c = 0; c < state_.request.copy_count; ++c) {
            state_.buffers.emplace_back(
                static_cast<std::byte*>(std::calloc(1, total)));
            if (state_.buffers.back() == nullptr && total != 0) return false;
        }
        return true;
    }

    // Final-stage commit: TCP accepted the segment carrying the pending
    // reply, so its geometry becomes the transfer's.  Commits are strictly
    // contiguous per copy — a reply opening a gap is ignored, and overlap
    // with already-committed data (a server resuming slightly behind the
    // client) only counts the fresh suffix.
    void commit_reply() {
        if (!pending_valid_) return;
        pending_valid_ = false;
        state_.total_known = true;
        const rpc::reply_header& h = pending_header_;
        std::size_t& got = state_.received[h.copy_index];
        if (h.offset > got) {
            // Gap: not contiguous, cannot commit.
            metrics_.add("client.replies_gapped");
            return;
        }
        const std::size_t end = h.offset + pending_payload_bytes_;
        if (end > got) {
            recovery_.refetched_bytes += got - h.offset;
            got = end;
        } else {
            recovery_.refetched_bytes += pending_payload_bytes_;
        }
        if (end >= state_.total) ++state_.completed_replies[h.copy_index];
        metrics_.add("client.replies_committed");
        metrics_.hist("client.reply_gap_us")
            .record(clock_->now() - last_progress_us_);
        last_progress_us_ = clock_->now();
    }

    // Folds one secure receive verdict into the counters/metrics; every
    // explicit failure cause leaves a distinct trace.
    void note_secure_status(const secure_rx_status& status) {
        switch (status.cause) {
            case secure_rx_cause::tag_mismatch:
                ++sec_stats_.tag_failures;
                metrics_.add("crypto.tag_failures");
                ILP_OBS_INSTANT("crypto", "tag_mismatch");
                break;
            case secure_rx_cause::epoch_skew:
                ++sec_stats_.epoch_skews;
                metrics_.add("crypto.epoch_skews");
                ILP_OBS_INSTANT("crypto", "epoch_skew");
                break;
            case secure_rx_cause::ok:
                if (status.window_hit) ++sec_stats_.window_hits;
                if (status.adopted) {
                    ++sec_stats_.epoch_adoptions;
                    metrics_.add("crypto.epoch_adoptions");
                    ILP_OBS_INSTANT("crypto", "epoch_adopted");
                }
                break;
            case secure_rx_cause::malformed:
                break;
        }
    }

    // Marshals and sends one request message over the request connection.
    bool issue_request(const rpc::file_request& request) {
        alignas(8) std::byte wire[1024];
        const auto wire_len = rpc::marshal_request(request, wire);
        if (!wire_len.has_value()) return false;

        // The request's wire image is already marshalled (control-plane);
        // the data path encrypts and checksums it.
        core::gather_source src;
        src.add({wire, *wire_len});
        const core::message_plan plan = core::plan_parts(
            rpc::validate_enc_header(load_be32(wire), *wire_len).value());
        const std::size_t wire_bytes = plan.total_bytes + keys_.trailer_bytes();
        const auto pending = request_tx_.reserve_segment(wire_bytes);
        if (!pending.has_value()) return false;
        const seal_key<Cipher> key = keys_.request_key();
        ILP_OBS_SPAN("app", send_span(key, mode_));
        const std::span<std::byte> staging =
            mode_ == path_mode::layered
                ? layered_staging_.subspan(0, wire_bytes)
                : std::span<std::byte>{};
        request_tx_.commit_segment(
            *pending, fill_segment(mode_, mem_, key, src, plan, pending->dst,
                                   staging));
        count_sent(tx_counters_, mode_, plan.total_bytes, wire_bytes);
        return true;
    }

    // Highest contiguously committed offset in the reply stream (copies
    // concatenated) — the resume point for the next attempt.
    std::uint32_t resume_offset() const {
        if (!state_.total_known) return 0;
        std::uint64_t off = 0;
        for (std::uint32_t c = 0; c < state_.request.copy_count; ++c) {
            if (state_.received[c] >= state_.total) {
                off += state_.total;
            } else {
                off += state_.received[c];
                break;
            }
        }
        return static_cast<std::uint32_t>(off);
    }

    // Distinct per attempt so segments of an abandoned reply stream can
    // never be mistaken for the re-established one.
    std::uint32_t derive_reply_isn() const {
        return (state_.request.request_id * 0x9e3779b9u) + attempt_ * 0x101u;
    }

    void perform_retry() {
        ILP_OBS_SPAN("rpc", "retry");
        ILP_OBS_INSTANT("rpc", "retry_fired");
        ++attempt_;
        ++recovery_.retries;
        metrics_.add("client.retries");
        // Latency of the failure detection itself: virtual time from the
        // last committed progress to this retry firing.
        metrics_.hist("client.retry_latency_us")
            .record(clock_->now() - last_progress_us_);
        if (request_tx_.failed()) {
            // The sender already emitted its RST; the server rewinds its
            // request receiver to the same agreed initial sequence.
            request_tx_.reset(request_isn_);
            ++recovery_.connection_resets;
        }
        // Always re-establish the reply stream on a fresh ISN carried in
        // the request; the server rewinds its reply sender to match.
        const std::uint32_t isn = derive_reply_isn();
        reply_rx_.reset(isn);
        ++recovery_.connection_resets;
        pending_valid_ = false;
        state_.request.start_offset = resume_offset();
        state_.request.reply_isn = isn;
        // Carry the freshest epoch: the server re-centres its key window on
        // it, so a rekey hidden by an outage resumes cleanly.
        state_.request.key_epoch = current_epoch();
        last_progress_us_ = clock_->now();
        if (!issue_request(state_.request)) {
            // No space on the request connection right now; retry the
            // re-issue after another backoff tick.
            retry_at_ = clock_->now() + std::max<sim_time>(policy_.backoff_us,
                                                           1000);
        }
    }

    Mem mem_;
    const memsim::memory_system* obs_src_ = obs::attribution_source(mem_);
    flow_keys<Cipher> keys_;
    path_mode mode_;
    virtual_clock* clock_;
    retry_policy policy_;
    secure_flow_stats sec_stats_;
    std::uint32_t request_isn_;
    tcp::tcp_sender<Mem> request_tx_;
    tcp::tcp_receiver<Mem> reply_rx_;
    byte_buffer layered_staging_;
    transfer_state state_;
    unsigned attempt_ = 0;
    sim_time last_progress_us_ = 0;
    sim_time retry_at_ = 0;  // nonzero while a retry backoff is pending
    client_recovery_stats recovery_;
    rpc::reply_header pending_header_;
    std::size_t pending_payload_bytes_ = 0;
    bool pending_valid_ = false;
    path_counters tx_counters_;
    path_counters rx_counters_;
    obs::registry metrics_;
};

}  // namespace ilp::app
