// User-level TCP: unidirectional bulk-data connections over the datagram
// substrate.
//
// This reproduces the paper's specialised user-level TCP (§3.1):
//   * fixed 20-byte headers (no options),
//   * unidirectional data transfer per connection (ACKs flow back through
//     the reverse pipe),
//   * ALF: one TSDU maps to exactly one TPDU, so message boundaries survive
//     and the receive path never reassembles,
//   * a ring retransmission buffer the send-side ILP loop writes into
//     directly (§3.2.2),
//   * go-back-N retransmission on a fixed RTO over the virtual clock.
//
// The data manipulations themselves are *not* in this module: tcp_sender
// accepts a payload filler (the application's ILP or layered send path) and
// tcp_receiver hands the payload to a message processor (the application's
// receive path) between the initial and final processing stages — the
// paper's three-stage decomposition (§2.1), written out in
// tcp_receiver::input_staged.
//
// Everything is templated on the memory-access policy, so the same engine
// runs natively (direct_memory) for wall-clock benchmarks and instrumented
// (sim_memory) under the cache simulator.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <utility>

#include "buffer/ring_buffer.h"
#include "checksum/internet_checksum.h"
#include "memsim/mem_policy.h"
#include "net/datagram.h"
#include "obs/tracer.h"
#include "tcp/header.h"
#include "util/contracts.h"
#include "util/ring_queue.h"
#include "util/virtual_clock.h"

namespace ilp::tcp {

// 32-bit sequence-space comparisons (wraparound-safe).  These are a strict
// weak ordering only for sequence numbers less than 2^31 apart — at a
// distance of exactly 2^31 both seq_lt(a, b) and seq_lt(b, a) hold.  The
// sender's uses are all window-bounded, so it never sees that distance;
// receiver-side duplicate/future classification uses seq_behind instead.
constexpr bool seq_lt(std::uint32_t a, std::uint32_t b) noexcept {
    return static_cast<std::int32_t>(a - b) < 0;
}
constexpr bool seq_leq(std::uint32_t a, std::uint32_t b) noexcept {
    return static_cast<std::int32_t>(a - b) <= 0;
}

// True iff `a` is strictly behind `b` by less than half the sequence space —
// the receiver's "stale duplicate" test.  Unlike seq_lt this gives a single
// coherent verdict at the 2^31 boundary: a segment exactly 2^31 away from
// rcv_nxt is classified as future data (out of order), never as a
// duplicate, so recovery_report's drop accounting cannot double-classify.
constexpr bool seq_behind(std::uint32_t a, std::uint32_t b) noexcept {
    return (b - a) - 1u < 0x7fffffffu;
}

struct connection_config {
    std::uint32_t local_addr = 0x0a000001;   // 10.0.0.1
    std::uint32_t remote_addr = 0x0a000002;  // 10.0.0.2
    std::uint16_t local_port = 5001;
    std::uint16_t remote_port = 5002;
    std::uint32_t initial_seq = 0;
    std::size_t send_buffer_bytes = 16 * 1024;  // retransmission ring
    std::size_t recv_window_bytes = 16 * 1024;  // advertised window
    sim_time rto_us = 200'000;  // fixed RTO, and the initial adaptive RTO
    unsigned max_retries = 8;

    // Adaptive retransmission timing (Jacobson's algorithm with Karn's
    // rule, RFC 6298): RTO = SRTT + 4*RTTVAR, exponentially backed off on
    // timeout.  Off by default so simulation experiments stay on the
    // paper's fixed-timer behaviour.
    bool adaptive_rto = false;
    sim_time min_rto_us = 2'000;
    sim_time max_rto_us = 10'000'000;

    // Zero-copy adapter model (paper refs [12]-[15]): the system copy at
    // the domain boundary disappears (fbufs / page remapping); crossings
    // and all protocol processing remain.
    bool zero_copy = false;

    // Flow tag stamped on every packet this connection emits (data,
    // retransmissions, control segments, ACKs).  The multi-flow engine sets
    // it to the flow id + 1 so the shared datagram pipes can account each
    // flow's queue share and draw its fault coins from a per-flow stream; 0
    // (the default) is the pipes' untagged stream, for connections driven
    // over bare pipes.
    std::uint32_t net_tag = 0;
};

// The peer's view of the same connection (swapped addresses and ports);
// hand the same base config to both ends and mirror one of them.
inline connection_config mirrored(const connection_config& c) {
    connection_config m = c;
    std::swap(m.local_addr, m.remote_addr);
    std::swap(m.local_port, m.remote_port);
    return m;
}

struct sender_stats {
    std::uint64_t messages_sent = 0;
    std::uint64_t segments_transmitted = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t acks_received = 0;
    std::uint64_t bad_acks = 0;  // checksum/parse failures on ACK packets
    std::uint64_t send_blocked = 0;  // reservation refused: no buffer/window
    std::uint64_t rsts_sent = 0;      // give-up notifications to the peer
    std::uint64_t window_probes = 0;  // zero-window persist probes
    std::uint64_t resets = 0;         // reset() calls (re-establishments)
};

struct receiver_stats {
    std::uint64_t segments_received = 0;
    std::uint64_t messages_accepted = 0;
    std::uint64_t checksum_failures = 0;
    std::uint64_t app_reject_failures = 0;
    std::uint64_t out_of_order_drops = 0;
    std::uint64_t duplicate_drops = 0;
    std::uint64_t header_failures = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t rsts_received = 0;  // peer gave up on this connection
    // RST-flagged segments rejected: carrying payload or failing checksum.
    // Distinct from header_failures so a corrupted data segment whose
    // header happens to show the RST bit is visible as a *suspect reset*,
    // not lumped in with garbled headers (and it never tears the
    // connection down).
    std::uint64_t bad_rsts = 0;
    std::uint64_t resets = 0;         // reset() calls (re-establishments)
};

// ---------------------------------------------------------------------------
// Sender

template <memsim::memory_policy Mem>
class tcp_sender {
public:
    tcp_sender(const Mem& mem, virtual_clock& clock, net::datagram_pipe& out,
               const connection_config& config)
        : mem_(mem),
          clock_(&clock),
          out_(&out),
          config_(config),
          ring_(config.send_buffer_bytes),
          snd_una_(config.initial_seq),
          snd_nxt_(config.initial_seq),
          peer_window_(config.recv_window_bytes) {}

    tcp_sender(const tcp_sender&) = delete;
    tcp_sender& operator=(const tcp_sender&) = delete;

    // Space the next message may occupy right now (paper §3.2.2: when the
    // retransmission buffer is full of unacknowledged data, all data
    // manipulations are delayed until space is available again).  Reserved-
    // but-uncommitted pipeline segments count against both the ring (via
    // free_space) and the peer window, so a pipelined reservation fails in
    // exactly the states where the serial send would have been blocked.
    std::size_t sendable_bytes() const noexcept {
        const std::size_t in_flight = (snd_nxt_ - snd_una_) + pending_bytes_;
        const std::size_t window_left =
            peer_window_ > in_flight ? peer_window_ - in_flight : 0;
        return std::min(ring_.free_space(), window_left);
    }

    // Sends one application message as exactly one TPDU (ALF):
    // reserve_segment → fill → commit_segment.  `fill` receives the ring
    // reservation and writes `wire_len` payload bytes into it through this
    // connection's memory policy; it returns the folded payload checksum if
    // the data path accumulated one (the ILP loop), or nullopt to request
    // the separate tcp_output checksum pass (the non-ILP path).  Returns
    // false — without running `fill` — when buffer or peer window space is
    // insufficient.
    template <typename Filler>
    bool send_message(std::size_t wire_len, Filler&& fill) {
        const std::optional<pending_segment> p = reserve_segment(wire_len);
        if (!p.has_value()) return false;
        commit_segment(*p, fill(p->dst));
        return true;
    }

    // Every send is split in two so the fused data-manipulation loop can run
    // between the halves — inline for a serial send, or as its own pipeline
    // stage (pipeline/stage_runner.h): segmentize reserves ring and window
    // space for the segment (at the sequence number it will hold once every
    // earlier reservation commits), the fill writes `dst`, and the
    // completion stage commits strictly in FIFO order — publishing the
    // bytes, queueing the retransmission metadata and transmitting.

    struct pending_segment {
        std::uint32_t seq = 0;
        std::size_t len = 0;
        ring_span dst;
    };

    // Fails (nullopt, counted as send_blocked) when the ring or the peer
    // window has no room; outstanding reservations count against both.
    std::optional<pending_segment> reserve_segment(std::size_t wire_len) {
        ILP_EXPECT(wire_len > 0);
        ILP_EXPECT(wire_len + header_bytes <=
                   net::datagram_pipe::max_packet_bytes);
        if (wire_len > sendable_bytes()) {
            ++stats_.send_blocked;
            return std::nullopt;
        }
        ILP_OBS_SPAN("tcp", "segmentize");
        pending_segment p;
        p.seq = snd_nxt_ + static_cast<std::uint32_t>(pending_bytes_);
        p.len = wire_len;
        p.dst = ring_.reserve_tail(wire_len);
        pending_bytes_ += wire_len;
        return p;
    }

    // FIFO-only: `p` must be the oldest outstanding reservation.  A nullopt
    // sum runs tcp_output's own checksum pass over the committed bytes (the
    // non-ILP step 4).
    void commit_segment(const pending_segment& p,
                        std::optional<std::uint16_t> payload_sum) {
        ILP_EXPECT(p.seq == snd_nxt_);
        ILP_EXPECT(pending_bytes_ >= p.len);
        ring_.commit_tail(p.len);
        pending_bytes_ -= p.len;
        segment_meta meta;
        meta.seq = p.seq;
        meta.len = p.len;
        if (payload_sum.has_value()) {
            meta.payload_sum = *payload_sum;
        } else {
            ILP_OBS_SPAN("tcp", "checksum");
            meta.payload_sum = checksum_over_ring(snd_nxt_ - snd_una_, p.len);
        }
        meta.first_sent_at = clock_->now();
        unacked_.push_back(meta);
        snd_nxt_ += static_cast<std::uint32_t>(p.len);
        ++stats_.messages_sent;
        transmit(meta);
        arm_rto();
    }

    std::size_t pending_reserved_bytes() const noexcept {
        return pending_bytes_;
    }

    // Handles an arriving ACK packet (kernel memory span from the reverse
    // pipe).  Performs the receive-side system copy of the ACK — in a
    // user-level TCP even pure ACKs cross the kernel/user boundary, the
    // overhead the paper singles out in §4.1.
    void on_ack_packet(std::span<const std::byte> kernel_packet) {
        ILP_OBS_SPAN("tcp", "ack_input");
        if (kernel_packet.size() < header_bytes) {
            ++stats_.bad_acks;
            return;
        }
        mem_.copy(ack_buffer_, kernel_packet.data(), header_bytes);
        header_fields h;
        if (!parse_header({ack_buffer_, header_bytes}, h) ||
            h.dst_port != config_.local_port ||
            h.src_port != config_.remote_port ||
            (h.control & flags::ack) == 0 ||
            !verify_segment_checksum(config_.remote_addr, config_.local_addr,
                                     {ack_buffer_, header_bytes}, 0, 0)) {
            ++stats_.bad_acks;
            return;
        }
        ++stats_.acks_received;
        peer_window_ = h.window;
        if (peer_window_ == 0) {
            // Zero-window: without a persist probe nothing would ever
            // elicit the reopening ACK and the sender would wedge forever.
            arm_persist();
        } else {
            persist_shift_ = 0;
            disarm_persist();
        }
        if (seq_leq(h.ack, snd_una_)) return;  // duplicate ACK
        if (!seq_leq(h.ack, snd_nxt_)) {
            // ACK for data never sent: a corrupted packet whose 16-bit
            // checksum collides, or a forgery.  Untrusted input must never
            // abort the process — count it and drop.
            ++stats_.bad_acks;
            return;
        }
        // Release fully acknowledged segments (ALF: ACKs fall on segment
        // boundaries because the receiver accepts whole TPDUs only).
        while (!unacked_.empty() &&
               seq_leq(unacked_.front().seq +
                           static_cast<std::uint32_t>(unacked_.front().len),
                       h.ack)) {
            const segment_meta& acked = unacked_.front();
            if (!acked.retransmitted) {
                // Karn's rule: only unambiguous (never-retransmitted)
                // segments contribute RTT samples.
                record_rtt_sample(clock_->now() - acked.first_sent_at);
            }
            ring_.release(acked.len);
            snd_una_ += static_cast<std::uint32_t>(acked.len);
            unacked_.pop_front();
        }
        retries_ = 0;
        backoff_shift_ = 0;
        disarm_rto();
        if (!unacked_.empty()) arm_rto();
    }

    // Rewinds the connection to a fresh sequence state so it can be
    // re-established after a failure (or to resynchronise with a peer that
    // reset).  Outstanding data is discarded — the layer above owns
    // recovery of anything that was never acknowledged.
    void reset(std::uint32_t isn) {
        disarm_rto();
        disarm_persist();
        unacked_.clear();
        ring_.clear();  // also drops any uncommitted tail reservations
        pending_bytes_ = 0;
        snd_una_ = snd_nxt_ = isn;
        retries_ = 0;
        backoff_shift_ = 0;
        persist_shift_ = 0;
        failed_ = false;
        peer_window_ = config_.recv_window_bytes;
        ++stats_.resets;
    }

    // Disarms the RTO and persist timers without touching stream state or
    // stats.  Must run before destroying a sender whose clock outlives it:
    // an armed timer callback captures `this`.
    void quiesce() {
        disarm_rto();
        disarm_persist();
    }

    bool idle() const noexcept { return unacked_.empty(); }
    // Smoothed RTT estimate in microseconds (0 until the first sample).
    double smoothed_rtt_us() const noexcept { return have_rtt_ ? srtt_us_ : 0; }
    sim_time effective_rto_us() const noexcept { return current_rto(); }
    bool failed() const noexcept { return failed_; }
    std::uint32_t next_seq() const noexcept { return snd_nxt_; }
    const sender_stats& stats() const noexcept { return stats_; }
    const ring_buffer& ring() const noexcept { return ring_; }

    // Attribution identity for spans opened from this connection's timers
    // (RTO, persist), which fire from clock.advance() outside any
    // endpoint-scoped attribution.
    void set_attribution(const char* side,
                         const memsim::memory_system* source) noexcept {
        obs_side_ = side;
        obs_src_ = source;
    }

private:
    // Fields ordered so the record packs into 24 bytes.
    struct segment_meta {
        std::uint32_t seq = 0;
        std::uint16_t payload_sum = 0;  // folded payload checksum
        bool retransmitted = false;  // Karn's rule: no RTT sample then
        std::size_t len = 0;
        sim_time first_sent_at = 0;
    };

    std::uint16_t checksum_over_ring(std::size_t offset, std::size_t len) {
        checksum::inet_accumulator acc;
        const const_ring_span view = ring_.peek(offset, len);
        acc.add_bytes(mem_, view.first, 8);
        if (!view.second.empty()) acc.add_bytes(mem_, view.second, 8);
        return acc.folded();
    }

    // tcp_output: header build, checksum completion, system copy to the
    // kernel part.
    void transmit(const segment_meta& meta) {
        ILP_OBS_SPAN("tcp", "output");
        header_fields h;
        h.src_port = config_.local_port;
        h.dst_port = config_.remote_port;
        h.seq = meta.seq;
        h.control = flags::psh;
        h.window = 0;  // no reverse data flow on this connection
        serialize_header(h, {header_buffer_, header_bytes});
        const std::uint16_t cksum = finish_segment_checksum(
            config_.local_addr, config_.remote_addr,
            {header_buffer_, header_bytes}, meta.payload_sum, meta.len);
        store_be16(header_buffer_ + 16, cksum);

        const const_ring_span payload =
            ring_.peek(meta.seq - snd_una_, meta.len);
        const std::span<const std::byte> header_span{header_buffer_,
                                                     header_bytes};
        if (config_.zero_copy) {
            out_->send_zero_copy({header_span, payload.first, payload.second},
                                 config_.net_tag);
        } else {
            out_->send(mem_, {header_span, payload.first, payload.second},
                       config_.net_tag);
        }
        ++stats_.segments_transmitted;
    }

    void arm_rto() {
        if (rto_token_ != 0 || unacked_.empty() || failed_) return;
        rto_token_ = clock_->schedule_after(current_rto(), [this] {
            ILP_OBS_ATTR(obs_side_, obs_src_);
            rto_token_ = 0;
            on_rto();
        });
    }

    // Jacobson's algorithm (RFC 6298): SRTT/RTTVAR smoothing with
    // alpha = 1/8, beta = 1/4.
    void record_rtt_sample(sim_time sample_us) {
        if (!have_rtt_) {
            srtt_us_ = static_cast<double>(sample_us);
            rttvar_us_ = static_cast<double>(sample_us) / 2.0;
            have_rtt_ = true;
            return;
        }
        const double err = static_cast<double>(sample_us) - srtt_us_;
        rttvar_us_ += ((err < 0 ? -err : err) - rttvar_us_) / 4.0;
        srtt_us_ += err / 8.0;
    }

    sim_time current_rto() const {
        if (!config_.adaptive_rto) return config_.rto_us;
        sim_time base = have_rtt_
                            ? static_cast<sim_time>(srtt_us_ + 4.0 * rttvar_us_)
                            : config_.rto_us;
        if (base < config_.min_rto_us) base = config_.min_rto_us;
        // Exponential backoff while retransmitting.
        for (unsigned i = 0; i < backoff_shift_ && base < config_.max_rto_us;
             ++i) {
            base *= 2;
        }
        return base > config_.max_rto_us ? config_.max_rto_us : base;
    }

    void disarm_rto() {
        if (rto_token_ != 0) {
            clock_->cancel(rto_token_);
            rto_token_ = 0;
        }
    }

    // Header-only control segment (RST on give-up, zero-window probes).
    void transmit_control(std::uint8_t control, std::uint32_t seq) {
        header_fields h;
        h.src_port = config_.local_port;
        h.dst_port = config_.remote_port;
        h.seq = seq;
        h.control = control;
        h.window = 0;
        serialize_header(h, {header_buffer_, header_bytes});
        const std::uint16_t cksum = finish_segment_checksum(
            config_.local_addr, config_.remote_addr,
            {header_buffer_, header_bytes}, 0, 0);
        store_be16(header_buffer_ + 16, cksum);
        const std::span<const std::byte> header_span{header_buffer_,
                                                     header_bytes};
        if (config_.zero_copy) {
            out_->send_zero_copy({header_span}, config_.net_tag);
        } else {
            out_->send(mem_, {header_span}, config_.net_tag);
        }
    }

    void arm_persist() {
        if (persist_token_ != 0 || failed_) return;
        sim_time interval = current_rto();
        for (unsigned i = 0; i < persist_shift_ && interval < config_.max_rto_us;
             ++i) {
            interval *= 2;
        }
        if (interval > config_.max_rto_us) interval = config_.max_rto_us;
        persist_token_ = clock_->schedule_after(interval, [this] {
            ILP_OBS_ATTR(obs_side_, obs_src_);
            persist_token_ = 0;
            on_persist();
        });
    }

    void disarm_persist() {
        if (persist_token_ != 0) {
            clock_->cancel(persist_token_);
            persist_token_ = 0;
        }
    }

    void on_persist() {
        if (failed_ || peer_window_ != 0) return;
        ILP_OBS_SPAN("tcp", "persist");
        // A zero-payload segment at snd_nxt elicits a pure ACK carrying the
        // peer's current window (the classic persist-timer probe).
        transmit_control(flags::psh, snd_nxt_);
        ++stats_.window_probes;
        if (persist_shift_ < 6) ++persist_shift_;
        arm_persist();
    }

    void on_rto() {
        if (unacked_.empty()) return;
        ILP_OBS_SPAN("tcp", "retransmit");
        if (++retries_ > config_.max_retries) {
            // Give up — and say so: an RST tells the peer this end stopped
            // retransmitting, instead of leaving it waiting forever.
            failed_ = true;
            ILP_OBS_INSTANT("tcp", "rst_sent");
            transmit_control(flags::rst, snd_una_);
            ++stats_.rsts_sent;
            return;
        }
        // Go-back-N: retransmit everything outstanding, with timer backoff.
        if (backoff_shift_ < 16) ++backoff_shift_;
        for (std::size_t i = 0; i < unacked_.size(); ++i) {
            segment_meta& meta = unacked_[i];
            meta.retransmitted = true;
            transmit(meta);
            ++stats_.retransmissions;
        }
        arm_rto();
    }

    Mem mem_;
    virtual_clock* clock_;
    net::datagram_pipe* out_;
    connection_config config_;
    ring_buffer ring_;
    ring_queue<segment_meta> unacked_;
    std::uint32_t snd_una_;
    std::uint32_t snd_nxt_;
    std::size_t pending_bytes_ = 0;  // reserved-but-uncommitted segments
    std::size_t peer_window_;
    std::uint64_t rto_token_ = 0;
    std::uint64_t persist_token_ = 0;
    unsigned retries_ = 0;
    unsigned backoff_shift_ = 0;
    unsigned persist_shift_ = 0;
    bool have_rtt_ = false;
    double srtt_us_ = 0;
    double rttvar_us_ = 0;
    bool failed_ = false;
    const char* obs_side_ = nullptr;
    const memsim::memory_system* obs_src_ = nullptr;
    sender_stats stats_;
    alignas(8) std::byte header_buffer_[header_bytes] = {};
    alignas(8) std::byte ack_buffer_[header_bytes] = {};
};

// ---------------------------------------------------------------------------
// Receiver

// Result of the application's receive-side data manipulation over one
// payload: the folded payload checksum its loop (or pass) accumulated, plus
// whether the application-level decode succeeded.
struct rx_process_result {
    std::uint16_t payload_sum = 0;
    bool ok = false;
};

template <memsim::memory_policy Mem>
class tcp_receiver {
public:
    // `process` is the application data path: it runs over the payload in
    // the receive buffer *before* TCP control commits anything (the paper
    // places data manipulations directly after the system copy, §3.2.3).
    // The span is mutable because the non-ILP path decrypts the receive
    // buffer in place (Fig. 5 step 3).  `on_accept` fires in the final
    // stage for every delivered message.
    using processor =
        std::function<rx_process_result(std::span<std::byte> payload)>;
    // Zero-copy data path: the payload as a loaned kernel-segment chain (up
    // to two spans around the receive-ring wrap), processed in place.  Only
    // read-only paths (the fused ILP receive loop) can run this way; the
    // layered path decrypts in place and needs the mutable staging copy.
    using chain_processor =
        std::function<rx_process_result(const const_ring_span& payload)>;
    using accept_handler = std::function<void(std::size_t payload_len)>;
    // Fires when a checksum-valid RST arrives: the peer's sender exhausted
    // its retries and abandoned the connection.
    using failure_handler = std::function<void()>;

    tcp_receiver(const Mem& mem, virtual_clock& clock,
                 net::datagram_pipe& ack_out, const connection_config& config)
        : mem_(mem),
          clock_(&clock),
          ack_out_(&ack_out),
          config_(config),
          recv_buffer_(byte_buffer::uninitialized(
              net::datagram_pipe::max_packet_bytes)),
          rcv_nxt_(config.initial_seq) {}

    tcp_receiver(const tcp_receiver&) = delete;
    tcp_receiver& operator=(const tcp_receiver&) = delete;

    void set_processor(processor process) { process_ = std::move(process); }
    void set_chain_processor(chain_processor process) {
        chain_process_ = std::move(process);
    }
    void set_accept_handler(accept_handler h) { on_accept_ = std::move(h); }
    void set_failure_handler(failure_handler h) { on_failure_ = std::move(h); }

    // True once a peer RST has been seen and not yet cleared by reset().
    bool peer_failed() const noexcept { return peer_failed_; }

    // Rewinds the expected sequence number so the connection can be
    // re-established after a failure; clears the peer-failed latch.
    void reset(std::uint32_t isn) {
        rcv_nxt_ = isn;
        peer_failed_ = false;
        ++stats_.resets;
    }

    // tcp_input: one arriving TPDU in kernel memory.
    void on_packet(std::span<const std::byte> kernel_packet) {
        ILP_OBS_SPAN("tcp", "input");
        ++stats_.segments_received;

        // --- system copy (Fig. 5 step 1): kernel buffer -> receive buffer.
        // Always performed through the memory policy: what the model counts
        // is what the code does.  The zero-copy mode eliminates this copy
        // for real — the pipe lends the packet in place and delivery goes
        // through on_segment — instead of doing it off the books.
        if (kernel_packet.size() < header_bytes ||
            kernel_packet.size() > recv_buffer_.size()) {
            ++stats_.header_failures;
            return;
        }
        mem_.copy(recv_buffer_.data(), kernel_packet.data(),
                  kernel_packet.size());
        const std::size_t payload_len = kernel_packet.size() - header_bytes;

        input_staged(payload_len, [&](std::size_t len) {
            ILP_EXPECT(process_ != nullptr);
            return process_(recv_buffer_.subspan(header_bytes, len));
        });
    }

    // tcp_input, zero-copy form: the arriving TPDU is a loan inside the
    // kernel receive ring (up to two spans around the wrap).  Only the
    // 20-byte header is staged through the memory policy — TCP must parse
    // and verify it, so those touches are real and counted.  The payload is
    // handed to the chain processor in place (the fused ILP loop reads it
    // exactly once, straight out of kernel memory); without one — the
    // layered path needs contiguous mutable memory to decrypt in place —
    // it is pulled into the receive buffer through the memory policy, an
    // honestly counted copy.
    void on_segment(const const_ring_span& kernel_segment) {
        ILP_OBS_SPAN("tcp", "input");
        ++stats_.segments_received;

        const std::size_t n = kernel_segment.size();
        if (n < header_bytes || n > recv_buffer_.size()) {
            ++stats_.header_failures;
            return;
        }
        copy_chain(kernel_segment.subspan(0, header_bytes),
                   recv_buffer_.data());
        const std::size_t payload_len = n - header_bytes;

        input_staged(payload_len, [&](std::size_t len) {
            const const_ring_span payload =
                kernel_segment.subspan(header_bytes, len);
            if (chain_process_ != nullptr) return chain_process_(payload);
            ILP_EXPECT(process_ != nullptr);
            copy_chain(payload, recv_buffer_.data() + header_bytes);
            return process_(recv_buffer_.subspan(header_bytes, len));
        });
    }

    std::uint32_t expected_seq() const noexcept { return rcv_nxt_; }
    const receiver_stats& stats() const noexcept { return stats_; }

private:
    // Common control path once the header image sits at the front of the
    // receive buffer: parse + demultiplex + sequence check, then the
    // application data manipulations via `run_process(payload_len)`, then
    // the final accept/reject stage.
    template <typename ProcessFn>
    void input_staged(std::size_t payload_len, ProcessFn&& run_process) {
        // --- initial stage: parse + demultiplex + sequence check.
        header_fields h;
        if (!parse_header(recv_buffer_.subspan(0, header_bytes), h) ||
            h.dst_port != config_.local_port ||
            h.src_port != config_.remote_port) {
            ++stats_.header_failures;
            return;
        }
        if ((h.control & flags::rst) != 0) {
            // Failure signal from the peer's sender.  Sequence numbers are
            // deliberately not checked — the whole point of the RST is to
            // reach a peer whose sequence state may have diverged — but the
            // checksum must verify, and a genuine RST never carries
            // payload: a corrupted data segment whose header happens to
            // show the RST bit must not tear the connection down.
            if (payload_len == 0 &&
                verify_segment_checksum(config_.remote_addr,
                                        config_.local_addr,
                                        recv_buffer_.subspan(0, header_bytes),
                                        0, 0)) {
                ++stats_.rsts_received;
                ILP_OBS_INSTANT("tcp", "rst_received");
                peer_failed_ = true;
                if (on_failure_ != nullptr) on_failure_();
            } else {
                ++stats_.bad_rsts;
            }
            return;
        }
        if (h.seq != rcv_nxt_) {
            // Old duplicate or future segment (go-back-N: not buffered).
            if (seq_behind(h.seq, rcv_nxt_)) {
                ++stats_.duplicate_drops;
            } else {
                ++stats_.out_of_order_drops;
            }
            send_ack();  // re-advertise rcv_nxt so the sender resynchronises
            return;
        }
        if (payload_len == 0) {
            // Zero-window persist probe (or bare control segment): answer
            // with a pure ACK so the sender learns the current window.
            send_ack();
            return;
        }

        // --- ILP loop stage: the application's data manipulations run over
        // the payload now, before any TCP state is committed.
        const rx_process_result result = run_process(payload_len);

        // --- final stage: accept or reject.
        const bool checksum_ok = verify_segment_checksum(
            config_.remote_addr, config_.local_addr,
            recv_buffer_.subspan(0, header_bytes), result.payload_sum,
            payload_len);
        if (!checksum_ok) {
            ++stats_.checksum_failures;
            send_ack();
            return;
        }
        if (!result.ok) {
            // Data passed the checksum but failed application decode; the
            // message is consumed (it was correctly transferred) but counted
            // as an application-level failure.
            ++stats_.app_reject_failures;
        }
        rcv_nxt_ += static_cast<std::uint32_t>(payload_len);
        ++stats_.messages_accepted;
        send_ack();
        if (result.ok && on_accept_ != nullptr) on_accept_(payload_len);
    }

    // Counted copy of a (possibly two-piece) loan into contiguous memory.
    void copy_chain(const const_ring_span& src, std::byte* dst) {
        mem_.copy(dst, src.first.data(), src.first.size());
        if (!src.second.empty()) {
            mem_.copy(dst + src.first.size(), src.second.data(),
                      src.second.size());
        }
    }

    void send_ack() {
        ILP_OBS_SPAN("tcp", "ack_output");
        header_fields h;
        h.src_port = config_.local_port;
        h.dst_port = config_.remote_port;
        h.ack = rcv_nxt_;
        h.control = flags::ack;
        h.window = static_cast<std::uint16_t>(
            std::min<std::size_t>(config_.recv_window_bytes, 0xffff));
        serialize_header(h, {ack_buffer_, header_bytes});
        const std::uint16_t cksum = finish_segment_checksum(
            config_.local_addr, config_.remote_addr, {ack_buffer_, header_bytes},
            0, 0);
        store_be16(ack_buffer_ + 16, cksum);
        ack_out_->send(mem_,
                       {std::span<const std::byte>{ack_buffer_, header_bytes}},
                       config_.net_tag);
        ++stats_.acks_sent;
    }

    Mem mem_;
    virtual_clock* clock_;
    net::datagram_pipe* ack_out_;
    connection_config config_;
    byte_buffer recv_buffer_;
    std::uint32_t rcv_nxt_;
    processor process_;
    chain_processor chain_process_;
    accept_handler on_accept_;
    failure_handler on_failure_;
    bool peer_failed_ = false;
    receiver_stats stats_;
    alignas(8) std::byte ack_buffer_[header_bytes] = {};
};

}  // namespace ilp::tcp
