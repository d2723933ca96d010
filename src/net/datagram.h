// The "kernel part": an in-process datagram service.
//
// The paper's user-level TCP sits on a thin kernel component with "similar
// functionality as UDP without checksum" (§3.1): it carries TPDUs between
// the user-level TCP instances and demultiplexes arriving packets to the
// right connection.  This module reproduces that substrate in-process:
//
//   * unidirectional `datagram_pipe`s with configurable latency,
//   * deterministic fault injection (drop / duplicate / corrupt / reorder)
//     driven by a seeded RNG so failure tests are reproducible,
//   * an explicit *system copy* at each domain crossing, performed through
//     the caller's memory-access policy — the r/w pass the paper's Figures
//     3 and 5 label "system copy", and
//   * crossing counters, because the user/kernel crossing count is the
//     paper's explanation for the user-level vs kernel TCP gap (Fig. 12).
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "buffer/byte_buffer.h"
#include "buffer/ring_buffer.h"
#include "memsim/mem_policy.h"
#include "util/contracts.h"
#include "util/ring_queue.h"
#include "util/rng.h"
#include "util/virtual_clock.h"

namespace ilp::net {

// Gilbert–Elliott two-state loss model: the link alternates between a good
// and a bad state with the given transition probabilities (evaluated once
// per packet) and drops packets with a state-dependent probability.  This
// produces the *correlated* (bursty) loss real links exhibit, which
// independent Bernoulli drops cannot.
struct burst_model {
    bool enabled = false;
    double p_good_to_bad = 0.0;  // P(good -> bad) per packet
    double p_bad_to_good = 1.0;  // P(bad -> good) per packet
    double good_loss = 0.0;      // drop probability while in the good state
    double bad_loss = 1.0;       // drop probability while in the bad state
};

// A scheduled link outage: every packet sent with now() in [start_us,
// end_us) is dropped, deterministic and independent of the RNG.
struct outage_window {
    sim_time start_us = 0;
    sim_time end_us = 0;
};

// Where a corruption flip lands.  `anywhere` is the classic uniform draw;
// the targeted modes remap the same draw into a region of the packet, so a
// test can aim the bit flip at the protocol header, the payload body, or
// the trailing bytes (where the secure framing keeps its epoch+tag trailer)
// without changing the RNG draw sequence.
enum class corrupt_target : std::uint8_t {
    anywhere,
    header,        // first min(20, size) bytes — the TCP header image
    payload,       // bytes past the header region (whole packet if tiny)
    trailer_tail,  // last min(8, size) bytes — the secure trailer image
};

// A fault *plan*: the classic per-packet Bernoulli coins plus correlated
// burst loss, scheduled outages, packet truncation and a finite kernel
// queue.  Everything is driven by one seeded RNG (plus the virtual clock
// for outages), so any failure scenario replays bit-for-bit.
struct fault_config {
    double drop_probability = 0.0;
    double duplicate_probability = 0.0;
    double corrupt_probability = 0.0;
    corrupt_target corrupt_span = corrupt_target::anywhere;
    double reorder_probability = 0.0;
    // Deliver only a random proper prefix of the packet (models a partial
    // DMA / mid-frame cut; the checksum or header parse catches it).
    double truncate_probability = 0.0;
    burst_model burst{};
    std::vector<outage_window> outages{};
    // Finite kernel queue: packets arriving while `max_queue_packets` are
    // already in flight are tail-dropped.  0 means unbounded.
    std::size_t max_queue_packets = 0;
    std::uint64_t seed = 1;
};

struct pipe_stats {
    std::uint64_t packets_sent = 0;
    std::uint64_t packets_delivered = 0;
    std::uint64_t packets_dropped = 0;  // all loss causes combined
    std::uint64_t packets_duplicated = 0;
    std::uint64_t packets_corrupted = 0;
    std::uint64_t packets_reordered = 0;
    std::uint64_t bytes_sent = 0;
    // Per-cause loss breakdown (each drop increments packets_dropped plus
    // exactly one of these; plain Bernoulli drops are the remainder).
    std::uint64_t packets_burst_dropped = 0;   // Gilbert–Elliott bad state
    std::uint64_t packets_outage_dropped = 0;  // scheduled outage window
    std::uint64_t packets_queue_dropped = 0;   // finite kernel queue full
    std::uint64_t packets_truncated = 0;       // delivered, but cut short
    // Per-target corruption breakdown (each targeted flip increments
    // packets_corrupted plus exactly one of these; `anywhere` flips are the
    // remainder).
    std::uint64_t packets_header_corrupted = 0;
    std::uint64_t packets_payload_corrupted = 0;
    std::uint64_t packets_tail_corrupted = 0;
    // Domain crossings: one per send() (user -> kernel) and one per
    // delivered packet (kernel -> user handler).
    std::uint64_t send_crossings = 0;
    std::uint64_t deliver_crossings = 0;
};

// Per-tag view of the shared queue: one logical flow's share of the pipe.
// The multi-flow engine tags every send with the flow's id, so the kernel
// queue can account (and bound) each flow's occupancy and the fault plan can
// draw each flow's coins from its own RNG stream.
struct tag_stats {
    std::uint64_t packets_sent = 0;
    std::uint64_t packets_delivered = 0;
    std::uint64_t packets_dropped = 0;        // all loss causes combined
    std::uint64_t packets_queue_dropped = 0;  // shared queue / fair-share cap
    std::size_t in_flight = 0;
};

// One direction of a link.  Packets are copied into a kernel staging buffer
// through the sender's memory policy (the send-side system copy), queued
// with the configured latency, and handed to the receiver as a span of
// kernel memory (the receive-side system copy is the receiver's duty,
// matching Fig. 5 step 1).
//
// Multi-flow use: several connections share one pipe, distinguished by a
// send *tag* (0 = untagged, used by tests that drive pipes directly).  Each
// tag gets its own fault plan and RNG stream — seeded derive_seed(seed,
// tag) — so one flow's loss pattern depends only on its own packet
// sequence, never on how other flows' packets interleave on the shared
// link.  The finite kernel
// queue stays shared (faults_.max_queue_packets), with an optional per-tag
// fair-share cap so one retransmit-happy flow cannot occupy the whole queue
// and starve the rest.
//
// Per-packet cost is fixed and, in steady state, free of heap allocation:
// queued packets live in pipe-owned buffers that are recycled after
// delivery, the sorted queue is a ring that keeps its storage once grown,
// and a tag's fault state is found by hash, not by a tree walk.
class datagram_pipe {
public:
    static constexpr std::size_t max_packet_bytes = 8 * 1024;

    using handler = std::function<void(std::span<const std::byte>)>;
    // Zero-copy delivery: the packet as a loan inside the pipe's receive
    // ring — up to two spans when it straddles the ring wrap.
    using segment_handler = std::function<void(const const_ring_span&)>;

    datagram_pipe(virtual_clock& clock, sim_time latency_us,
                  fault_config faults = {});

    void set_receiver(handler on_packet) { on_packet_ = std::move(on_packet); }

    // Installs a zero-copy receiver.  Instead of staging a packet in the
    // shared deliver buffer (which the receiver must then copy into user
    // space), the pipe lends it in place inside its receive ring: the loan
    // is valid only for the duration of the call, and the receiver either
    // processes it in place or copies the bytes it needs to keep.  The DMA
    // into the ring is physical but uncounted, exactly like the
    // deliver-buffer staging it replaces — the loan removes the *counted*
    // user-space copy, not the kernel DMA.
    //
    // A packet is loaned when it was sent with send_zero_copy (the adapter
    // model is end to end) or when no span receiver is installed; every
    // other packet keeps staged span delivery.  So one pipe can carry
    // zero-copy and copying connections side by side.
    void set_segment_receiver(segment_handler on_segment) {
        on_segment_ = std::move(on_segment);
    }

    // Sends the concatenation of `parts` as one datagram.  The gather lets
    // TCP transmit a header plus (possibly wrapped) ring-buffer payload
    // without pre-flattening, like writev.  All bytes are copied into the
    // kernel staging buffer through `mem`.
    template <memsim::memory_policy Mem>
    void send(const Mem& mem,
              std::initializer_list<std::span<const std::byte>> parts,
              std::uint32_t tag = 0) {
        std::size_t total = 0;
        for (const auto part : parts) {
            ILP_EXPECT(total + part.size() <= max_packet_bytes);
            mem.copy(kernel_staging_.data() + total, part.data(), part.size());
            total += part.size();
        }
        enqueue(total, tag, false);
    }

    template <memsim::memory_policy Mem>
    void send(const Mem& mem, std::span<const std::byte> packet,
              std::uint32_t tag = 0) {
        send(mem, {packet}, tag);
    }

    // Zero-copy send: models an fbufs/zero-copy network adapter (the
    // paper's refs [12]-[15]) where the driver DMAs straight out of the
    // protocol buffer — no counted system copy, the crossing still happens.
    // §4.1: "Using more advanced systems, e.g. zero-copy network adapters
    // ... could raise the benefits from ILP further."
    void send_zero_copy(std::initializer_list<std::span<const std::byte>> parts,
                        std::uint32_t tag = 0) {
        std::size_t total = 0;
        for (const auto part : parts) {
            ILP_EXPECT(total + part.size() <= max_packet_bytes);
            if (part.empty()) continue;  // may be {nullptr, 0}: no memcpy
            std::memcpy(kernel_staging_.data() + total, part.data(),
                        part.size());
            total += part.size();
        }
        enqueue(total, tag, true);
    }

    // Installs a fault plan for one tag (tag != 0).  Without this, a tagged
    // send inherits the pipe-level plan; either way the tag's coins come
    // from its own derive_seed(seed, tag) stream.
    void configure_tag(std::uint32_t tag, const fault_config& faults);

    // Fair-share bound on the shared queue: a tagged packet arriving while
    // its tag already has `cap` packets in flight is queue-dropped even if
    // the shared queue has room.  0 disables the cap.
    void set_per_tag_queue_cap(std::size_t cap) noexcept {
        per_tag_queue_cap_ = cap;
    }

    // Delivers every packet whose latency has elapsed, earliest deliver_at
    // first and in send order among equals (called by the clock's timer
    // machinery; exposed for tests that poll manually).  Packets the
    // receiver sends on this pipe from its handler are delivered in the
    // same call once due.
    void deliver_due();

    const pipe_stats& stats() const noexcept { return stats_; }
    std::size_t in_flight() const noexcept { return queue_.size(); }
    // Per-tag accounting; zeroed stats for a tag never seen (the query
    // creates no state).
    tag_stats stats_for_tag(std::uint32_t tag) const;
    std::size_t in_flight_for(std::uint32_t tag) const;
    // Tags holding a fault state of their own: every tag sent on or
    // configured so far.
    std::size_t tags_seen() const noexcept { return slot_of_.size(); }

private:
    // Bytes of idle packet buffers kept for reuse.  A shard tick queues a
    // burst (16 flows x 32 grants of 148 B on small_secure, ~75 KiB) and
    // then drains it, so the budget must hold a whole tick's packets for
    // the next tick to allocate nothing.  A deeper burst (a fleet queueing
    // thousands of replies at once) frees its surplus as it drains, so
    // what the pipe keeps is bounded by this, not by its peak.
    static constexpr std::size_t max_spare_bytes = 256 * 1024;

    struct in_flight_packet {
        sim_time deliver_at = 0;
        // The packet's bytes, in a buffer the pipe recycles after delivery.
        std::vector<std::byte> data;
        std::uint32_t state = 0;  // index of the tag's fault_state
        bool zero_copy = false;   // sent with send_zero_copy
    };

    // Fault-plan state of one coin stream (the untagged stream or one tag's
    // stream).
    struct fault_state {
        fault_config faults;
        rng coin;
        bool burst_bad = false;  // Gilbert–Elliott state
        tag_stats stats;
        fault_state(const fault_config& f, std::uint64_t seed)
            : faults(f), coin(seed) {}
    };

    void enqueue(std::size_t bytes, std::uint32_t tag, bool zero_copy);
    // Outage / burst / Bernoulli verdict against one stream's plan.
    bool lose_packet(fault_state& fs);
    // Index of the tag's fault state, created on the tag's first send.
    std::uint32_t state_index(std::uint32_t tag);
    const fault_state* find_state(std::uint32_t tag) const;
    std::vector<std::byte> take_buffer();
    void recycle(std::vector<std::byte>& buffer);

    virtual_clock* clock_;
    sim_time latency_us_;
    fault_config faults_;
    // Dense per-stream states: [0] is the untagged stream, then one per tag
    // in the order the pipe first saw them.  slot_of_ maps a tag to its
    // index, so the table grows with the tags in use, not with their
    // values (engine tags are flow ids + 1).
    std::vector<fault_state> states_;
    std::unordered_map<std::uint32_t, std::uint32_t> slot_of_;
    std::size_t per_tag_queue_cap_ = 0;
    handler on_packet_;
    segment_handler on_segment_;
    byte_buffer kernel_staging_;  // send-side kernel buffer (system copy dst)
    byte_buffer deliver_buffer_;  // receive-side kernel buffer (DMA target)
    // Receive ring for loaned deliveries: sized a little past the largest
    // packet so the write offset wraps at varying positions and loans
    // regularly straddle the wrap (exercising the two-span chain path).
    byte_buffer rx_ring_;
    std::size_t rx_offset_ = 0;
    // Invariant: sorted by (deliver_at, send order).  deliver_due() pops
    // due packets off the front; enqueue() inserts after the last packet
    // due no later than the new one, which for a packet no held one
    // outlasts is the back.  Each enqueued packet also holds one clock
    // timer, so pipes sharing a clock interleave their deliveries in the
    // clock's (deadline, token) order.
    ring_queue<in_flight_packet> queue_;
    std::vector<std::vector<std::byte>> spare_buffers_;
    std::size_t spare_bytes_ = 0;  // total capacity of spare_buffers_
    pipe_stats stats_;
};

// A bidirectional link: data direction plus the reverse path the
// acknowledgement packets use.
class duplex_link {
public:
    duplex_link(virtual_clock& clock, sim_time latency_us,
                fault_config forward_faults = {},
                fault_config reverse_faults = {})
        : forward_(clock, latency_us, forward_faults),
          reverse_(clock, latency_us, reverse_faults) {}

    datagram_pipe& forward() noexcept { return forward_; }
    datagram_pipe& reverse() noexcept { return reverse_; }

private:
    datagram_pipe forward_;
    datagram_pipe reverse_;
};

}  // namespace ilp::net
