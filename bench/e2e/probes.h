// Layer probes: each layer's public function timed alone on the workload's
// own message shape (its rpc::layout_reply payload, cipher and wire size),
// or, for the clock and the pipes, at the occupancy the traced run measured.
// Multiplied by the traced run's call counts they estimate where the tick
// time went (the attribution table).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "analysis/gate.h"
#include "app/compose_models.h"
#include "app/secure_path.h"
#include "app/send_path.h"
#include "buffer/byte_buffer.h"
#include "checksum/internet_checksum.h"
#include "core/layered_path.h"
#include "core/stage.h"
#include "crypto/aead.h"
#include "fleet_runner.h"
#include "net/datagram.h"
#include "rpc/messages.h"
#include "stats.h"
#include "util/rng.h"
#include "util/virtual_clock.h"

namespace ilp::bench_e2e {

struct probe_results {
    double wire_bytes = 0.0;  // message size the data-path probes ran on
    // ns per message of that size.
    double fused_ns = 0.0;       // app::fill_message_ilp (secure: _secure_)
    double fused_rx_ns = 0.0;    // app::receive_reply_ilp (secure: _secure_)
    double marshal_ns = 0.0;     // core::marshal_to_buffer
    double cipher_ns = 0.0;      // core::apply_stage_in_place(encrypt stage)
    double checksum_ns = 0.0;    // core::checksum_pass
    double copy_ns = 0.0;        // core::copy_pass
    double unmarshal_ns = 0.0;   // core::unmarshal_from_buffer
    double aead_ns = 0.0;        // aead_encrypt_stage<aead_cipher>, in place
    // At the pending-timer count T and pipe occupancy Q the traced run's
    // ticks spent their time at.
    double clock_advance_ns_per_timer = 0.0;
    double clock_cancel_ns = 0.0;
    double net_deliver_ns = 0.0;  // one send + deliver_due at Q queued
    double gate_cold_us = 0.0;   // legality_gate::check, empty verdict cache
    double gate_cached_us = 0.0;
    // The fused receive handed back the payload the fused send encoded.
    bool round_trip_ok = false;
};

// Keeps probe results observable so the timed work cannot be discarded.
inline volatile std::uint64_t probe_sink = 0;

// Median over `samples` batches of ns per call; each batch runs long enough
// (at least `batch_s`) for the clock reads to vanish in it, on a fresh rig
// from `make` (a pointer to something callable), so state the calls pile up
// stays bounded.
template <typename Make>
double ns_per_call_fresh(Make&& make, double batch_s, int samples = 9) {
    const auto time_batch = [&](std::size_t batch) {
        auto rig = make();
        const wall::time_point t = wall::now();
        for (std::size_t i = 0; i < batch; ++i) (*rig)();
        return seconds_since(t);
    };
    std::size_t batch = 1;
    while (time_batch(batch) < batch_s && batch < (std::size_t{1} << 30)) {
        batch *= 2;
    }
    std::vector<double> ns;
    for (int s = 0; s < samples; ++s) {
        ns.push_back(time_batch(batch) * 1e9 / static_cast<double>(batch));
    }
    return median_of(std::move(ns));
}

template <typename F>
double ns_per_call(F&& fn, double batch_s) {
    return ns_per_call_fresh([&] { return &fn; }, batch_s);
}

namespace detail {

inline rpc::reply_header probe_header(std::size_t payload_bytes) {
    rpc::reply_header h;
    h.request_id = 7;
    h.total_bytes = static_cast<std::uint32_t>(payload_bytes);
    return h;
}

// One-shot key for a probe cipher.
template <crypto::block_cipher Cipher>
Cipher probe_cipher() {
    std::array<std::byte, engine::cipher_key_bytes<Cipher>()> key{};
    rng(0x9b0be).fill(key);
    return Cipher{std::span<const std::byte>(key)};
}

inline double clock_advance_ns_per_timer(std::size_t timers, double batch_s) {
    virtual_clock clock;
    for (std::size_t i = 0; i < timers; ++i) {
        clock.schedule_at(sim_time{1} << 62, [] {});
    }
    return ns_per_call([&] { clock.advance(1); }, batch_s) /
           static_cast<double>(timers);
}

// Cancels the newest of `timers` pending timers: the scan covers them all.
inline double clock_cancel_ns(std::size_t timers, double batch_s) {
    constexpr std::size_t burst = 64;
    virtual_clock clock;
    for (std::size_t i = 0; i < timers; ++i) {
        clock.schedule_at(sim_time{1} << 62, [] {});
    }
    std::vector<double> ns;
    std::array<std::uint64_t, burst> tokens{};
    for (int s = 0; s < 9; ++s) {
        double timed = 0.0;
        std::size_t calls = 0;
        while (timed < batch_s) {
            for (auto& t : tokens) {
                t = clock.schedule_at(sim_time{1} << 62, [] {});
            }
            const wall::time_point t0 = wall::now();
            for (auto it = tokens.rbegin(); it != tokens.rend(); ++it) {
                probe_sink = probe_sink + (clock.cancel(*it) ? 1 : 0);
            }
            timed += seconds_since(t0);
            calls += burst;
            clock.advance(0);  // drops the cancelled entries, untimed
        }
        ns.push_back(timed * 1e9 / static_cast<double>(calls));
    }
    return median_of(std::move(ns));
}

// A pipe holding `queued` packets that are not yet due.  Each call sends one
// more packet, due at once, and hands it over with deliver_due(), which
// scans the whole queue.  deliver_due() is called directly, so the clock
// scan that normally triggers it is left to the clock probe.
class pipe_rig {
public:
    pipe_rig(std::size_t queued, std::size_t packet_bytes)
        : packet_(packet_bytes, std::byte{0x5a}) {
        net::fault_config held;  // a reordered packet is held one extra us
        held.reorder_probability = 1.0;
        pipe_.configure_tag(held_tag, held);
        pipe_.set_receiver([](std::span<const std::byte> p) {
            probe_sink = probe_sink + p.size();
        });
        for (std::size_t i = 0; i < queued; ++i) {
            pipe_.send(mem_, std::span<const std::byte>(packet_), held_tag);
        }
    }
    pipe_rig(const pipe_rig&) = delete;
    pipe_rig& operator=(const pipe_rig&) = delete;

    void operator()() {
        pipe_.send(mem_, std::span<const std::byte>(packet_), due_tag);
        pipe_.deliver_due();
    }

private:
    static constexpr std::uint32_t held_tag = 1;
    static constexpr std::uint32_t due_tag = 2;
    virtual_clock clock_;
    net::datagram_pipe pipe_{clock_, 0};
    std::vector<std::byte> packet_;
    memsim::direct_memory mem_;
};

}  // namespace detail

// `secure` selects the workload's wire v3 message (AEAD cipher, trailer).
template <crypto::block_cipher Cipher>
probe_results run_probes(bool secure, std::size_t packet_wire_bytes,
                         std::size_t pending_timers, std::size_t queued,
                         double batch_s) {
    probe_results p;
    const memsim::direct_memory mem;
    const Cipher cipher = detail::probe_cipher<Cipher>();

    const std::size_t payload_bytes =
        secure ? rpc::max_payload_for_secure_wire(packet_wire_bytes)
               : rpc::max_payload_for_wire(packet_wire_bytes);
    const rpc::reply_layout layout = rpc::layout_reply(payload_bytes);
    const std::size_t body = layout.wire_bytes;
    const std::size_t wire_bytes =
        body + (secure ? rpc::secure_trailer_bytes : 0);
    p.wire_bytes = static_cast<double>(wire_bytes);

    byte_buffer payload(payload_bytes);
    rng(0x9a71).fill(payload.span());
    rpc::reply_staging staging;
    const core::gather_source src = rpc::make_reply_source(
        detail::probe_header(payload_bytes), payload.span(), staging);
    byte_buffer wire(wire_bytes);
    byte_buffer pass_buf(wire_bytes);
    byte_buffer landing(payload_bytes);

    // The fused loops: send into `wire`, then receive it back into
    // `landing`, which must end up holding the payload.
    const ring_span tx{wire.span(), {}};
    const const_ring_span rx{wire.span(), {}};
    const auto resolve = [&](const rpc::reply_header&,
                             std::size_t n) -> std::span<std::byte> {
        return n == landing.size() ? landing.span() : std::span<std::byte>{};
    };
    rpc::reply_header header;
    app::path_counters counters;
    bool received = true;
    // Only aead-capable ciphers can run the secure message.
    if constexpr (crypto::aead_capable<Cipher>) {
        if (secure) {
            crypto::keychain<Cipher> chain(0x5ec);
            p.fused_ns = ns_per_call(
                [&] {
                    probe_sink = probe_sink +
                                 app::fill_message_secure_ilp(
                                     mem, chain.current(), 0, src,
                                     layout.plan, tx);
                },
                batch_s);
            p.fused_rx_ns = ns_per_call(
                [&] {
                    received = app::receive_reply_secure_ilp(
                                   mem, chain, rx, resolve, &header, nullptr,
                                   counters)
                                   .ok &&
                               received;
                },
                batch_s);
        }
    }
    if (!secure) {
        p.fused_ns = ns_per_call(
            [&] {
                probe_sink = probe_sink + app::fill_message_ilp(
                                              mem, cipher, src, layout.plan, tx);
            },
            batch_s);
        p.fused_rx_ns = ns_per_call(
            [&] {
                received = app::receive_reply_ilp(mem, cipher, rx, resolve,
                                                  &header, counters)
                               .ok &&
                           received;
            },
            batch_s);
    }
    p.round_trip_ok =
        received && std::memcmp(landing.data(), payload.data(),
                                payload_bytes) == 0;
    p.marshal_ns = ns_per_call(
        [&] { core::marshal_to_buffer(mem, src, pass_buf.span().first(body)); },
        batch_s);
    const crypto::aead_cipher aead = detail::probe_cipher<crypto::aead_cipher>();
    const auto aead_pass = [&] {
        crypto::aead_tag_accumulator tag;
        core::aead_encrypt_stage<crypto::aead_cipher> enc(aead, tag);
        core::apply_stage_in_place(mem, enc, pass_buf.span().first(body));
        probe_sink = probe_sink + tag.fold();
    };
    p.aead_ns = ns_per_call(aead_pass, batch_s);
    if (secure) {
        p.cipher_ns = p.aead_ns;
    } else {
        p.cipher_ns = ns_per_call(
            [&] {
                core::encrypt_stage<Cipher> enc(cipher);
                core::apply_stage_in_place(mem, enc, pass_buf.span().first(body));
            },
            batch_s);
    }
    p.checksum_ns = ns_per_call(
        [&] {
            checksum::inet_accumulator acc;
            core::checksum_pass(mem, acc, wire.span(), 8);
            probe_sink = probe_sink + acc.folded();
        },
        batch_s);
    p.copy_ns = ns_per_call(
        [&] { core::copy_pass(mem, wire.span(), pass_buf.span()); }, batch_s);
    // The layered receive's unmarshal: header words, opaque length, payload
    // into the application buffer, padding dropped.
    std::array<std::byte, rpc::reply_payload_offset> header_words{};
    core::scatter_dest dst;
    dst.add(header_words, core::segment_op::xdr_words);
    if (payload_bytes > 0) dst.add(landing.span());
    if (body > rpc::reply_payload_offset + payload_bytes) {
        dst.add_discard(body - rpc::reply_payload_offset - payload_bytes);
    }
    p.unmarshal_ns = ns_per_call(
        [&] { core::unmarshal_from_buffer(mem, wire.span().first(body), dst); },
        batch_s);

    const std::size_t timers = std::max<std::size_t>(1, pending_timers);
    p.clock_advance_ns_per_timer =
        detail::clock_advance_ns_per_timer(timers, batch_s);
    p.clock_cancel_ns = detail::clock_cancel_ns(timers, batch_s);
    p.net_deliver_ns = ns_per_call_fresh(
        [&] {
            return std::make_unique<detail::pipe_rig>(queued, packet_wire_bytes);
        },
        batch_s);

    // The call the shard makes at flow setup and on every rekey, graph
    // construction included.
    app::secure_params sec;
    sec.enabled = secure;
    sec.flow_secret = 0x5ec;
    sec.rekey_interval_bytes = secure ? 64 * 1024 : 0;
    const auto check = [&](analysis::legality_gate& g) {
        probe_sink = probe_sink +
                     (g.check(app::flow_send_graph<Cipher>(
                                  sec, app::compose_tap::none, 0))
                              .legal
                          ? 1
                          : 0);
    };
    p.gate_cold_us = ns_per_call(
                         [&] {
                             analysis::legality_gate g;
                             check(g);
                         },
                         batch_s) /
                     1e3;
    analysis::legality_gate warm;
    check(warm);
    p.gate_cached_us = ns_per_call([&] { check(warm); }, batch_s) / 1e3;
    return p;
}

}  // namespace ilp::bench_e2e
