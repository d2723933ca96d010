// Port demultiplexer — the kernel part's routing duty.
//
// §3.1: "On the receiving side, the kernel part demultiplexes IP packets to
// the corresponding user-level TCP connection, i.e. to the corresponding
// application.  Each TCP user-level connection receives only the packets of
// its associated application."
//
// The demux peeks at the TCP destination port (bytes 2..3 of the segment)
// without a full header parse — kernel demultiplexing is deliberately
// minimal, everything else happens in user space.  Register it as a
// datagram_pipe receiver and bind one handler per local port.
//
// Zero-copy connections receive loans (datagram_pipe's segment delivery):
// install segment_receiver() as well and bind the port's loan handler.  The
// port is then read across the loan's two pieces, so a packet straddling
// the receive ring's wrap is routed in place like any other.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "buffer/ring_buffer.h"
#include "tcp/header.h"
#include "util/contracts.h"
#include "util/endian.h"

namespace ilp::net {

class port_demux {
public:
    using handler = std::function<void(std::span<const std::byte>)>;
    using segment_handler = std::function<void(const const_ring_span&)>;

    // Binds `on_packet` to segments addressed to `port`, and `on_segment` to
    // loans addressed to it (a port without one drops loans as having no
    // listener).  A port may have at most one listener: binding an
    // already-bound port is rejected (returns false, counted) instead of
    // silently replacing the existing flow's handlers.  Restarting a
    // connection on the same port is an explicit rebind().
    [[nodiscard]] bool bind(std::uint16_t port, handler on_packet,
                            segment_handler on_segment = {}) {
        const auto [it, inserted] = handlers_.emplace(
            port, route{std::move(on_packet), std::move(on_segment)});
        if (!inserted) ++bind_conflicts_;
        return inserted;
    }

    // Replaces the handlers of a bound port (connection restart) or binds a
    // free one.
    void rebind(std::uint16_t port, handler on_packet,
                segment_handler on_segment = {}) {
        handlers_[port] = route{std::move(on_packet), std::move(on_segment)};
    }

    void unbind(std::uint16_t port) { handlers_.erase(port); }

    std::size_t bound_ports() const noexcept { return handlers_.size(); }

    // The pipe receiver: route by destination port.
    void dispatch(std::span<const std::byte> packet) {
        if (packet.size() < tcp::header_bytes) {
            ++malformed_;
            return;
        }
        route_to(load_be16(packet.data() + 2), &route::packet, packet);
    }

    // The loan receiver: the same routing, with the port's two bytes read
    // across the (possibly two-piece) chain.
    void dispatch(const const_ring_span& segment) {
        if (segment.size() < tcp::header_bytes) {
            ++malformed_;
            return;
        }
        const const_ring_span p = segment.subspan(2, 2);
        const std::byte port[2] = {p.first[0], p.first.size() == 2
                                                   ? p.first[1]
                                                   : p.second[0]};
        route_to(load_be16(port), &route::segment, segment);
    }

    // Adapters for datagram_pipe::set_receiver / set_segment_receiver.
    handler receiver() {
        return [this](std::span<const std::byte> p) { dispatch(p); };
    }
    segment_handler segment_receiver() {
        return [this](const const_ring_span& s) { dispatch(s); };
    }

    std::uint64_t dispatched() const noexcept { return dispatched_; }
    std::uint64_t no_listener_drops() const noexcept {
        return no_listener_drops_;
    }
    std::uint64_t malformed() const noexcept { return malformed_; }
    std::uint64_t bind_conflicts() const noexcept { return bind_conflicts_; }

private:
    struct route {
        handler packet;
        segment_handler segment;
    };

    // Hands `packet` to the handler `which` bound on `port`, or counts the
    // no-listener drop.
    template <typename Handler, typename Packet>
    void route_to(std::uint16_t port, Handler route::*which,
                  const Packet& packet) {
        const auto it = handlers_.find(port);
        if (it == handlers_.end() || !(it->second.*which)) {
            ++no_listener_drops_;
            return;
        }
        ++dispatched_;
        (it->second.*which)(packet);
    }

    std::map<std::uint16_t, route> handlers_;
    std::uint64_t dispatched_ = 0;
    std::uint64_t no_listener_drops_ = 0;
    std::uint64_t malformed_ = 0;
    std::uint64_t bind_conflicts_ = 0;
};

// Port-number allocator for the multi-flow engine: hands out local ports
// from a fixed range, recycles released ports (LIFO, so teardown/reopen
// churn stays in a small working set), and reports exhaustion as an explicit
// error (nullopt) instead of the silent-overwrite UB path that handing the
// same port to two flows used to be.
//
// Every operation is strictly O(1), allocation-free after construction: the
// free list is reserved for the whole range up front (release can never
// reallocate), and a per-port busy bitmap turns the releasing-a-free-port
// programmer error into an O(1) contract check instead of a list scan.
class port_allocator {
public:
    port_allocator(std::uint16_t first, std::uint16_t last)
        : first_(first), last_(last), next_(first), busy_(capacity(), 0) {
        ILP_EXPECT(first <= last);
        free_.reserve(capacity());
    }

    // Next free port, or nullopt when the range is exhausted.
    std::optional<std::uint16_t> allocate() {
        if (!free_.empty()) {
            const std::uint16_t p = free_.back();
            free_.pop_back();
            ++allocated_;
            busy_[p - first_] = 1;
            return p;
        }
        if (next_ > last_) return std::nullopt;
        ++allocated_;
        const std::uint16_t p = static_cast<std::uint16_t>(next_++);
        busy_[p - first_] = 1;
        return p;
    }

    // Returns a port to the pool.  Releasing a port that was never handed
    // out — including a double release — is a programmer error.
    void release(std::uint16_t port) {
        ILP_EXPECT(port >= first_ && port < next_);
        ILP_EXPECT(busy_[port - first_] != 0);
        ILP_EXPECT(allocated_ > 0);
        --allocated_;
        busy_[port - first_] = 0;
        free_.push_back(port);  // never reallocates: reserved to capacity()
    }

    std::size_t capacity() const noexcept {
        return static_cast<std::size_t>(last_ - first_) + 1;
    }
    std::size_t allocated() const noexcept { return allocated_; }
    // Structural O(1) witnesses for the churn microbench: the free list must
    // keep its construction-time reservation through any churn pattern.
    std::size_t free_list_capacity() const noexcept { return free_.capacity(); }
    std::size_t free_list_size() const noexcept { return free_.size(); }

private:
    std::uint16_t first_;
    std::uint16_t last_;
    std::uint32_t next_;  // wider than uint16_t so next_ > last_ can hold
    std::size_t allocated_ = 0;
    std::vector<std::uint16_t> free_;
    std::vector<std::uint8_t> busy_;  // 1 = currently handed out
};

}  // namespace ilp::net
