#include "net/datagram.h"

#include <algorithm>
#include <cstring>

#include "obs/tracer.h"

namespace ilp::net {

datagram_pipe::datagram_pipe(virtual_clock& clock, sim_time latency_us,
                             fault_config faults)
    : clock_(&clock),
      latency_us_(latency_us),
      faults_(faults),
      kernel_staging_(byte_buffer::uninitialized(max_packet_bytes)),
      deliver_buffer_(byte_buffer::uninitialized(max_packet_bytes)),
      rx_ring_(byte_buffer::uninitialized(max_packet_bytes + 512)) {
    states_.emplace_back(faults, faults.seed);
}

void datagram_pipe::configure_tag(std::uint32_t tag,
                                  const fault_config& faults) {
    ILP_EXPECT(tag != 0);
    fault_state fresh(faults, derive_seed(faults.seed, tag));
    const auto it = slot_of_.find(tag);
    if (it == slot_of_.end()) {
        slot_of_.emplace(tag, static_cast<std::uint32_t>(states_.size()));
        states_.push_back(std::move(fresh));
        return;
    }
    // A new plan restarts the tag's coin stream and its counters, but the
    // packets it already has queued are still in flight.
    fault_state& fs = states_[it->second];
    fresh.stats.in_flight = fs.stats.in_flight;
    fs = std::move(fresh);
}

std::uint32_t datagram_pipe::state_index(std::uint32_t tag) {
    if (tag == 0) return 0;
    const auto it = slot_of_.find(tag);
    if (it != slot_of_.end()) return it->second;
    // Unconfigured tag: inherit the pipe-level plan on the tag's own stream.
    const auto index = static_cast<std::uint32_t>(states_.size());
    states_.emplace_back(faults_, derive_seed(faults_.seed, tag));
    slot_of_.emplace(tag, index);
    return index;
}

const datagram_pipe::fault_state* datagram_pipe::find_state(
    std::uint32_t tag) const {
    if (tag == 0) return &states_[0];
    const auto it = slot_of_.find(tag);
    return it == slot_of_.end() ? nullptr : &states_[it->second];
}

tag_stats datagram_pipe::stats_for_tag(std::uint32_t tag) const {
    const fault_state* fs = find_state(tag);
    return fs == nullptr ? tag_stats{} : fs->stats;
}

std::size_t datagram_pipe::in_flight_for(std::uint32_t tag) const {
    const fault_state* fs = find_state(tag);
    return fs == nullptr ? 0 : fs->stats.in_flight;
}

std::vector<std::byte> datagram_pipe::take_buffer() {
    if (spare_buffers_.empty()) return {};
    std::vector<std::byte> buffer = std::move(spare_buffers_.back());
    spare_buffers_.pop_back();
    spare_bytes_ -= buffer.capacity();
    return buffer;
}

void datagram_pipe::recycle(std::vector<std::byte>& buffer) {
    if (spare_bytes_ + buffer.capacity() <= max_spare_bytes) {
        spare_bytes_ += buffer.capacity();
        spare_buffers_.push_back(std::move(buffer));
    } else {
        buffer = std::vector<std::byte>();  // a burst's surplus
    }
}

// Decides whether the packet is lost before it reaches the in-flight queue,
// applying the loss causes in plan order: scheduled outage (clock-driven,
// no RNG draw), then the Gilbert–Elliott burst state, then the independent
// Bernoulli coin.  Burst and truncation draws only happen when configured,
// so legacy fault configs replay the exact same RNG stream as before.
bool datagram_pipe::lose_packet(fault_state& fs) {
    const sim_time now = clock_->now();
    for (const outage_window& w : fs.faults.outages) {
        if (now >= w.start_us && now < w.end_us) {
            ++stats_.packets_dropped;
            ++stats_.packets_outage_dropped;
            ++fs.stats.packets_dropped;
            ILP_OBS_INSTANT("net", "drop_outage");
            return true;
        }
    }
    if (fs.faults.burst.enabled) {
        const double flip = fs.burst_bad ? fs.faults.burst.p_bad_to_good
                                         : fs.faults.burst.p_good_to_bad;
        if (fs.coin.next_bool(flip)) fs.burst_bad = !fs.burst_bad;
        const double loss =
            fs.burst_bad ? fs.faults.burst.bad_loss : fs.faults.burst.good_loss;
        if (fs.coin.next_bool(loss)) {
            ++stats_.packets_dropped;
            if (fs.burst_bad) ++stats_.packets_burst_dropped;
            ++fs.stats.packets_dropped;
            ILP_OBS_INSTANT("net", "drop_burst");
            return true;
        }
    }
    if (fs.coin.next_bool(fs.faults.drop_probability)) {
        ++stats_.packets_dropped;
        ++fs.stats.packets_dropped;
        ILP_OBS_INSTANT("net", "drop_random");
        return true;
    }
    return false;
}

void datagram_pipe::enqueue(std::size_t bytes, std::uint32_t tag,
                            bool zero_copy) {
    ILP_OBS_SPAN("net", "enqueue");
    ++stats_.packets_sent;
    ++stats_.send_crossings;
    stats_.bytes_sent += bytes;
    const std::uint32_t state = state_index(tag);
    fault_state& fs = states_[state];
    ++fs.stats.packets_sent;

    if (lose_packet(fs)) return;

    const int copies = fs.coin.next_bool(fs.faults.duplicate_probability) ? 2 : 1;
    if (copies == 2) ++stats_.packets_duplicated;

    for (int c = 0; c < copies; ++c) {
        // Fair-share cap first: a flow already holding its share of the
        // shared queue loses the packet even if the queue has room, so a
        // pathological flow cannot crowd everyone else out.
        if (tag != 0 && per_tag_queue_cap_ != 0 &&
            fs.stats.in_flight >= per_tag_queue_cap_) {
            ++stats_.packets_dropped;
            ++stats_.packets_queue_dropped;
            ++fs.stats.packets_dropped;
            ++fs.stats.packets_queue_dropped;
            ILP_OBS_INSTANT("net", "drop_queue_share");
            continue;
        }
        // Finite kernel queue: tail drop when the link is saturated.
        if (faults_.max_queue_packets != 0 &&
            queue_.size() >= faults_.max_queue_packets) {
            ++stats_.packets_dropped;
            ++stats_.packets_queue_dropped;
            ++fs.stats.packets_dropped;
            ++fs.stats.packets_queue_dropped;
            ILP_OBS_INSTANT("net", "drop_queue");
            continue;
        }
        in_flight_packet pkt;
        pkt.state = state;
        pkt.zero_copy = zero_copy;
        // Each copy gets its own buffer: a duplicate's corruption and
        // truncation must not reach the other copy.
        pkt.data = take_buffer();
        pkt.data.assign(kernel_staging_.data(), kernel_staging_.data() + bytes);
        if (fs.coin.next_bool(fs.faults.corrupt_probability)) {
            ++stats_.packets_corrupted;
            ILP_OBS_INSTANT("net", "corrupt");
            // Always draw uniformly over the whole packet, then remap the
            // victim into the targeted region: the RNG draw sequence is
            // identical whatever corrupt_span says, so switching targets
            // never perturbs the rest of the fault replay.
            std::size_t victim = fs.coin.next_below(pkt.data.size());
            const std::size_t header = std::min<std::size_t>(20, bytes);
            const std::size_t tail = std::min<std::size_t>(8, bytes);
            switch (fs.faults.corrupt_span) {
                case corrupt_target::anywhere:
                    break;
                case corrupt_target::header:
                    victim %= header;
                    ++stats_.packets_header_corrupted;
                    break;
                case corrupt_target::payload:
                    // Past the header image; tiny packets keep the full
                    // range rather than corrupting nothing.
                    if (bytes > header) {
                        victim = header + victim % (bytes - header);
                    }
                    ++stats_.packets_payload_corrupted;
                    break;
                case corrupt_target::trailer_tail:
                    victim = bytes - tail + victim % tail;
                    ++stats_.packets_tail_corrupted;
                    break;
            }
            pkt.data[victim] ^= static_cast<std::byte>(
                1u << fs.coin.next_below(8));
        }
        if (fs.faults.truncate_probability > 0 && bytes > 1 &&
            fs.coin.next_bool(fs.faults.truncate_probability)) {
            ++stats_.packets_truncated;
            pkt.data.resize(1 + fs.coin.next_below(bytes - 1));
        }
        sim_time deliver_at = clock_->now() + latency_us_;
        if (fs.coin.next_bool(fs.faults.reorder_probability)) {
            ++stats_.packets_reordered;
            // Hold the packet long enough that a later send overtakes it.
            deliver_at += 2 * latency_us_ + 1;
        }
        pkt.deliver_at = deliver_at;
        // Keeps queue_ sorted: the usual packet, due no earlier than the
        // back, is appended; one that a held packet already outlasts is
        // inserted after the packets due no later than it.
        if (queue_.empty() || queue_.back().deliver_at <= deliver_at) {
            queue_.push_back(std::move(pkt));
        } else {
            std::size_t lo = 0;
            std::size_t hi = queue_.size();
            while (lo < hi) {
                const std::size_t mid = lo + (hi - lo) / 2;
                if (queue_[mid].deliver_at <= deliver_at) {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            queue_.insert(lo, std::move(pkt));
        }
        ++fs.stats.in_flight;
        clock_->schedule_at(deliver_at, [this] { deliver_due(); });
    }
}

void datagram_pipe::deliver_due() {
    ILP_OBS_SPAN("net", "deliver");
    const sim_time now = clock_->now();
    // queue_ is sorted, so the front is the earliest due packet.
    while (!queue_.empty() && queue_.front().deliver_at <= now) {
        in_flight_packet& pkt = queue_.front();
        const std::size_t n = pkt.data.size();
        const bool loaned = on_segment_ != nullptr &&
                            (pkt.zero_copy || on_packet_ == nullptr);
        const_ring_span loan;
        if (loaned) {
            // Loaned delivery: DMA the packet into the receive ring at the
            // current write offset, splitting it across the wrap when it
            // does not fit contiguously.  The copy is physical but
            // uncounted, like the deliver-buffer staging below — the model
            // charges the receiver only for what it touches in place.
            const std::size_t cap = rx_ring_.size();
            const std::size_t at = rx_offset_;
            if (at + n <= cap) {
                std::memcpy(rx_ring_.data() + at, pkt.data.data(), n);
                loan.first = {rx_ring_.data() + at, n};
            } else {
                const std::size_t head = cap - at;
                std::memcpy(rx_ring_.data() + at, pkt.data.data(), head);
                std::memcpy(rx_ring_.data(), pkt.data.data() + head,
                            n - head);
                loan.first = {rx_ring_.data() + at, head};
                loan.second = {rx_ring_.data(), n - head};
            }
            rx_offset_ = (at + n) % cap;
        } else {
            std::memcpy(deliver_buffer_.data(), pkt.data.data(), n);
        }
        fault_state& fs = states_[pkt.state];
        ILP_EXPECT(fs.stats.in_flight > 0);
        --fs.stats.in_flight;
        ++fs.stats.packets_delivered;
        recycle(pkt.data);
        // Popped before the handler runs: a send from the handler may
        // grow the queue.
        queue_.pop_front();
        ++stats_.packets_delivered;
        ++stats_.deliver_crossings;
        if (loaned) {
            on_segment_(loan);
        } else if (on_packet_ != nullptr) {
            on_packet_(deliver_buffer_.subspan(0, n));
        }
    }
}

}  // namespace ilp::net
