// Byte ring buffer backing the TCP retransmission queue.
//
// The paper's ILP send loop writes manipulated data directly into this ring
// ("TCP uses a ring buffer, to which the data is transferred during the ILP
// loop"; §3.2.2), so the ring exposes *wrap-aware reservations*: a writer
// asks for n bytes and receives at most two contiguous spans it may fill
// before committing.  Readers (segment transmission, retransmission) peek at
// arbitrary offsets from the unacknowledged front the same way.
#pragma once

#include <cstddef>
#include <span>

#include "buffer/byte_buffer.h"

namespace ilp {

// Up to two contiguous pieces of ring storage (second is empty unless the
// range wraps around the end of the backing buffer).
struct ring_span {
    std::span<std::byte> first;
    std::span<std::byte> second;

    std::size_t size() const noexcept { return first.size() + second.size(); }
};

struct const_ring_span {
    std::span<const std::byte> first;
    std::span<const std::byte> second;

    std::size_t size() const noexcept { return first.size() + second.size(); }

    // Sub-range [offset, offset+len) of the chained bytes, re-expressed as
    // a (possibly still two-piece) chain.  Pure span arithmetic — no memory
    // accesses — so a receiver can peel a header or trailer off a loaned
    // kernel segment without copying any of it.
    const_ring_span subspan(std::size_t offset, std::size_t len) const {
        const_ring_span out;
        if (offset < first.size()) {
            const std::size_t take = len < first.size() - offset
                                         ? len
                                         : first.size() - offset;
            out.first = first.subspan(offset, take);
            if (take < len) out.second = second.subspan(0, len - take);
        } else {
            out.first = second.subspan(offset - first.size(), len);
        }
        return out;
    }
};

class ring_buffer {
public:
    explicit ring_buffer(std::size_t capacity);

    std::size_t capacity() const noexcept { return storage_.size(); }
    std::size_t size() const noexcept { return size_; }
    std::size_t free_space() const noexcept {
        return capacity() - size_ - tail_reserved_;
    }
    bool empty() const noexcept { return size_ == 0; }

    // Stacked tail reservations: each call claims the next n bytes after
    // all previously reserved-but-uncommitted tail space, so several
    // segments can be reserved — and filled by a later pipeline stage —
    // before any of them is published.  Reserved space is excluded from
    // free_space(); commit_tail() publishes the oldest n reserved bytes
    // (commits are strictly FIFO, matching the in-order completion stage).
    ring_span reserve_tail(std::size_t n);
    void commit_tail(std::size_t n);

    // Copies `data` into the ring (reserve_tail + memcpy + commit_tail).
    void push(std::span<const std::byte> data);

    // Read-only view of n bytes starting `offset` bytes after the front.
    const_ring_span peek(std::size_t offset, std::size_t n) const;

    // Copies n bytes starting at `offset` into `out` (out.size() >= n).
    void copy_out(std::size_t offset, std::span<std::byte> out) const;

    // Drops n bytes from the front (acknowledged data).
    void release(std::size_t n);

    void clear();

    // Offset inside the backing storage where the next published byte
    // lands (the first tail reservation starts here).
    std::size_t write_index() const noexcept {
        return (front_ + size_) % capacity();
    }

private:
    byte_buffer storage_;
    std::size_t front_ = 0;  // index of oldest byte
    std::size_t size_ = 0;   // bytes currently stored
    std::size_t tail_reserved_ = 0;  // stacked, uncommitted tail reservations
};

}  // namespace ilp
