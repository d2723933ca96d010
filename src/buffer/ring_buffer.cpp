#include "buffer/ring_buffer.h"

#include <cstring>

namespace ilp {

ring_buffer::ring_buffer(std::size_t capacity)
    : storage_(byte_buffer::uninitialized(capacity)) {
    ILP_EXPECT(capacity > 0);
}

ring_span ring_buffer::reserve_tail(std::size_t n) {
    ILP_EXPECT(n <= free_space());
    const std::size_t start = (front_ + size_ + tail_reserved_) % capacity();
    tail_reserved_ += n;
    const std::size_t until_end = capacity() - start;
    if (n <= until_end) {
        return {storage_.subspan(start, n), {}};
    }
    return {storage_.subspan(start, until_end),
            storage_.subspan(0, n - until_end)};
}

void ring_buffer::commit_tail(std::size_t n) {
    ILP_EXPECT(n <= tail_reserved_);
    tail_reserved_ -= n;
    size_ += n;
}

void ring_buffer::push(std::span<const std::byte> data) {
    const ring_span dst = reserve_tail(data.size());
    std::memcpy(dst.first.data(), data.data(), dst.first.size());
    if (!dst.second.empty()) {
        std::memcpy(dst.second.data(), data.data() + dst.first.size(),
                    dst.second.size());
    }
    commit_tail(data.size());
}

const_ring_span ring_buffer::peek(std::size_t offset, std::size_t n) const {
    ILP_EXPECT(offset + n <= size_);
    const std::size_t start = (front_ + offset) % capacity();
    const std::size_t until_end = capacity() - start;
    if (n <= until_end) {
        return {storage_.subspan(start, n), {}};
    }
    return {storage_.subspan(start, until_end),
            storage_.subspan(0, n - until_end)};
}

void ring_buffer::copy_out(std::size_t offset, std::span<std::byte> out) const {
    const const_ring_span src = peek(offset, out.size());
    std::memcpy(out.data(), src.first.data(), src.first.size());
    if (!src.second.empty()) {
        std::memcpy(out.data() + src.first.size(), src.second.data(),
                    src.second.size());
    }
}

void ring_buffer::release(std::size_t n) {
    ILP_EXPECT(n <= size_);
    front_ = (front_ + n) % capacity();
    size_ -= n;
}

void ring_buffer::clear() {
    front_ = 0;
    size_ = 0;
    tail_reserved_ = 0;
}

}  // namespace ilp
