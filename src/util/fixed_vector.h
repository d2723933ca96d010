// Fixed-capacity inline vector (no heap allocation).
//
// Used on the per-packet fast path (gather/scatter segment lists, message
// part schedules) where allocation would distort both the wall-clock
// benchmarks and the simulated memory traffic.  Slots past size() are left
// uninitialised and copies move only the size() live elements: a gather
// list is sliced several times per packet, and zero-filling or copying all
// Capacity slots each time cost more than the slice itself.
#pragma once

#include <algorithm>
#include <cstddef>
#include <type_traits>

#include "util/contracts.h"

namespace ilp {

template <typename T, std::size_t Capacity>
class fixed_vector {
    // Slots are raw storage: only types that need no construction or
    // destruction to come and go may live there.
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(std::is_trivially_destructible_v<T>);

public:
    using value_type = T;

    fixed_vector() noexcept {}  // leaves the slots uninitialised

    fixed_vector(const fixed_vector& other) noexcept : size_(other.size_) {
        std::copy_n(other.items_, size_, items_);
    }

    fixed_vector& operator=(const fixed_vector& other) noexcept {
        if (this != &other) {
            size_ = other.size_;
            std::copy_n(other.items_, size_, items_);
        }
        return *this;
    }

    std::size_t size() const noexcept { return size_; }
    static constexpr std::size_t capacity() noexcept { return Capacity; }
    bool empty() const noexcept { return size_ == 0; }
    bool full() const noexcept { return size_ == Capacity; }

    void push_back(const T& value) {
        ILP_EXPECT(size_ < Capacity);
        items_[size_++] = value;
    }

    void clear() noexcept { size_ = 0; }

    T& operator[](std::size_t i) {
        ILP_EXPECT(i < size_);
        return items_[i];
    }
    const T& operator[](std::size_t i) const {
        ILP_EXPECT(i < size_);
        return items_[i];
    }

    T& back() {
        ILP_EXPECT(size_ > 0);
        return items_[size_ - 1];
    }

    T* data() noexcept { return items_; }
    const T* data() const noexcept { return items_; }

    T* begin() noexcept { return items_; }
    T* end() noexcept { return items_ + size_; }
    const T* begin() const noexcept { return items_; }
    const T* end() const noexcept { return items_ + size_; }

private:
    union {
        T items_[Capacity];
    };
    std::size_t size_ = 0;
};

}  // namespace ilp
