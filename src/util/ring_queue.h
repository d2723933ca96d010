// Growable circular queue over one block of storage.
//
// std::deque allocates and frees a block every few dozen elements as its
// front and back advance, so a queue that is pushed and popped once per
// packet calls malloc in steady state.  ring_queue keeps its elements in
// one power-of-two array and allocates only when it outgrows that array
// (doubling), so once it has reached its peak occupancy it never allocates
// again.  Popped elements stay in their slot until a push overwrites them;
// move a resource out of the front before popping it if it should go
// elsewhere.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/contracts.h"

namespace ilp {

template <typename T>
class ring_queue {
public:
    ring_queue() = default;

    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }
    std::size_t capacity() const noexcept { return slots_.size(); }

    // Element i in queue order (0 is the front).
    T& operator[](std::size_t i) {
        ILP_EXPECT(i < size_);
        return slots_[(head_ + i) & (slots_.size() - 1)];
    }
    const T& operator[](std::size_t i) const {
        ILP_EXPECT(i < size_);
        return slots_[(head_ + i) & (slots_.size() - 1)];
    }
    T& front() { return (*this)[0]; }
    const T& front() const { return (*this)[0]; }
    T& back() { return (*this)[size_ - 1]; }
    const T& back() const { return (*this)[size_ - 1]; }

    void push_back(T value) {
        if (size_ == slots_.size()) grow();
        slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
        ++size_;
    }

    // Inserts `value` so that it becomes element i, moving the elements
    // from i on one place back.  The elements trade places by swap, so a
    // resource an element owns is never freed on the way.
    void insert(std::size_t i, T value) {
        ILP_EXPECT(i <= size_);
        push_back(std::move(value));
        for (std::size_t k = size_ - 1; k > i; --k) {
            using std::swap;
            swap((*this)[k], (*this)[k - 1]);
        }
    }

    void pop_front() {
        ILP_EXPECT(size_ > 0);
        head_ = (head_ + 1) & (slots_.size() - 1);
        --size_;
    }

    void clear() noexcept {
        head_ = 0;
        size_ = 0;
    }

private:
    static constexpr std::size_t min_capacity = 8;

    void grow() {
        std::vector<T> bigger(slots_.empty() ? min_capacity
                                             : 2 * slots_.size());
        for (std::size_t k = 0; k < size_; ++k) {
            bigger[k] = std::move((*this)[k]);
        }
        slots_.swap(bigger);
        head_ = 0;
    }

    std::vector<T> slots_;  // size is zero or a power of two
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

}  // namespace ilp
