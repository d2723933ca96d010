#include "util/virtual_clock.h"

#include <algorithm>
#include <limits>

#include "util/contracts.h"

namespace ilp {

virtual_clock::virtual_clock() {
    heap_.reserve(initial_capacity);
    slots_.reserve(initial_capacity);
    free_slots_.reserve(initial_capacity);
}

void virtual_clock::advance(sim_time delta_us) {
    ILP_EXPECT(delta_us <= ~sim_time{0} - now_us_);  // no sim_time overflow
    advance_to(now_us_ + delta_us);
}

void virtual_clock::advance_to(sim_time deadline_us) {
    ILP_EXPECT(deadline_us >= now_us_);  // monotone: the clock never rewinds
    // The heap top is always the next timer to fire, including timers the
    // callbacks schedule (a past deadline fires at the current time).
    while (!heap_.empty() && heap_.front().deadline <= deadline_us) {
        now_us_ = std::max(now_us_, heap_.front().deadline);
        const std::function<void()> fn = remove_at(0);
        fn();
    }
    now_us_ = deadline_us;
}

std::uint64_t virtual_clock::schedule_at(sim_time deadline_us,
                                         std::function<void()> fn) {
    ILP_EXPECT(fn != nullptr);
    std::uint32_t index = 0;
    if (free_slots_.empty()) {
        ILP_EXPECT(slots_.size() < std::numeric_limits<std::uint32_t>::max());
        index = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    } else {
        index = free_slots_.back();
        free_slots_.pop_back();
    }
    slot& s = slots_[index];
    s.fn = std::move(fn);
    heap_.emplace_back();
    sift_up(heap_.size() - 1, entry{deadline_us, next_seq_++, index});
    return std::uint64_t{s.generation} << 32 | index;
}

bool virtual_clock::cancel(std::uint64_t token) {
    const auto index = static_cast<std::uint32_t>(token);
    if (index >= slots_.size()) return false;
    const slot& s = slots_[index];
    // Pending means the slot's heap entry points back at it; the generation
    // tells this timer from earlier ones that used the slot.
    if (s.generation != token >> 32 || s.heap_index >= heap_.size() ||
        heap_[s.heap_index].slot != index) {
        return false;
    }
    remove_at(s.heap_index);  // the callback dies with the returned value
    return true;
}

void virtual_clock::place(std::size_t i, const entry& e) noexcept {
    heap_[i] = e;
    slots_[e.slot].heap_index = static_cast<std::uint32_t>(i);
}

void virtual_clock::sift_up(std::size_t i, entry e) noexcept {
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!before(e, heap_[parent])) break;
        place(i, heap_[parent]);
        i = parent;
    }
    place(i, e);
}

void virtual_clock::sift_down(std::size_t i, entry e) noexcept {
    const std::size_t n = heap_.size();
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n) break;
        if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
        if (!before(heap_[child], e)) break;
        place(i, heap_[child]);
        i = child;
    }
    place(i, e);
}

std::function<void()> virtual_clock::remove_at(std::size_t i) {
    const std::uint32_t index = heap_[i].slot;
    slot& s = slots_[index];
    std::function<void()> fn = std::move(s.fn);
    s.fn = nullptr;
    if (++s.generation == 0) s.generation = 1;  // token 0 means "no timer"
    free_slots_.push_back(index);
    // Fill the hole with the last entry and restore the order around it.
    const entry last = heap_.back();
    heap_.pop_back();
    if (i < heap_.size()) {
        if (i > 0 && before(last, heap_[(i - 1) / 2])) {
            sift_up(i, last);
        } else {
            sift_down(i, last);
        }
    }
    return fn;
}

}  // namespace ilp
