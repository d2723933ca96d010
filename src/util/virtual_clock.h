// Deterministic virtual time source.
//
// The TCP retransmission machinery and the platform timing models run on
// virtual time so that every test and simulated experiment is reproducible
// bit-for-bit, independent of host load (the paper fought exactly this noise
// on its SPARCstations).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace ilp {

// Microseconds since simulation start.
using sim_time = std::uint64_t;

// Monotonicity contract: now() never decreases.  advance()/advance_to()
// enforce it with ILP_EXPECT — rewinding time (advance_to into the past) or
// overflowing sim_time (advance by a delta that wraps the 64-bit counter)
// aborts in any build with contracts enabled.  Everything downstream relies
// on this: the span tracer records begin <= end without clamping, TCP's RTO
// estimator subtracts timestamps unsigned, and the BENCH reports divide by
// elapsed time.  2^64 microseconds is ~584,000 years of virtual time, so
// the overflow check only ever fires on arithmetic bugs, not on long runs.
//
// Firing order: pending timers fire in (deadline, schedule order), the
// order that makes every run replay bit-for-bit.  They are kept in a binary
// min-heap on that key, so schedule, cancel and each fired timer cost
// O(log n) in the number of pending timers; nothing scans them all.
class virtual_clock {
public:
    // Reserves the timer storage up front (see initial_capacity).
    virtual_clock();

    sim_time now() const noexcept { return now_us_; }

    // Advance time; fires due timers in deadline order.  delta_us must not
    // overflow now() + delta_us (checked).
    void advance(sim_time delta_us);

    // Jump directly to an absolute time >= now() (checked; the clock never
    // rewinds).  Timer callbacks may schedule and cancel timers; a timer
    // they schedule fires in this call too when it is due by the target.
    void advance_to(sim_time deadline_us);

    // Schedules `fn` at absolute time `deadline_us`; returns a nonzero token
    // usable with cancel().  Timers scheduled for a time <= now() fire on
    // the next advance() call.
    std::uint64_t schedule_at(sim_time deadline_us, std::function<void()> fn);
    std::uint64_t schedule_after(sim_time delta_us, std::function<void()> fn) {
        return schedule_at(now_us_ + delta_us, std::move(fn));
    }

    // Cancels a pending timer and releases its callback; returns false if
    // it already fired (or is firing) or was cancelled before.
    bool cancel(std::uint64_t token);

    std::size_t pending_timers() const noexcept { return heap_.size(); }

private:
    // Storage reserved at construction.  Growing the vectors mid-run makes
    // the grown block the last one freed at the top of the malloc heap, and
    // freeing it lets glibc trim the heap, so the next run re-faults its
    // pages; reserving once keeps runs with up to this many pending timers
    // free of that.
    static constexpr std::size_t initial_capacity = 4096;

    // A heap entry: the ordering key plus the slot holding the callback, so
    // sifting moves 24-byte entries, never a std::function.
    struct entry {
        sim_time deadline;
        std::uint64_t seq;  // schedule order: breaks deadline ties
        std::uint32_t slot;
    };

    // A callback's home.  A token names a slot and the slot's generation at
    // scheduling time; the generation moves on when the timer fires or is
    // cancelled, so a stale token no longer matches (until the 32-bit
    // generation wraps, 2^32 reuses of that slot later).
    struct slot {
        std::function<void()> fn;
        std::uint32_t generation = 1;
        std::uint32_t heap_index = 0;  // valid while the timer is pending
    };

    static bool before(const entry& a, const entry& b) noexcept {
        return a.deadline != b.deadline ? a.deadline < b.deadline
                                        : a.seq < b.seq;
    }
    void place(std::size_t i, const entry& e) noexcept;
    void sift_up(std::size_t i, entry e) noexcept;
    void sift_down(std::size_t i, entry e) noexcept;
    // Removes heap_[i] and retires its slot; returns the callback.
    std::function<void()> remove_at(std::size_t i);

    sim_time now_us_ = 0;
    std::uint64_t next_seq_ = 0;
    std::vector<entry> heap_;
    std::vector<slot> slots_;
    std::vector<std::uint32_t> free_slots_;
};

}  // namespace ilp
