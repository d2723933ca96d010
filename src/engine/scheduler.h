// Pluggable flow-service policies for the shard's scheduler round.
//
// Every virtual-clock tick the shard visits each live flow once and asks
// the policy how much that flow's server may transmit:
//
//   * round_robin — drain until blocked: each visit sends every segment TCP
//     has window/buffer space for (app::run_transfer's cadence).
//     Fair in visits, not in bytes: a flow with large segments gets more
//     link per visit than one with small segments.
//   * deficit_round_robin — byte-metered (Shreedhar & Varghese): each visit
//     deposits `quantum_bytes` of credit, a segment may go out only when the
//     flow's credit covers its wire size, and sent bytes are charged.  Over
//     any window of whole rounds two backlogged flows' granted bytes differ
//     by at most one quantum plus one maximum segment, whatever their
//     segment sizes (bounded in tests/engine_test.cpp).
//
// The policy is deliberately per-flow state + pure functions: nothing here
// couples one flow's grant to another's, which keeps per-flow outcomes
// independent of how flows are packed onto shards.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ilp::engine {

enum class sched_policy { round_robin, deficit_round_robin };

// Per-flow scheduling state, owned by the shard's flow-table entry.
struct sched_state {
    std::uint64_t deficit_bytes = 0;
};

class flow_scheduler {
public:
    flow_scheduler(sched_policy policy, std::size_t quantum_bytes)
        : policy_(policy), quantum_(quantum_bytes) {}

    sched_policy policy() const noexcept { return policy_; }
    std::size_t quantum_bytes() const noexcept { return quantum_; }

    // Called once at the start of a flow's service visit with the wire size
    // of its next pending segment (0 = nothing pending).  DRR deposits the
    // quantum; an idle flow's credit resets (classic DRR — credit must not
    // be hoarded across idle periods), and a window-blocked flow's credit
    // is clamped to one quantum beyond its next segment so unblocking can't
    // release an unbounded burst.
    void begin_visit(sched_state& s, std::size_t next_wire_bytes) const {
        if (policy_ != sched_policy::deficit_round_robin) return;
        if (next_wire_bytes == 0) {
            s.deficit_bytes = 0;
            return;
        }
        s.deficit_bytes += quantum_;
        const std::uint64_t clamp =
            static_cast<std::uint64_t>(quantum_) + next_wire_bytes;
        if (s.deficit_bytes > clamp) s.deficit_bytes = clamp;
    }

    // May the flow transmit its next segment of `wire_bytes` now?
    bool grant(const sched_state& s, std::size_t wire_bytes) const {
        if (wire_bytes == 0) return false;  // nothing pending
        if (policy_ != sched_policy::deficit_round_robin) return true;
        return s.deficit_bytes >= wire_bytes;
    }

    // Charge a transmitted segment against the flow's credit.
    void charge(sched_state& s, std::size_t wire_bytes) const {
        if (policy_ != sched_policy::deficit_round_robin) return;
        const auto w = static_cast<std::uint64_t>(wire_bytes);
        s.deficit_bytes -= w < s.deficit_bytes ? w : s.deficit_bytes;
    }

private:
    sched_policy policy_;
    std::size_t quantum_;
};

}  // namespace ilp::engine
