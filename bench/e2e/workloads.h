// The four bench_e2e workloads, generated from a seed.
//
// Every workload is a closed loop: all flows of a rep are offered at virtual
// t=0 and run to a terminal outcome, and the next rep starts only after the
// previous one ended.  The seed picks each flow's file contents, the fleet
// key seed and (for fleet10k) the doomed minority; the engine only ever sees
// the generated flow_configs.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/fleet.h"

namespace ilp::bench_e2e {

// What the generator set a flow up to do; the correctness gate checks every
// flow's terminal outcome against it.
enum class flow_fate : std::uint8_t {
    healthy,   // completes and verifies
    gave_up,   // total reply loss, tiny retry budget
    deadline,  // total reply loss, 10 ms deadline
    demoted,   // illegal crc32 tap: gate demotes it to layered, then completes
};

struct workload {
    std::string name;
    // aead_cipher with wire v3 framing; otherwise safer_simplified, plain v2.
    bool secure = false;
    // Timed reps when no --seconds budget is given.
    std::uint32_t reps = 0;
    engine::fleet_config fleet;
    // Per flow id; shared with fleet.per_flow, which reads it.
    std::shared_ptr<const std::vector<flow_fate>> fates;

    std::uint32_t count(flow_fate f) const;
    // Flows whose outcome does not match their fate.
    std::uint32_t mismatches(const engine::fleet_report& r) const;
};

const std::vector<std::string>& workload_names();

// nullopt for an unknown name.  `smoke` shrinks every workload to about
// 1/100 of its size (the ctest smoke run).
std::optional<workload> make_workload(std::string_view name,
                                      std::uint64_t seed, bool smoke);

}  // namespace ilp::bench_e2e
