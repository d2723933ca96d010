#include "workloads.h"

#include <algorithm>

#include "util/rng.h"

namespace ilp::bench_e2e {
namespace {

constexpr std::size_t kib = 1024;
constexpr std::size_t mib = 1024 * kib;

// Stream ids for derive_seed, so the seed's uses never share a stream.
constexpr std::uint64_t stream_key = 0x6b657900;
constexpr std::uint64_t stream_doom = 0xd00d0000;
constexpr std::uint64_t stream_file = 0xf11e0000;

void set_fate(flow_fate fate, engine::flow_config& fc) {
    switch (fate) {
        case flow_fate::healthy:
            break;
        case flow_fate::gave_up:
            fc.forward_faults.drop_probability = 1.0;
            fc.retry.max_attempts = 2;
            fc.retry.response_timeout_us = 2'000;
            fc.retry.backoff_us = 1'000;
            fc.retry.max_backoff_us = 1'000;
            break;
        case flow_fate::deadline:
            fc.forward_faults.drop_probability = 1.0;
            fc.deadline_us = 10'000;
            break;
        case flow_fate::demoted:
            fc.tap = app::compose_tap::crc32;
            break;
    }
}

// Dooms `per_class` distinct flows to each failure class, drawn from the
// seed: 21 of 10,000 per class (~0.6% in all), at least one at smoke size.
std::vector<flow_fate> doomed_minority(std::uint32_t flows,
                                       std::uint64_t seed) {
    std::vector<flow_fate> fates(flows, flow_fate::healthy);
    const std::uint32_t per_class =
        std::max<std::uint32_t>(1, flows * 21 / 10'000);
    rng pick(derive_seed(seed, stream_doom));
    for (const flow_fate fate :
         {flow_fate::gave_up, flow_fate::deadline, flow_fate::demoted}) {
        for (std::uint32_t n = 0; n < per_class;) {
            const auto f = static_cast<std::uint32_t>(pick.next_below(flows));
            if (fates[f] != flow_fate::healthy) continue;
            fates[f] = fate;
            ++n;
        }
    }
    return fates;
}

}  // namespace

std::uint32_t workload::count(flow_fate f) const {
    return static_cast<std::uint32_t>(
        std::count(fates->begin(), fates->end(), f));
}

std::uint32_t workload::mismatches(const engine::fleet_report& r) const {
    if (r.flows.size() != fates->size()) {
        return static_cast<std::uint32_t>(fates->size());
    }
    std::uint32_t bad = 0;
    for (const engine::flow_outcome& o : r.flows) {
        const bool ok_transfer = o.completed && o.verified;
        bool ok = false;
        switch ((*fates)[o.flow_id]) {
            case flow_fate::healthy:
                ok = ok_transfer && !o.composed_fallback;
                break;
            case flow_fate::gave_up:
                ok = o.gave_up;
                break;
            case flow_fate::deadline:
                ok = o.deadline_exceeded;
                break;
            case flow_fate::demoted:
                ok = ok_transfer && o.composed_fallback;
                break;
        }
        if (!ok) ++bad;
    }
    return bad;
}

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {
        "bulk", "bulk_layered", "small_secure", "fleet10k"};
    return names;
}

std::optional<workload> make_workload(std::string_view name,
                                      std::uint64_t seed, bool smoke) {
    workload w;
    w.name = std::string(name);
    engine::fleet_config& cfg = w.fleet;
    cfg.key_seed = derive_seed(seed, stream_key);
    engine::flow_config& d = cfg.defaults;
    d.mode = app::path_mode::ilp;
    d.packet_wire_bytes = 1024;

    if (name == "bulk" || name == "bulk_layered") {
        // One long flow: per-byte cost of the data-path layers.
        if (name == "bulk_layered") d.mode = app::path_mode::layered;
        w.reps = name == "bulk" ? 60 : 50;
        cfg.flows = 1;
        d.file_bytes = smoke ? 160 * kib : 16 * mib;
    } else if (name == "small_secure") {
        // Smallest packets, AEAD framing, rekeying: per-packet cost.
        w.secure = true;
        w.reps = 25;
        cfg.flows = 16;
        cfg.policy = engine::sched_policy::deficit_round_robin;
        d.file_bytes = smoke ? 5 * kib : 512 * kib;
        d.packet_wire_bytes = 128;
        d.secure = true;
        d.secure_wire_version = rpc::wire_version_secure;
        d.rekey_interval_bytes = smoke ? 1 * kib : 64 * kib;
    } else if (name == "fleet10k") {
        // Connection churn: 2,500 flows per shard.  The shards run one
        // after another: on four threads of a four-core host the fleet's
        // wall time tracked how much CPU the neighbours left free (in
        // alternating runs the threaded medians ranged over 12%, the serial
        // ones over 5%).
        w.reps = 10;
        cfg.flows = smoke ? 100 : 10'000;
        cfg.shards = 4;
        cfg.policy = engine::sched_policy::deficit_round_robin;
        d.file_bytes = 2 * kib;
    } else {
        return std::nullopt;
    }

    auto fates = std::make_shared<std::vector<flow_fate>>(
        name == "fleet10k" ? doomed_minority(cfg.flows, seed)
                           : std::vector<flow_fate>(cfg.flows,
                                                    flow_fate::healthy));
    w.fates = fates;
    cfg.per_flow = [fates, seed](std::uint32_t f, engine::flow_config& fc) {
        fc.file_seed = derive_seed(seed, stream_file + f);
        set_fate((*fates)[f], fc);
    };
    return w;
}

}  // namespace ilp::bench_e2e
