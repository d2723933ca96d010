// Allocation gate for the per-packet path.
//
// This binary replaces the global operator new/delete with counting
// versions.  It builds a shard shaped like the bench's `small_secure`
// workload (16 AEAD flows, 128-B packets, wire v3 with rekeying, DRR
// service), warms it up, and then counts heap allocations while the shard
// delivers at least `window_packets` reply packets.  In steady state the
// data path — pipes, demux, TCP, RPC framing, the fused loop, the
// scheduler and the clock — must not allocate at all.  A second case
// counts across a rekey of every flow: neither the rekey nor the client's
// adoption of the new epoch may allocate.
//
// The same replacement serves two more checks.  The setup gate counts the
// aligned bytes (byte_buffer storage) that open_flow allocates: an ILP flow
// gets no layered staging, a layered flow all of it.  The poisoned-
// allocation differential fills every fresh allocation with 0x00 in one run
// and 0xA5 in another: the stack's per-flow buffers are uninitialised
// (byte_buffer::uninitialized), so any read of a byte nobody wrote would
// make the two runs disagree.  GCC has no MemorySanitizer; this is its
// stand-in for the stack's own storage.
//
// It is its own executable because replacing operator new is process-wide.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "app/harness.h"
#include "crypto/aead.h"
#include "engine/fleet.h"
#include "engine/shard.h"
#include "memsim/configs.h"
#include "memsim/mem_policy.h"
#include "obs/counters.h"
#include "util/rng.h"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocations{0};
std::atomic<std::uint64_t> aligned_bytes{0};  // requested, while counting
// The byte every fresh allocation is filled with; -1 leaves it as malloc
// returned it.
std::atomic<int> poison{-1};

void* fresh(void* p, std::size_t n) {
    if (p == nullptr) throw std::bad_alloc();
    const int byte = poison.load(std::memory_order_relaxed);
    if (byte >= 0) std::memset(p, byte, n);
    return p;
}

void* counted_alloc(std::size_t n) {
    if (counting.load(std::memory_order_relaxed)) {
        allocations.fetch_add(1, std::memory_order_relaxed);
    }
    return fresh(std::malloc(n == 0 ? 1 : n), n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
    if (counting.load(std::memory_order_relaxed)) {
        allocations.fetch_add(1, std::memory_order_relaxed);
        aligned_bytes.fetch_add(n, std::memory_order_relaxed);
    }
    const auto align = static_cast<std::size_t>(al);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t size = (n + align - 1) / align * align;
    return fresh(std::aligned_alloc(align, size == 0 ? align : size), n);
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
    try {
        return counted_alloc(n);
    } catch (...) {
        return nullptr;
    }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
    try {
        return counted_alloc(n);
    } catch (...) {
        return nullptr;
    }
}
void* operator new(std::size_t n, std::align_val_t al) {
    return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
    return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}

namespace ilp {
namespace {

using cipher = crypto::aead_cipher;
using native_shard = engine::shard<memsim::direct_memory, cipher>;

constexpr std::uint32_t flows = 16;
constexpr std::uint64_t window_packets = 1000;

// The bench's small_secure flow, with a shorter file so the test stays
// quick: 16 flows x 192 KiB is ~40k reply packets, and each flow rekeys
// after 64 and 128 KiB.
engine::flow_config small_secure_flow(std::uint32_t f) {
    engine::flow_config fc;
    fc.mode = app::path_mode::ilp;
    fc.file_bytes = 192 * 1024;
    fc.packet_wire_bytes = 128;
    fc.secure = true;
    fc.secure_wire_version = rpc::wire_version_secure;
    fc.rekey_interval_bytes = 64 * 1024;
    fc.file_seed = derive_seed(7, f);
    fc.flow_secret = derive_seed(9, 0x5ec00000ull + f);
    return fc;
}

std::uint64_t reply_packets_delivered(native_shard& s) {
    return s.reply_link().forward().stats().packets_delivered;
}

std::uint64_t rekeys(native_shard& s) {
    std::uint64_t n = 0;
    for (std::uint32_t f = 0; f < flows; ++f) {
        n += s.server(f).secure_stats().rekeys;
    }
    return n;
}

// The fewest new epochs any one flow's client has adopted.
std::uint64_t fewest_adoptions(native_shard& s) {
    std::uint64_t n = UINT64_MAX;
    for (std::uint32_t f = 0; f < flows; ++f) {
        n = std::min(n, s.client(f).secure_stats().epoch_adoptions);
    }
    return n;
}

void open_flows(native_shard& s) {
    for (std::uint32_t f = 0; f < flows; ++f) {
        std::array<std::byte, cipher::key_bytes> key{};
        rng key_rng(derive_seed(3, f));
        key_rng.fill(key);
        const cipher c{std::span<const std::byte>(key)};
        ASSERT_TRUE(s.open_flow(f, small_secure_flow(f), c, c));
    }
}

engine::shard_options drr_options() {
    engine::shard_options opts;
    opts.policy = engine::sched_policy::deficit_round_robin;
    return opts;
}

TEST(AllocationGate, SmallSecureSteadyStateDoesNotAllocate) {
    const memsim::direct_memory mem;
    native_shard s(0, drr_options(), mem, mem);
    ASSERT_NO_FATAL_FAILURE(open_flows(s));

    // Warm up past the first rekey of every flow, and one tick more.
    while (s.active_flows() == flows && rekeys(s) < flows) s.tick();
    s.tick();
    ASSERT_EQ(s.active_flows(), flows) << "warm-up outlasted a flow";

    const std::uint64_t rekeys_before = rekeys(s);
    const std::uint64_t first = reply_packets_delivered(s);
    allocations.store(0);
    counting.store(true);
    while (s.active_flows() == flows &&
           reply_packets_delivered(s) - first < window_packets) {
        s.tick();
    }
    counting.store(false);
    const std::uint64_t delivered = reply_packets_delivered(s) - first;

    ASSERT_EQ(s.active_flows(), flows) << "the window outlasted a flow";
    ASSERT_EQ(rekeys(s), rekeys_before) << "a rekey fell in the window";
    ASSERT_GE(delivered, window_packets);
    EXPECT_EQ(allocations.load(), 0u)
        << "heap allocations over " << delivered << " delivered packets";

    s.run();
    for (std::uint32_t f = 0; f < flows; ++f) {
        EXPECT_TRUE(s.outcome(f).completed) << "flow " << f;
        EXPECT_TRUE(s.outcome(f).verified) << "flow " << f;
    }
}

// The legality gate checks a flow once, at setup, so a rekey allocates
// nothing.  The window holds every flow's second rekey, its client's
// adoption of that epoch and one more service visit of every flow.  It
// opens after each client's first adoption, which adds the client's
// `crypto.epoch_adoptions` counter to its registry.
TEST(AllocationGate, RekeysDoNotAllocate) {
    const memsim::direct_memory mem;
    native_shard s(0, drr_options(), mem, mem);
    ASSERT_NO_FATAL_FAILURE(open_flows(s));

    while (s.active_flows() == flows && fewest_adoptions(s) < 1) s.tick();
    ASSERT_EQ(s.active_flows(), flows) << "warm-up outlasted a flow";

    std::array<std::uint64_t, flows> rekeys_before{};
    for (std::uint32_t f = 0; f < flows; ++f) {
        rekeys_before[f] = s.server(f).secure_stats().rekeys;
    }
    const std::uint64_t total_before = rekeys(s);
    const std::uint64_t first = reply_packets_delivered(s);
    allocations.store(0);
    counting.store(true);
    while (s.active_flows() == flows && fewest_adoptions(s) < 2) s.tick();
    s.tick();
    counting.store(false);
    const std::uint64_t delivered = reply_packets_delivered(s) - first;

    ASSERT_EQ(s.active_flows(), flows) << "the window outlasted a flow";
    for (std::uint32_t f = 0; f < flows; ++f) {
        ASSERT_GT(s.server(f).secure_stats().rekeys, rekeys_before[f])
            << "flow " << f << " did not rekey in the window";
    }
    EXPECT_EQ(allocations.load(), 0u)
        << "heap allocations over " << rekeys(s) - total_before
        << " rekeys and " << delivered << " delivered packets";

    s.run();
    for (std::uint32_t f = 0; f < flows; ++f) {
        EXPECT_TRUE(s.outcome(f).completed) << "flow " << f;
        EXPECT_TRUE(s.outcome(f).verified) << "flow " << f;
    }
}

// ---------------------------------------------------------------------------
// Setup gate: what open_flow allocates as byte_buffer storage.

// Aligned bytes one open_flow allocates on a fresh plain shard.
std::uint64_t setup_aligned_bytes(app::path_mode mode) {
    const memsim::direct_memory mem;
    native_shard s(0, engine::shard_options{}, mem, mem);
    const cipher c = engine::make_static_cipher<cipher>(1);
    engine::flow_config fc;
    fc.mode = mode;
    fc.file_bytes = 4 * 1024;
    aligned_bytes.store(0);
    counting.store(true);
    const bool opened = s.open_flow(0, fc, c, c);
    counting.store(false);
    EXPECT_TRUE(opened);
    s.run();
    EXPECT_TRUE(s.outcome(0).verified);
    return aligned_bytes.load();
}

// A flow's aligned storage is its two TCP send rings, its two TCP receive
// buffers and the server's request staging; a layered flow adds the
// server's and the client's layered staging.  A change that gives ILP
// flows staging again, or zero-fills it into a different allocation, moves
// these sums.
TEST(SetupAllocationGate, IlpFlowsGetNoLayeredStaging) {
    const tcp::connection_config tcp_defaults;
    const std::uint64_t packet = net::datagram_pipe::max_packet_bytes;
    const std::uint64_t per_flow =
        2 * tcp_defaults.send_buffer_bytes + 2 * packet + packet;
    const std::uint64_t layered_staging = 2 * packet;

    EXPECT_EQ(setup_aligned_bytes(app::path_mode::ilp), per_flow);
    EXPECT_EQ(setup_aligned_bytes(app::path_mode::layered),
              per_flow + layered_staging);
}

// ---------------------------------------------------------------------------
// Poisoned-allocation differential.

constexpr std::uint64_t poison_seed = 1;
constexpr std::array<int, 2> poisons = {0x00, 0xA5};

// Every protocol combination a flow can take, with faults that make TCP
// retransmit and the RPC layer retry: plain and secure, ILP and layered, a
// crc32 tap the legality gate demotes to layered, zero-copy on and off, and
// reply drops and payload corruption.
engine::fleet_config mixed_fleet(std::uint64_t seed) {
    engine::fleet_config cfg;
    cfg.flows = 12;
    cfg.shards = 2;
    cfg.policy = engine::sched_policy::deficit_round_robin;
    cfg.key_seed = seed;
    cfg.defaults.file_bytes = 6 * 1024;
    cfg.defaults.packet_wire_bytes = 512;
    cfg.per_flow = [seed](std::uint32_t f, engine::flow_config& fc) {
        fc.file_seed = derive_seed(seed, f);
        fc.mode = f % 3 == 1 ? app::path_mode::layered : app::path_mode::ilp;
        fc.secure = f % 2 == 1;
        fc.rekey_interval_bytes = fc.secure ? 2 * 1024 : 0;
        fc.zero_copy = f % 4 >= 2;
        if (f == 8) fc.tap = app::compose_tap::crc32;  // demoted to layered
        fc.forward_faults.seed = derive_seed(seed, 100 + f);
        if (f % 5 == 2) fc.forward_faults.drop_probability = 0.1;
        if (f % 5 == 3) fc.forward_faults.corrupt_probability = 0.1;
    };
    return cfg;
}

engine::fleet_report poisoned_fleet(int byte) {
    poison.store(byte);
    engine::fleet_report r =
        engine::run_fleet_native<cipher>(mixed_fleet(poison_seed));
    poison.store(-1);
    return r;
}

void expect_same_outcome(const engine::flow_outcome& a,
                         const engine::flow_outcome& b) {
    SCOPED_TRACE("flow " + std::to_string(a.flow_id));
    EXPECT_EQ(a.flow_id, b.flow_id);
    EXPECT_EQ(a.shard, b.shard);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.verified, b.verified);
    EXPECT_EQ(a.gave_up, b.gave_up);
    EXPECT_EQ(a.deadline_exceeded, b.deadline_exceeded);
    EXPECT_EQ(a.request_rejected, b.request_rejected);
    EXPECT_EQ(a.ports_exhausted, b.ports_exhausted);
    EXPECT_EQ(a.payload_bytes, b.payload_bytes);
    EXPECT_EQ(a.elapsed_us, b.elapsed_us);
    EXPECT_EQ(a.rpc_retries, b.rpc_retries);
    EXPECT_EQ(a.tcp_retransmissions, b.tcp_retransmissions);
    EXPECT_EQ(a.reply_packets_dropped, b.reply_packets_dropped);
    EXPECT_EQ(a.queue_dropped, b.queue_dropped);
    EXPECT_EQ(a.serviced_bytes, b.serviced_bytes);
    EXPECT_EQ(a.rekeys, b.rekeys);
    EXPECT_EQ(a.tag_failures, b.tag_failures);
    EXPECT_EQ(a.epoch_skews, b.epoch_skews);
    EXPECT_EQ(a.epoch_window_hits, b.epoch_window_hits);
    EXPECT_EQ(a.composed_fallback, b.composed_fallback);
    EXPECT_EQ(a.trace_sampled, b.trace_sampled);
    EXPECT_EQ(a.black_box.recorded(), b.black_box.recorded());
    EXPECT_TRUE(a.black_box.entries() == b.black_box.entries());
}

TEST(PoisonedAllocation, MixedFleetIgnoresFreshMemoryContents) {
    SCOPED_TRACE("seed " + std::to_string(poison_seed));
    const engine::fleet_report zeroed = poisoned_fleet(poisons[0]);
    const engine::fleet_report poisoned = poisoned_fleet(poisons[1]);

    EXPECT_EQ(zeroed.digest(), poisoned.digest());
    ASSERT_EQ(zeroed.flows.size(), poisoned.flows.size());
    for (std::size_t i = 0; i < zeroed.flows.size(); ++i) {
        expect_same_outcome(zeroed.flows[i], poisoned.flows[i]);
    }

    // The fleet covers what it claims: every combination ran, the faults
    // bit, the gate demoted its flow, and the flows that can complete did.
    std::uint32_t fallbacks = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t rekeys = 0;
    for (const engine::flow_outcome& o : zeroed.flows) {
        fallbacks += o.composed_fallback ? 1 : 0;
        retransmissions += o.tcp_retransmissions;
        rekeys += o.rekeys;
        EXPECT_TRUE(o.completed && o.verified) << "flow " << o.flow_id;
    }
    EXPECT_EQ(fallbacks, 1u);
    EXPECT_GT(retransmissions, 0u);
    EXPECT_GT(rekeys, 0u);
}

struct simulated_run {
    app::transfer_result result;
    obs::mem_counters client;
    obs::mem_counters server;
};

simulated_run poisoned_transfer(app::path_mode mode, int byte) {
    engine::flow_config fc;
    fc.mode = mode;
    fc.file_bytes = 8 * 1024;
    fc.file_seed = derive_seed(poison_seed, 1);
    fc.forward_faults.seed = derive_seed(poison_seed, 2);
    fc.forward_faults.drop_probability = 0.05;
    poison.store(byte);
    memsim::memory_system client_sys(memsim::supersparc_no_l2());
    memsim::memory_system server_sys(memsim::supersparc_no_l2());
    simulated_run run;
    run.result = app::run_transfer_simulated<cipher>(fc, client_sys,
                                                     server_sys);
    poison.store(-1);
    run.client = obs::sample_counters(client_sys);
    run.server = obs::sample_counters(server_sys);
    return run;
}

// Access counts are address-independent, so the two runs must agree on
// them exactly; misses and cycles depend on where the heap put things and
// are not compared.
void expect_same_transfer(app::path_mode mode) {
    SCOPED_TRACE(std::string("seed ") + std::to_string(poison_seed) +
                 (mode == app::path_mode::ilp ? ", ilp" : ", layered"));
    const simulated_run a = poisoned_transfer(mode, poisons[0]);
    const simulated_run b = poisoned_transfer(mode, poisons[1]);
    EXPECT_TRUE(a.result.completed && a.result.verified);
    EXPECT_TRUE(b.result.completed && b.result.verified);
    // Both verified against the served file, so the bytes out are equal.
    EXPECT_EQ(a.result.payload_bytes_delivered,
              b.result.payload_bytes_delivered);
    EXPECT_EQ(a.result.elapsed_us, b.result.elapsed_us);
    EXPECT_TRUE(a.result.metrics.counters() == b.result.metrics.counters());
    for (const auto& [side, x, y] :
         {std::tuple{"client", a.client, b.client},
          std::tuple{"server", a.server, b.server}}) {
        SCOPED_TRACE(side);
        EXPECT_GT(x.accesses(), 0u);
        EXPECT_EQ(x.reads, y.reads);
        EXPECT_EQ(x.writes, y.writes);
        EXPECT_EQ(x.ifetches, y.ifetches);
    }
}

TEST(PoisonedAllocation, SimulatedTransferIgnoresFreshMemoryContents) {
    expect_same_transfer(app::path_mode::ilp);
    expect_same_transfer(app::path_mode::layered);
}

}  // namespace
}  // namespace ilp
