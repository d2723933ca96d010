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
// It is its own executable because replacing operator new is process-wide.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>

#include "crypto/aead.h"
#include "engine/shard.h"
#include "memsim/mem_policy.h"
#include "util/rng.h"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocations{0};

void* counted_alloc(std::size_t n) {
    if (counting.load(std::memory_order_relaxed)) {
        allocations.fetch_add(1, std::memory_order_relaxed);
    }
    void* p = std::malloc(n == 0 ? 1 : n);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
    if (counting.load(std::memory_order_relaxed)) {
        allocations.fetch_add(1, std::memory_order_relaxed);
    }
    const auto align = static_cast<std::size_t>(al);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t size = (n + align - 1) / align * align;
    void* p = std::aligned_alloc(align, size == 0 ? align : size);
    if (p == nullptr) throw std::bad_alloc();
    return p;
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

}  // namespace
}  // namespace ilp
