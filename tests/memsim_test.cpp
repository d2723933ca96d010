// Unit tests for the memory-system simulator: cache model, hierarchy,
// access policies.
#include <gtest/gtest.h>

#include "buffer/byte_buffer.h"
#include "memsim/cache.h"
#include "memsim/configs.h"
#include "memsim/mem_policy.h"
#include "memsim/memory_system.h"

namespace ilp::memsim {
namespace {

cache_config direct_mapped_64(std::size_t line = 16) {
    return {.name = "t",
            .size_bytes = 64,
            .line_bytes = line,
            .associativity = 1,
            .writes = write_policy::write_through,
            .write_misses = write_miss_policy::no_allocate};
}

TEST(Cache, ColdMissThenHit) {
    cache c(direct_mapped_64());
    EXPECT_FALSE(c.access(0, access_kind::read).hit);
    EXPECT_TRUE(c.access(0, access_kind::read).hit);
    EXPECT_TRUE(c.access(15, access_kind::read).hit);   // same line
    EXPECT_FALSE(c.access(16, access_kind::read).hit);  // next line
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, DirectMappedConflict) {
    // 64-byte cache, 16-byte lines -> 4 sets; addresses 0 and 64 collide.
    cache c(direct_mapped_64());
    c.access(0, access_kind::read);
    c.access(64, access_kind::read);
    EXPECT_FALSE(c.access(0, access_kind::read).hit);  // evicted
    EXPECT_EQ(c.evictions(), 2u);
}

TEST(Cache, SetAssociativeAvoidsConflict) {
    cache_config cfg = direct_mapped_64();
    cfg.size_bytes = 128;
    cfg.associativity = 2;  // 4 sets x 2 ways
    cache c(cfg);
    c.access(0, access_kind::read);
    c.access(64, access_kind::read);  // same set, second way
    EXPECT_TRUE(c.access(0, access_kind::read).hit);
    EXPECT_TRUE(c.access(64, access_kind::read).hit);
}

TEST(Cache, LruReplacement) {
    cache_config cfg = direct_mapped_64();
    cfg.size_bytes = 128;
    cfg.associativity = 2;
    cache c(cfg);
    c.access(0, access_kind::read);    // way A
    c.access(64, access_kind::read);   // way B
    c.access(0, access_kind::read);    // touch A -> B becomes LRU
    c.access(128, access_kind::read);  // evicts B (addr 64)
    EXPECT_TRUE(c.access(0, access_kind::read).hit);
    EXPECT_FALSE(c.access(64, access_kind::read).hit);
}

TEST(Cache, WriteAroundDoesNotFill) {
    cache c(direct_mapped_64());  // write-through, no-allocate
    EXPECT_FALSE(c.access(0, access_kind::write).hit);
    // The write miss did not fill the line, so a read still misses.
    EXPECT_FALSE(c.access(0, access_kind::read).hit);
    EXPECT_EQ(c.write_misses(), 1u);
    EXPECT_EQ(c.read_misses(), 1u);
}

TEST(Cache, WriteBackSetsDirtyAndWritesBackOnEviction) {
    cache_config cfg = direct_mapped_64();
    cfg.writes = write_policy::write_back;
    cfg.write_misses = write_miss_policy::allocate;
    cache c(cfg);
    EXPECT_FALSE(c.access(0, access_kind::write).hit);  // allocate + dirty
    EXPECT_TRUE(c.access(0, access_kind::read).hit);
    const auto r = c.access(64, access_kind::read);  // evicts dirty line
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.writeback);
}

TEST(Cache, FlushInvalidatesEverything) {
    cache c(direct_mapped_64());
    c.access(0, access_kind::read);
    c.flush();
    EXPECT_FALSE(c.access(0, access_kind::read).hit);
}

TEST(MemorySystem, CountsAccessesBySizeBucket) {
    memory_system sys(test_tiny());
    sys.read(0, 1);
    sys.read(0, 2);
    sys.read(0, 4);
    sys.read(0, 8);
    sys.write(0, 4);
    const access_stats& s = sys.data_stats();
    EXPECT_EQ(s.reads.accesses[size_bucket(1)], 1u);
    EXPECT_EQ(s.reads.accesses[size_bucket(2)], 1u);
    EXPECT_EQ(s.reads.accesses[size_bucket(4)], 1u);
    EXPECT_EQ(s.reads.accesses[size_bucket(8)], 1u);
    EXPECT_EQ(s.writes.accesses[size_bucket(4)], 1u);
    EXPECT_EQ(s.total_accesses(), 5u);
    EXPECT_EQ(s.reads.total_bytes(), 15u);
}

TEST(MemorySystem, MissHistogramTracksAccessSize) {
    memory_system sys(test_tiny());
    sys.read(0, 1);  // cold miss, 1-byte bucket
    sys.read(1, 1);  // now hits
    EXPECT_EQ(sys.data_stats().reads.misses[size_bucket(1)], 1u);
    EXPECT_EQ(sys.data_stats().reads.total_misses(), 1u);
}

TEST(MemorySystem, LineCrossingAccessCountsOnce) {
    memory_system sys(test_tiny());  // 16-byte lines
    sys.read(14, 4);                 // spans lines 0 and 1
    EXPECT_EQ(sys.data_stats().reads.accesses[size_bucket(4)], 1u);
    EXPECT_EQ(sys.data_stats().reads.total_misses(), 1u);  // counted once
    EXPECT_EQ(sys.l1d().misses(), 2u);  // but both lines missed in the cache
}

TEST(MemorySystem, L2AbsorbsL1Misses) {
    memory_system with_l2(supersparc_with_l2());
    memory_system without_l2(supersparc_no_l2());
    // Touch a range larger than L1 (16 KB) twice; second pass misses L1 but
    // should hit L2 where present.
    for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t a = 0; a < 64 * 1024; a += 32) {
            with_l2.read(a, 4);
            without_l2.read(a, 4);
        }
    }
    EXPECT_GT(with_l2.l1d().misses(), 0u);
    ASSERT_NE(with_l2.l2(), nullptr);
    EXPECT_GT(with_l2.l2()->hits(), 0u);
    // Same L1 behaviour, but the miss penalty differs.
    EXPECT_EQ(with_l2.l1d().misses(), without_l2.l1d().misses());
    EXPECT_LT(with_l2.cycles(), without_l2.cycles());
}

TEST(MemorySystem, ResetColdVsWarm) {
    memory_system sys(test_tiny());
    sys.read(0, 4);
    sys.reset(/*cold_caches=*/false);
    EXPECT_EQ(sys.data_stats().total_accesses(), 0u);
    sys.read(0, 4);  // warm: still cached
    EXPECT_EQ(sys.data_stats().reads.total_misses(), 0u);
    sys.reset(/*cold_caches=*/true);
    sys.read(0, 4);  // cold again
    EXPECT_EQ(sys.data_stats().reads.total_misses(), 1u);
}

TEST(MemorySystem, InstructionFetchPath) {
    memory_system sys(test_tiny());
    sys.instruction_fetch(0x1000, 64);  // 4 lines of 16B
    EXPECT_EQ(sys.instruction_fetch_misses(), 4u);
    sys.instruction_fetch(0x1000, 64);
    EXPECT_EQ(sys.instruction_fetch_misses(), 4u);  // all warm now
    EXPECT_GT(sys.instruction_cycles(), 0u);
}

TEST(MemPolicy, DirectMemoryRoundTrip) {
    direct_memory mem;
    alignas(8) std::byte buf[16] = {};
    mem.store_u8(buf, 0xab);
    EXPECT_EQ(mem.load_u8(buf), 0xab);
    mem.store_u16(buf + 2, 0x1234);
    EXPECT_EQ(mem.load_u16(buf + 2), 0x1234);
    mem.store_u32(buf + 4, 0xdeadbeefu);
    EXPECT_EQ(mem.load_u32(buf + 4), 0xdeadbeefu);
    mem.store_u64(buf + 8, 0x0102030405060708ull);
    EXPECT_EQ(mem.load_u64(buf + 8), 0x0102030405060708ull);
}

TEST(MemPolicy, SimMemoryRecordsAndPerformsAccesses) {
    memory_system sys(test_tiny());
    sim_memory mem(sys);
    byte_buffer buf(64);
    mem.store_u32(buf.data(), 0xcafebabeu);
    EXPECT_EQ(mem.load_u32(buf.data()), 0xcafebabeu);
    EXPECT_EQ(sys.data_stats().writes.accesses[size_bucket(4)], 1u);
    EXPECT_EQ(sys.data_stats().reads.accesses[size_bucket(4)], 1u);
}

TEST(MemPolicy, CopyUsesWordAccesses) {
    memory_system sys(test_tiny());
    sim_memory mem(sys);
    byte_buffer src(14), dst(14);
    mem.copy(dst.data(), src.data(), 14);
    // 14 bytes = one 8-byte + one 4-byte + two single-byte ops, each
    // read+written.
    EXPECT_EQ(sys.data_stats().reads.accesses[size_bucket(8)], 1u);
    EXPECT_EQ(sys.data_stats().reads.accesses[size_bucket(4)], 1u);
    EXPECT_EQ(sys.data_stats().reads.accesses[size_bucket(1)], 2u);
    EXPECT_EQ(sys.data_stats().writes.accesses[size_bucket(8)], 1u);
    EXPECT_EQ(sys.data_stats().writes.accesses[size_bucket(4)], 1u);
    EXPECT_EQ(sys.data_stats().writes.accesses[size_bucket(1)], 2u);
}

}  // namespace
}  // namespace ilp::memsim
