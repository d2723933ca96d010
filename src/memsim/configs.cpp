#include "memsim/configs.h"

namespace ilp::memsim {

namespace {

// 20 KB / 5 ways / 32-byte lines = 128 sets (a power of two, as the model
// requires; the odd way count is what makes the odd total size work).
cache_config supersparc_l1i() {
    return {.name = "l1i",
            .size_bytes = 20 * 1024,
            .line_bytes = 32,
            .associativity = 5,
            .writes = write_policy::write_through,
            .write_misses = write_miss_policy::no_allocate};
}

cache_config supersparc_l1d() {
    return {.name = "l1d",
            .size_bytes = 16 * 1024,
            .line_bytes = 32,
            .associativity = 4,
            .writes = write_policy::write_through,
            .write_misses = write_miss_policy::no_allocate};
}

cache_config board_l2(std::size_t bytes) {
    return {.name = "l2",
            .size_bytes = bytes,
            .line_bytes = 32,
            .associativity = 1,
            .writes = write_policy::write_back,
            .write_misses = write_miss_policy::allocate};
}

}  // namespace

memory_system_config supersparc_no_l2() {
    return {.l1d = supersparc_l1d(),
            .l1i = supersparc_l1i(),
            .l2 = std::nullopt,
            // Without a second-level cache every L1 miss pays main memory.
            .timing = {.l1_hit_cycles = 1,
                       .l2_hit_cycles = 0,
                       .memory_cycles = 25,
                       .write_through_cycles = 2}};
}

memory_system_config supersparc_with_l2() {
    return {.l1d = supersparc_l1d(),
            .l1i = supersparc_l1i(),
            .l2 = board_l2(1024 * 1024),
            .timing = {.l1_hit_cycles = 1,
                       .l2_hit_cycles = 5,
                       .memory_cycles = 25,
                       .write_through_cycles = 2}};
}

memory_system_config alpha21064(std::size_t l2_bytes) {
    const cache_config l1d{.name = "l1d",
                           .size_bytes = 8 * 1024,
                           .line_bytes = 32,
                           .associativity = 1,
                           .writes = write_policy::write_through,
                           .write_misses = write_miss_policy::no_allocate};
    const cache_config l1i{.name = "l1i",
                           .size_bytes = 8 * 1024,
                           .line_bytes = 32,
                           .associativity = 1,
                           .writes = write_policy::write_through,
                           .write_misses = write_miss_policy::no_allocate};
    return {.l1d = l1d,
            .l1i = l1i,
            .l2 = board_l2(l2_bytes),
            .timing = {.l1_hit_cycles = 1,
                       .l2_hit_cycles = 6,
                       .memory_cycles = 40,
                       .write_through_cycles = 2}};
}

memory_system_config test_tiny() {
    const cache_config l1{.name = "l1",
                          .size_bytes = 64,
                          .line_bytes = 16,
                          .associativity = 1,
                          .writes = write_policy::write_through,
                          .write_misses = write_miss_policy::no_allocate};
    cache_config l1i = l1;
    l1i.name = "l1i";
    return {.l1d = l1,
            .l1i = l1i,
            .l2 = std::nullopt,
            .timing = {.l1_hit_cycles = 1,
                       .l2_hit_cycles = 0,
                       .memory_cycles = 10,
                       .write_through_cycles = 1}};
}

}  // namespace ilp::memsim
