// Cache-hierarchy configurations of the paper's evaluation machines.
//
// Geometry follows the published specifications of the SuperSPARC and Alpha
// 21064 processors and the board-level caches of the workstation models
// (paper §1 and §4.2):
//
//   * SuperSPARC (SPARCstation 10/20): 16 KB 4-way data cache
//     (write-through), 20 KB 5-way instruction cache; SS10-30 has *no*
//     second-level cache, the other SPARCstations have a 1 MB SuperCache.
//   * Alpha 21064 (DEC 3000 AXP): 8 KB direct-mapped write-through data
//     cache, 8 KB instruction cache, 512 KB - 2 MB external B-cache.
#pragma once

#include "memsim/memory_system.h"

namespace ilp::memsim {

// SuperSPARC on-chip caches, no second-level cache (SPARCstation 10-30).
memory_system_config supersparc_no_l2();

// SuperSPARC with 1 MB SuperCache (SS10-41, SS10-51, SS20-60).
memory_system_config supersparc_with_l2();

// Alpha 21064 with the given external-cache size (512 KB / 2 MB).
memory_system_config alpha21064(std::size_t l2_bytes);

// A tiny configuration for unit tests (64-byte direct-mapped L1, no L2):
// small enough that tests can reason about every line.
memory_system_config test_tiny();

}  // namespace ilp::memsim
