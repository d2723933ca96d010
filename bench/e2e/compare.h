// `bench_e2e compare`: parent-vs-change verdicts over repeated runs.
#pragma once

#include <string>
#include <vector>

namespace ilp::bench_e2e {

// args: [--bounds=BENCHMARK.json] PARENT.json... -- CHANGE.json...
// Returns 0 when no gated metric reads worse, 1 when one does, 2 on bad
// input.
int run_compare(const std::vector<std::string>& args);

}  // namespace ilp::bench_e2e
