#include "analysis/graph.h"

namespace ilp::analysis {

namespace {

constexpr std::uint64_t fnv_offset = 14695981039346656037ull;
constexpr std::uint64_t fnv_prime = 1099511628211ull;

void mix_byte(std::uint64_t& h, std::uint8_t b) {
    h ^= b;
    h *= fnv_prime;
}

void mix_u64(std::uint64_t& h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix_byte(h, (v >> (8 * i)) & 0xffu);
}

void mix_str(std::uint64_t& h, const char* s) {
    for (; *s != '\0'; ++s) mix_byte(h, static_cast<std::uint8_t>(*s));
    mix_byte(h, 0);  // terminator keeps ("ab","c") != ("a","bc")
}

}  // namespace

std::uint64_t graph_hash(const stage_graph& g) {
    std::uint64_t h = fnv_offset;
    mix_byte(h, static_cast<std::uint8_t>(g.side));
    mix_byte(h, static_cast<std::uint8_t>(g.kind));
    mix_u64(h, g.trailer_reserved_bytes);
    mix_byte(h, g.out_of_order_parts ? 1 : 0);
    mix_byte(h, g.header_sizes_known ? 1 : 0);
    mix_u64(h, g.parts.size());
    for (const part_info& p : g.parts) {
        mix_u64(h, p.offset);
        mix_u64(h, p.len);
    }
    mix_u64(h, g.nodes.size());
    for (const block_node& n : g.nodes) {
        mix_str(h, n.fp.name);
        mix_u64(h, n.fp.unit_bytes);
        mix_u64(h, n.fp.reads_per_unit);
        mix_u64(h, n.fp.writes_per_unit);
        mix_byte(h, n.fp.ordering_constrained ? 1 : 0);
        mix_byte(h, n.fp.length_known_before_loop ? 1 : 0);
        mix_u64(h, n.fp.alignment);
        mix_u64(h, n.fp.aux_table_bytes);
        mix_u64(h, n.fp.trailer_bytes);
        mix_byte(h, n.fp.declared ? 1 : 0);
        mix_u64(h, n.param);
    }
    mix_u64(h, g.edges.size());
    for (const graph_edge& e : g.edges) {
        mix_u64(h, e.from);
        mix_u64(h, e.to);
    }
    return h;
}

std::optional<std::vector<std::size_t>> topo_order(const stage_graph& g) {
    const std::size_t n = g.nodes.size();
    if (g.edges.empty()) {
        // Linear chain in node order.
        std::vector<std::size_t> order(n);
        for (std::size_t i = 0; i < n; ++i) order[i] = i;
        return order;
    }
    std::vector<std::size_t> indegree(n, 0);
    for (const graph_edge& e : g.edges) {
        if (e.from >= n || e.to >= n) return std::nullopt;  // dangling edge
        ++indegree[e.to];
    }
    // Kahn's algorithm, taking ready nodes in index order so the fold is
    // deterministic for a given graph.
    std::vector<std::size_t> order;
    order.reserve(n);
    std::vector<bool> emitted(n, false);
    for (std::size_t round = 0; round < n; ++round) {
        std::size_t pick = n;
        for (std::size_t i = 0; i < n; ++i) {
            if (!emitted[i] && indegree[i] == 0) {
                pick = i;
                break;
            }
        }
        if (pick == n) return std::nullopt;  // remaining nodes form a cycle
        emitted[pick] = true;
        order.push_back(pick);
        for (const graph_edge& e : g.edges) {
            if (e.from == pick) --indegree[e.to];
        }
    }
    return order;
}

}  // namespace ilp::analysis
