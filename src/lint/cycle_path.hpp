// cycle_path.hpp — the cycle search RTL-001 and GATE-001 share.

#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace osss::lint::detail {

/// The first cycle an iterative DFS meets over `nodes` (roots and inputs
/// in id order, a node's inputs in its `ins`): the entry node, then the
/// path back round to it.  Empty when acyclic, or when any input lies past
/// the last node (no edge can be trusted then).  No cycle passes through a
/// node `boundary` marks (sequential and primary nodes).
template <class Node, class Boundary>
std::vector<std::uint32_t> cycle_path(const std::vector<Node>& nodes,
                                      Boundary&& boundary) {
  const auto n = static_cast<std::uint32_t>(nodes.size());
  for (const Node& node : nodes)
    for (const std::uint32_t in : node.ins)
      if (in >= n) return {};
  std::vector<std::uint8_t> color(n, 0);  // 0 white, 1 on stack, 2 done
  std::vector<std::uint32_t> parent(n, n);
  std::vector<std::pair<std::uint32_t, std::size_t>> stack;  // node, next in
  for (std::uint32_t root = 0; root < n; ++root) {
    if (color[root] != 0 || boundary(nodes[root])) continue;
    stack.assign(1, {root, 0});
    color[root] = 1;
    while (!stack.empty()) {
      auto& [id, next] = stack.back();
      const auto& in_list = nodes[id].ins;
      if (next >= in_list.size()) {
        color[id] = 2;
        stack.pop_back();
        continue;
      }
      const std::uint32_t in = in_list[next++];
      if (boundary(nodes[in]) || color[in] == 2) continue;
      if (color[in] == 1) {  // back edge: `in` is an ancestor of `id`
        std::vector<std::uint32_t> loop;
        for (std::uint32_t cur = id; cur != in; cur = parent[cur])
          loop.push_back(cur);
        loop.push_back(in);
        std::reverse(loop.begin(), loop.end());
        return loop;
      }
      color[in] = 1;
      parent[in] = id;
      stack.emplace_back(in, 0);
    }
  }
  return {};
}

}  // namespace osss::lint::detail
