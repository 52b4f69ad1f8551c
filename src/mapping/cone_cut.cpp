#include "mapping/cone_cut.hpp"

#include <algorithm>

#include "base/check.hpp"

namespace turbosyn {

std::optional<std::vector<NodeId>> min_height_cut(const Circuit& c, NodeId root,
                                                  std::span<const int> label, int height_limit,
                                                  int size_limit, ConeCutScratch* scratch) {
  TS_CHECK(size_limit >= 1, "cut size limit must be positive");
  if (height_limit < 0) return std::nullopt;

  ConeCutScratch local;
  ConeCutScratch& s = scratch != nullptr ? *scratch : local;
  const std::size_t num_nodes = static_cast<std::size_t>(c.num_nodes());
  if (s.stamp.size() < num_nodes) {
    s.stamp.resize(num_nodes, 0);
    s.index.resize(num_nodes, 0);
  }
  if (++s.epoch == 0) {  // wrapped: stamps from 2^32 calls ago are stale
    std::fill(s.stamp.begin(), s.stamp.end(), 0);
    s.epoch = 1;
  }
  // Collect the fanin cone (root included) over zero-weight edges, and its
  // fanin lists as the kernel's CSR. Every cone node is expanded, including
  // those that may sit on the cut: cuts deeper than a splittable node matter.
  const CsrTopology& topo = c.topology();
  s.cone.assign(1, root);
  s.stamp[static_cast<std::size_t>(root)] = s.epoch;
  s.index[static_cast<std::size_t>(root)] = 0;
  s.fanin_begin.clear();
  s.fanin_end.clear();
  s.fanin_pool.clear();
  for (std::size_t i = 0; i < s.cone.size(); ++i) {
    const NodeId v = s.cone[i];
    s.fanin_begin.push_back(static_cast<std::int32_t>(s.fanin_pool.size()));
    const std::int32_t begin = topo.fanin_offset[static_cast<std::size_t>(v)];
    const std::int32_t end = topo.fanin_offset[static_cast<std::size_t>(v) + 1];
    for (std::int32_t slot = begin; slot < end; ++slot) {
      TS_CHECK(topo.fanin_weight[static_cast<std::size_t>(slot)] == 0,
               "min_height_cut crossed a registered edge");
      const NodeId u = topo.fanin_src[static_cast<std::size_t>(slot)];
      const std::size_t uu = static_cast<std::size_t>(u);
      if (s.stamp[uu] != s.epoch) {
        s.stamp[uu] = s.epoch;
        s.index[uu] = static_cast<std::int32_t>(s.cone.size());
        s.cone.push_back(u);
      }
      s.fanin_pool.push_back(s.index[uu]);
    }
    s.fanin_end.push_back(static_cast<std::int32_t>(s.fanin_pool.size()));
  }

  // Collapsed nodes (the root, label > height_limit) are sinks; splittable
  // nodes have capacity 1; splittable cone leaves attach to the source. A
  // collapsed leaf (can only be the root as a constant) is neither.
  const std::size_t n = s.cone.size();
  s.capacity.assign(n, 1);
  s.role.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId v = s.cone[i];
    if (v == root || label[static_cast<std::size_t>(v)] > height_limit) {
      s.role[i] = NodeCut::kSink;
    } else if (s.fanin_begin[i] == s.fanin_end[i]) {
      s.role[i] = NodeCut::kFromSource;
    }
  }

  const std::int64_t value =
      s.kernel.compute(NodeCutNetwork{s.fanin_begin, s.fanin_end, s.fanin_pool, s.capacity, s.role},
                       size_limit);
  if (value > size_limit) return std::nullopt;

  std::vector<NodeId> cut;
  cut.reserve(s.kernel.cut().size());
  for (const std::int32_t i : s.kernel.cut()) cut.push_back(s.cone[static_cast<std::size_t>(i)]);
  std::sort(cut.begin(), cut.end());
  TS_ASSERT(static_cast<std::int64_t>(cut.size()) == value);
  return cut;
}

}  // namespace turbosyn
