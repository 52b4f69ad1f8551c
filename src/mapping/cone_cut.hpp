#pragma once
// K-feasible cuts on combinational cones (the FlowMap network construction).
//
// For a root t with fanin labels already fixed, the question "is there a cut
// of t's fanin cone whose cut nodes all have label <= h and whose size is at
// most limit?" reduces to a max-flow <= limit test on the node-split cone
// network: nodes with label > h (and the root) collapse into the sink, every
// other cone node gets capacity 1, and cone leaves hang off the source. The
// test runs on the node-capacity kernel of graph/node_cut.hpp over the
// cone's fanin lists; its cut is the residual source side of the maximum
// flow, which is the same for every maximum flow.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/node_cut.hpp"
#include "netlist/circuit.hpp"

namespace turbosyn {

/// Reusable buffers for min_height_cut: the node -> cone-index map is a
/// per-circuit-node vector cleared in O(1) by an epoch stamp, so a FlowMap
/// pass that tests every gate allocates nothing in steady state.
struct ConeCutScratch {
  std::vector<std::uint32_t> stamp;  // per circuit node; == epoch: in the cone
  std::vector<std::int32_t> index;   // per circuit node: dense cone index
  std::uint32_t epoch = 0;
  std::vector<NodeId> cone;
  std::vector<std::int32_t> fanin_begin;
  std::vector<std::int32_t> fanin_end;
  std::vector<std::int32_t> fanin_pool;
  std::vector<std::int64_t> capacity;
  std::vector<std::uint8_t> role;
  NodeCut kernel;
};

/// Minimum cut of root's combinational fanin cone with all cut-node labels
/// <= height_limit; nullopt if every such cut has more than size_limit
/// nodes (or height_limit < 0). The returned cut is in deterministic node
/// order, never contains the root, and covers every path into the cone.
/// All edges in the cone must have weight 0. Pass a scratch to reuse its
/// buffers across calls (one per thread).
std::optional<std::vector<NodeId>> min_height_cut(const Circuit& c, NodeId root,
                                                  std::span<const int> label, int height_limit,
                                                  int size_limit,
                                                  ConeCutScratch* scratch = nullptr);

}  // namespace turbosyn
