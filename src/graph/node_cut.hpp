#pragma once
// Node-capacity minimum cut over a fanin CSR, with implicit node splitting.
//
// Every K-feasible cut test of FlowMap/FlowSYN, TurboMap and TurboSYN asks
// the same question of a network whose nodes (not arcs) carry capacities:
// "does the max-flow from the source to the sink exceed the limit, and if
// not, which nodes does a minimum cut cross?" NodeCut answers it directly on
// the caller's fanin lists. Node i stands for two halves, in(i) -> out(i),
// joined by an arc of capacity capacity[i] (kInfinity: the node can never
// be cut); every fanin j of i contributes an infinite arc out(j) -> in(i).
// A node flagged kFromSource receives an infinite arc from the source; a
// node flagged kSink has its in-half merged into the sink (its own fanins
// feed the sink, its fanouts are ignored).
//
// compute() runs augmenting-path search (depth-first, one path per search,
// so each search is O(nodes + fanin slots)) and stops as soon as the flow
// exceeds the limit, so with unit capacities a K-cut test needs at most K+1
// searches plus the final failing one. When the flow stays within the
// limit, the final search's visited set is the set of vertices reachable
// from the source in the residual graph. That set is the same for every
// maximum flow (it is the intersection of all minimum-cut source sides), so
// the cut reported — the nodes whose in-half is reachable and whose out-half
// is not — does not depend on which augmenting paths were taken.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace turbosyn {

/// A node-capacitated flow network over n = capacity.size() nodes. The
/// fanins of node i are fanin_pool[fanin_begin[i] .. fanin_end[i]); runs
/// may sit anywhere in the pool and empty runs may use any begin == end.
struct NodeCutNetwork {
  std::span<const std::int32_t> fanin_begin;
  std::span<const std::int32_t> fanin_end;
  std::span<const std::int32_t> fanin_pool;
  std::span<const std::int64_t> capacity;  // per node; NodeCut::kInfinity = uncuttable
  std::span<const std::uint8_t> role;      // per node; kFromSource | kSink bits
};

/// Reusable min-cut kernel: buffers persist across compute() calls, so a
/// long run of cut tests reaches a zero-allocation steady state.
class NodeCut {
 public:
  static constexpr std::int64_t kInfinity = std::numeric_limits<std::int64_t>::max() / 4;
  static constexpr std::uint8_t kFromSource = 1;
  static constexpr std::uint8_t kSink = 2;

  /// Max-flow from the source to the sink, stopping early (returning a value
  /// > limit) once the flow strictly exceeds `limit`; a path of uncuttable
  /// nodes from the source to the sink returns kInfinity. `augment_budget`
  /// (0 = unlimited) bounds the augmenting paths of this call: when it fires
  /// before the flow is settled, compute() returns limit + 1 and
  /// augment_budget_hit() reports that the verdict was imposed, not proven.
  std::int64_t compute(const NodeCutNetwork& net, std::int64_t limit,
                       std::int64_t augment_budget = 0);

  /// True iff the last compute() was cut short by its augmentation budget.
  bool augment_budget_hit() const { return budget_hit_; }

  /// Augmenting paths found by the last compute().
  std::int64_t last_augmentations() const { return augments_; }

  /// After a compute() that returned a value <= limit: the cut nodes in
  /// ascending index order. Their capacities sum to the returned value.
  std::span<const std::int32_t> cut() const { return cut_; }

 private:
  // One step of the depth-first search: vertex 2i = in(i), 2i+1 = out(i).
  // `via` names the arc that entered the vertex: a fanin slot (the forward
  // arc out(pool[s]) -> in(owner[s]) when entering an in-half, its residual
  // reverse when entering an out-half) or kViaNode for the in(i) <-> out(i)
  // arc (forward into an out-half, reverse into an in-half). `cursor` is the
  // next outgoing arc to try.
  struct Frame {
    std::int32_t vertex;
    std::int32_t via;
    std::int32_t cursor;
  };
  static constexpr std::int32_t kViaNode = -1;

  void prepare(const NodeCutNetwork& net);
  /// One augmenting-path search. Returns the path's bottleneck (kInfinity
  /// for an all-uncuttable path) with the path on stack_, or 0 when the sink
  /// is unreachable — then visit_ marks the residual source side.
  std::int64_t search(const NodeCutNetwork& net);
  std::int64_t residual(const NodeCutNetwork& net, const Frame& f) const;
  void augment(std::int64_t delta);
  bool visited(std::int32_t vertex) const {
    return visit_[static_cast<std::size_t>(vertex)] == epoch_;
  }

  std::vector<std::int64_t> node_flow_;  // flow through in(i) -> out(i)
  std::vector<std::int64_t> slot_flow_;  // flow on out(pool[s]) -> in(owner[s])
  std::vector<std::int32_t> slot_owner_;
  std::vector<std::int32_t> fanout_offset_;  // fanout CSR over fanin slots
  std::vector<std::int32_t> fanout_slot_;
  std::vector<std::int32_t> sources_;
  std::vector<std::uint32_t> visit_;  // per vertex; == epoch_ means visited
  std::uint32_t epoch_ = 0;
  std::vector<Frame> stack_;
  std::vector<std::int32_t> cut_;
  std::int64_t augments_ = 0;
  bool budget_hit_ = false;
};

}  // namespace turbosyn
