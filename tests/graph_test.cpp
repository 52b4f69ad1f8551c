#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "base/rng.hpp"

#include "base/check.hpp"
#include "graph/bellman_ford.hpp"
#include "graph/digraph.hpp"
#include "graph/node_cut.hpp"
#include "graph/scc.hpp"

namespace turbosyn {
namespace {

Digraph chain(int n) {
  Digraph g;
  g.add_nodes(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

TEST(Digraph, AdjacencyBookkeeping) {
  Digraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const EdgeId e = g.add_edge(a, b, 3);
  EXPECT_EQ(g.num_nodes(), 2);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.edge(e).from, a);
  EXPECT_EQ(g.edge(e).to, b);
  EXPECT_EQ(g.weight(e), 3);
  EXPECT_EQ(g.fanout_count(a), 1);
  EXPECT_EQ(g.fanin_count(b), 1);
  EXPECT_THROW(g.add_edge(a, 5), Error);
}

TEST(Scc, ChainHasSingletonComponentsInTopoOrder) {
  const Digraph g = chain(5);
  const SccDecomposition scc = strongly_connected_components(g);
  ASSERT_EQ(scc.components.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(scc.component_of[static_cast<std::size_t>(i)], i);
  }
}

TEST(Scc, DetectsCycleComponent) {
  Digraph g;
  g.add_nodes(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 1);  // cycle {1,2}
  g.add_edge(2, 3);
  const SccDecomposition scc = strongly_connected_components(g);
  ASSERT_EQ(scc.components.size(), 3u);
  EXPECT_EQ(scc.component_of[1], scc.component_of[2]);
  // Topological: 0 before {1,2} before 3.
  EXPECT_LT(scc.component_of[0], scc.component_of[1]);
  EXPECT_LT(scc.component_of[2], scc.component_of[3]);
}

TEST(Scc, SkipEdgePredicateBreaksCycles) {
  Digraph g;
  g.add_nodes(2);
  g.add_edge(0, 1, 0);
  const EdgeId back = g.add_edge(1, 0, 1);
  const SccDecomposition with_all = strongly_connected_components(g);
  EXPECT_EQ(with_all.components.size(), 1u);
  const SccDecomposition without =
      strongly_connected_components(g, [&](EdgeId e) { return e == back; });
  EXPECT_EQ(without.components.size(), 2u);
}

TEST(Topo, OrdersRespectEdges) {
  Digraph g;
  g.add_nodes(4);
  g.add_edge(2, 0);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const std::vector<NodeId> order = topological_order(g);
  std::vector<int> pos(4);
  for (std::size_t i = 0; i < order.size(); ++i) pos[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  EXPECT_LT(pos[2], pos[0]);
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[2], pos[3]);
}

TEST(Topo, ThrowsOnCycle) {
  Digraph g;
  g.add_nodes(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  EXPECT_THROW((void)topological_order(g), Error);
}

TEST(BellmanFord, NoPositiveCycleOnDag) {
  const Digraph g = chain(4);
  const auto result = find_positive_cycle(g, [](EdgeId) { return 100; });
  EXPECT_FALSE(result.found);
}

TEST(BellmanFord, FindsPositiveCycleAndItsEdges) {
  Digraph g;
  g.add_nodes(3);
  g.add_edge(0, 1);
  const EdgeId e1 = g.add_edge(1, 2);
  const EdgeId e2 = g.add_edge(2, 1);
  const auto result = find_positive_cycle(g, [&](EdgeId e) { return e == e1 ? 2 : -1; });
  ASSERT_TRUE(result.found);
  // The cycle 1 -> 2 -> 1 has cost 2 - 1 = 1 > 0.
  ASSERT_EQ(result.edges.size(), 2u);
  EXPECT_TRUE((result.edges[0] == e1 && result.edges[1] == e2) ||
              (result.edges[0] == e2 && result.edges[1] == e1));
}

TEST(BellmanFord, ZeroCostCycleIsNotPositive) {
  Digraph g;
  g.add_nodes(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  const auto result = find_positive_cycle(g, [](EdgeId) { return 0; });
  EXPECT_FALSE(result.found);
}

// ---- NodeCut ----

constexpr std::int64_t kInf = NodeCut::kInfinity;

/// A node-capacitated network assembled node by node (fanins first).
struct TestNet {
  std::vector<std::int32_t> begin;
  std::vector<std::int32_t> end;
  std::vector<std::int32_t> pool;
  std::vector<std::int64_t> capacity;
  std::vector<std::uint8_t> role;

  int add(std::int64_t cap, std::uint8_t r, const std::vector<int>& fanins = {}) {
    begin.push_back(static_cast<std::int32_t>(pool.size()));
    for (const int j : fanins) pool.push_back(j);
    end.push_back(static_cast<std::int32_t>(pool.size()));
    capacity.push_back(cap);
    role.push_back(r);
    return static_cast<int>(capacity.size()) - 1;
  }
  int size() const { return static_cast<int>(capacity.size()); }
  NodeCutNetwork view() const { return NodeCutNetwork{begin, end, pool, capacity, role}; }
};

std::vector<std::int32_t> cut_of(const NodeCut& k) {
  return std::vector<std::int32_t>(k.cut().begin(), k.cut().end());
}

TEST(NodeCut, SimpleBipartite) {
  // source -> {a, b} -> sink with unit node capacities.
  TestNet net;
  const int a = net.add(1, NodeCut::kFromSource);
  const int b = net.add(1, NodeCut::kFromSource);
  net.add(0, NodeCut::kSink, {a, b});
  NodeCut k;
  EXPECT_EQ(k.compute(net.view(), 100), 2);
  EXPECT_EQ(cut_of(k), (std::vector<std::int32_t>{a, b}));
}

TEST(NodeCut, RespectsLimitWithEarlyExit) {
  TestNet net;
  std::vector<int> parallel(10);
  for (int& node : parallel) node = net.add(1, NodeCut::kFromSource);
  net.add(0, NodeCut::kSink, parallel);
  NodeCut k;
  EXPECT_GT(k.compute(net.view(), 3), 3);  // stops early, reports "exceeds limit"
  EXPECT_EQ(k.last_augmentations(), 4);
  EXPECT_FALSE(k.augment_budget_hit());
}

TEST(NodeCut, MinCutSourceSide) {
  // a (10) -> b (1, the bottleneck) -> c (10) -> sink.
  TestNet net;
  const int a = net.add(10, NodeCut::kFromSource);
  const int b = net.add(1, 0, {a});
  const int c = net.add(10, 0, {b});
  net.add(0, NodeCut::kSink, {c});
  NodeCut k;
  EXPECT_EQ(k.compute(net.view(), 100), 1);
  EXPECT_EQ(cut_of(k), (std::vector<std::int32_t>{b}));
}

TEST(NodeCut, NodeSplitCutIdentifiesNodes) {
  // Diamond: s -> a -> {b, c} -> d -> t, unit nodes. Both {a} and {d} are
  // minimum cuts; the residual source side is the minimal one, so {a}.
  TestNet net;
  const int a = net.add(1, NodeCut::kFromSource);
  const int b = net.add(1, 0, {a});
  const int c = net.add(1, 0, {a});
  const int d = net.add(1, 0, {b, c});
  net.add(0, NodeCut::kSink, {d});
  NodeCut k;
  EXPECT_EQ(k.compute(net.view(), 100), 1);
  EXPECT_EQ(cut_of(k), (std::vector<std::int32_t>{a}));
}

TEST(NodeCut, AugmentBudgetImposesNoCut) {
  TestNet net;
  const int a = net.add(1, NodeCut::kFromSource);
  const int b = net.add(1, NodeCut::kFromSource);
  net.add(0, NodeCut::kSink, {a, b});
  NodeCut k;
  EXPECT_EQ(k.compute(net.view(), 5, /*augment_budget=*/1), 6);
  EXPECT_TRUE(k.augment_budget_hit());
  EXPECT_EQ(k.last_augmentations(), 1);
  EXPECT_EQ(k.compute(net.view(), 5, /*augment_budget=*/3), 2);  // settles within budget
  EXPECT_FALSE(k.augment_budget_hit());
}

TEST(NodeCut, UncuttablePathIsUnbounded) {
  TestNet net;
  const int a = net.add(kInf, NodeCut::kFromSource);
  net.add(0, NodeCut::kSink, {a});
  NodeCut k;
  EXPECT_EQ(k.compute(net.view(), 7), kInf);
  TestNet direct;  // a sink fed by the source
  direct.add(0, NodeCut::kSink | NodeCut::kFromSource);
  EXPECT_EQ(k.compute(direct.view(), 7), kInf);
}

/// Split-vertex ids shared by the two oracles: in(v) = 2v, out(v) = 2v+1.
/// True iff the sink is reachable from the source when the node arcs of the
/// nodes in `blocked` are removed; `reach` receives the reached vertices.
bool sink_reachable(const TestNet& net, const std::vector<bool>& blocked,
                    std::vector<bool>& reach) {
  const int n = net.size();
  reach.assign(static_cast<std::size_t>(2 * n), false);
  std::vector<std::vector<int>> fanouts(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (std::int32_t s = net.begin[static_cast<std::size_t>(i)];
         s < net.end[static_cast<std::size_t>(i)]; ++s) {
      fanouts[static_cast<std::size_t>(net.pool[static_cast<std::size_t>(s)])].push_back(i);
    }
  }
  std::deque<int> queue;
  bool hit = false;
  const auto enter_in = [&](int v) {
    if ((net.role[static_cast<std::size_t>(v)] & NodeCut::kSink) != 0) {
      hit = true;
    } else if (!reach[static_cast<std::size_t>(2 * v)]) {
      reach[static_cast<std::size_t>(2 * v)] = true;
      queue.push_back(2 * v);
    }
  };
  for (int v = 0; v < n; ++v) {
    if ((net.role[static_cast<std::size_t>(v)] & NodeCut::kFromSource) != 0) enter_in(v);
  }
  while (!queue.empty()) {
    const int x = queue.front();
    queue.pop_front();
    const int v = x / 2;
    if (x % 2 == 0) {
      if (!blocked[static_cast<std::size_t>(v)] && !reach[static_cast<std::size_t>(x + 1)]) {
        reach[static_cast<std::size_t>(x + 1)] = true;
        queue.push_back(x + 1);
      }
    } else {
      for (const int k : fanouts[static_cast<std::size_t>(v)]) enter_in(k);
    }
  }
  return hit;
}

struct OracleCut {
  bool bounded = false;  // some finite cut exists
  std::int64_t value = 0;
  std::vector<std::int32_t> cut;
};

/// Exhaustive oracle: every subset of the cuttable (finite, non-sink)
/// nodes; the minimum-capacity separating subsets, and among them the one
/// whose reachable source side is smallest (the minimal source side).
OracleCut enumerate_cuts(const TestNet& net) {
  std::vector<int> cuttable;
  for (int v = 0; v < net.size(); ++v) {
    if (net.capacity[static_cast<std::size_t>(v)] < kInf &&
        (net.role[static_cast<std::size_t>(v)] & NodeCut::kSink) == 0) {
      cuttable.push_back(v);
    }
  }
  OracleCut best;
  std::size_t best_side = 0;
  std::vector<bool> reach;
  for (std::uint32_t mask = 0; mask < (1u << cuttable.size()); ++mask) {
    std::vector<bool> blocked(static_cast<std::size_t>(net.size()), false);
    std::int64_t cost = 0;
    for (std::size_t b = 0; b < cuttable.size(); ++b) {
      if ((mask >> b) & 1u) {
        blocked[static_cast<std::size_t>(cuttable[b])] = true;
        cost += net.capacity[static_cast<std::size_t>(cuttable[b])];
      }
    }
    if (sink_reachable(net, blocked, reach)) continue;
    const std::size_t side = static_cast<std::size_t>(std::count(reach.begin(), reach.end(), true));
    if (!best.bounded || cost < best.value || (cost == best.value && side < best_side)) {
      best.bounded = true;
      best.value = cost;
      best_side = side;
      best.cut.clear();
      for (const int v : cuttable) {
        if (blocked[static_cast<std::size_t>(v)]) best.cut.push_back(v);
      }
    }
  }
  return best;
}

/// Dense-matrix Edmonds–Karp on the explicitly split network: source 2n,
/// sink 2n+1. The cut is read off the residual source side.
OracleCut edmonds_karp(const TestNet& net) {
  const int n = net.size();
  const int src = 2 * n;
  const int snk = 2 * n + 1;
  const int m = 2 * n + 2;
  std::vector<std::int64_t> matrix(static_cast<std::size_t>(m) * static_cast<std::size_t>(m), 0);
  const auto cap = [&](int x, int y) -> std::int64_t& {
    return matrix[static_cast<std::size_t>(x) * static_cast<std::size_t>(m) +
                  static_cast<std::size_t>(y)];
  };
  const auto has = [&](int v, std::uint8_t bit) {
    return (net.role[static_cast<std::size_t>(v)] & bit) != 0;
  };
  const auto in_of = [&](int v) { return has(v, NodeCut::kSink) ? snk : 2 * v; };
  for (int v = 0; v < n; ++v) {
    if (!has(v, NodeCut::kSink)) cap(2 * v, 2 * v + 1) = net.capacity[static_cast<std::size_t>(v)];
    if (has(v, NodeCut::kFromSource)) cap(src, in_of(v)) = kInf;
    for (std::int32_t s = net.begin[static_cast<std::size_t>(v)];
         s < net.end[static_cast<std::size_t>(v)]; ++s) {
      const int j = net.pool[static_cast<std::size_t>(s)];
      if (!has(j, NodeCut::kSink)) cap(2 * j + 1, in_of(v)) = kInf;  // a sink has no out-half
    }
  }
  OracleCut result;
  std::int64_t flow = 0;
  std::vector<int> parent;
  const auto bfs = [&] {
    parent.assign(static_cast<std::size_t>(m), -1);
    parent[static_cast<std::size_t>(src)] = src;
    std::deque<int> queue{src};
    while (!queue.empty()) {
      const int x = queue.front();
      queue.pop_front();
      for (int y = 0; y < m; ++y) {
        if (parent[static_cast<std::size_t>(y)] == -1 && cap(x, y) > 0) {
          parent[static_cast<std::size_t>(y)] = x;
          queue.push_back(y);
        }
      }
    }
    return parent[static_cast<std::size_t>(snk)] != -1;
  };
  const auto up = [&](int y) { return parent[static_cast<std::size_t>(y)]; };
  while (bfs()) {
    std::int64_t delta = kInf;
    for (int y = snk; y != src; y = up(y)) delta = std::min(delta, cap(up(y), y));
    // Infinite arcs keep at least kInf minus the (small) finite flow, so a
    // bottleneck that large means a path of uncuttable nodes: unbounded.
    if (delta >= kInf / 2) return result;
    for (int y = snk; y != src; y = up(y)) {
      cap(up(y), y) -= delta;
      cap(y, up(y)) += delta;
    }
    flow += delta;
  }
  result.bounded = true;
  result.value = flow;
  for (int v = 0; v < n; ++v) {
    if (!has(v, NodeCut::kSink) && up(2 * v) != -1 && up(2 * v + 1) == -1) result.cut.push_back(v);
  }
  return result;
}

/// Random DAG over at most 12 cuttable nodes: nodes only read earlier
/// nodes; capacities unit, infinite, or the low-cost weights B and B+1;
/// source-fed leaves or random source-fed nodes; one or more sinks.
TestNet random_network(Rng& rng) {
  TestNet net;
  const int n = static_cast<int>(rng.next_in(2, 14));
  const bool weighted = rng.next_bool();
  const std::int64_t b = rng.next_in(2, 7);
  const int source_shape = static_cast<int>(rng.next_in(0, 2));
  int cuttable = 0;
  for (int v = 0; v < n; ++v) {
    const int arity = v == 0 ? 0 : static_cast<int>(rng.next_in(0, std::min(v, 3)));
    std::vector<int> fanins(static_cast<std::size_t>(arity));
    for (int& f : fanins) f = static_cast<int>(rng.next_in(0, v - 1));
    std::uint8_t r = 0;
    const bool last = v == n - 1;
    if (last || rng.next_bool(0.1)) r |= NodeCut::kSink;
    if (source_shape == 0 ? fanins.empty() : rng.next_bool(source_shape == 1 ? 0.3 : 0.6)) {
      if (!(r & NodeCut::kSink) || rng.next_bool(0.05)) r |= NodeCut::kFromSource;
    }
    std::int64_t cap = kInf;
    if ((r & NodeCut::kSink) == 0 && cuttable < 12 && !rng.next_bool(0.25)) {
      cap = weighted ? b + (rng.next_bool() ? 1 : 0) : 1;
      ++cuttable;
    }
    net.add(cap, r, fanins);
  }
  return net;
}

TEST(NodeCut, MatchesExhaustiveEnumeration) {
  Rng rng(20241019);
  NodeCut kernel;
  int bounded_cases = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    const TestNet net = random_network(rng);
    const OracleCut brute = enumerate_cuts(net);
    const OracleCut ek = edmonds_karp(net);
    ASSERT_EQ(brute.bounded, ek.bounded) << "trial " << trial;
    if (brute.bounded) {
      ASSERT_EQ(brute.value, ek.value) << "trial " << trial;
      ASSERT_EQ(brute.cut, ek.cut) << "trial " << trial;
      ++bounded_cases;
    }
    const std::int64_t exact = brute.bounded ? brute.value : kInf - 1;
    for (const std::int64_t limit :
         {std::int64_t{0}, exact - 1, exact, exact + 1, rng.next_in(0, 30)}) {
      if (limit < 0 || limit >= kInf) continue;
      const std::int64_t value = kernel.compute(net.view(), limit);
      const bool exceeds = !brute.bounded || brute.value > limit;
      ASSERT_EQ(value > limit, exceeds) << "trial " << trial << " limit " << limit;
      if (!exceeds) {
        EXPECT_EQ(value, brute.value) << "trial " << trial;
        EXPECT_EQ(cut_of(kernel), brute.cut) << "trial " << trial;
      }
    }
  }
  EXPECT_GT(bounded_cases, 500);  // the generator exercises real cuts
}

}  // namespace
}  // namespace turbosyn
