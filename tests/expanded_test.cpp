// Dedicated coverage of the expanded circuit E_v and its partial flow
// network: register-count bookkeeping, mandatory/allowed classification,
// frontier handling, node budgets and the low-cost (sharing-aware) cut rule.

#include "core/expanded.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "base/check.hpp"
#include "core/labeling.hpp"
#include "netlist/gates.hpp"
#include "workloads/generator.hpp"
#include "workloads/samples.hpp"

namespace turbosyn {
namespace {

std::vector<int> base_labels(const Circuit& c) {
  std::vector<int> labels(static_cast<std::size_t>(c.num_nodes()), 1);
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    if (c.is_source(v)) labels[static_cast<std::size_t>(v)] = 0;
  }
  return labels;
}

TEST(Expanded, TrivialFaninCutAtHeightLPlusOne) {
  // With all fanins at eff+1 <= H, the fanin cut is found immediately.
  Circuit c;
  const NodeId a = c.add_pi("a");
  const NodeId b = c.add_pi("b");
  const Circuit::FaninSpec f[2] = {{a, 0}, {b, 1}};
  const NodeId g = c.add_gate("g", tt_and(2), f);
  c.add_po("$po:o", {g, 0});
  const auto labels = base_labels(c);
  ExpandedNetwork net(c, labels, 1, g, 1, ExpandedOptions{});
  const auto cut = net.find_cut(2);
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(cut->size(), 2u);
  EXPECT_EQ((*cut)[0], (SeqCutNode{a, 0}));
  EXPECT_EQ((*cut)[1], (SeqCutNode{b, 1}));
  EXPECT_EQ(net.cut_function(*cut), tt_and(2));
}

TEST(Expanded, MandatoryPiBlocksTheCut) {
  // Height limit below every PI copy's requirement: no cut exists.
  Circuit c;
  const NodeId a = c.add_pi("a");
  const Circuit::FaninSpec f[1] = {{a, 0}};
  const NodeId g = c.add_gate("g", tt_not(), f);
  c.add_po("$po:o", {g, 0});
  const auto labels = base_labels(c);
  // H = 0: (a,0) needs eff+1 = 1 <= 0 -> mandatory -> uncuttable path.
  ExpandedNetwork net(c, labels, 1, g, 0, ExpandedOptions{});
  EXPECT_FALSE(net.find_cut(4).has_value());
}

TEST(Expanded, RegisteredPiCopyBecomesAllowed) {
  // Same shape but the edge carries a register: eff(a,1) = -phi, so the copy
  // is allowed even at H = 0.
  Circuit c;
  const NodeId a = c.add_pi("a");
  const Circuit::FaninSpec f[1] = {{a, 1}};
  const NodeId g = c.add_gate("g", tt_not(), f);
  c.add_po("$po:o", {g, 0});
  const auto labels = base_labels(c);
  ExpandedNetwork net(c, labels, 1, g, 0, ExpandedOptions{});
  const auto cut = net.find_cut(4);
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ((*cut)[0], (SeqCutNode{a, 1}));
}

TEST(Expanded, LoopUnrollsWithIncreasingRegisterCounts) {
  const Circuit c = figure1_circuit();
  const NodeId g2 = c.find("g2");
  std::vector<int> labels(static_cast<std::size_t>(c.num_nodes()), 2);
  for (const NodeId pi : c.pis()) labels[static_cast<std::size_t>(pi)] = 0;
  // At H = 2 the zero-register copy of g1 (eff+1 = 3) is mandatory, so any
  // cut through the loop uses copies behind at least one register.
  ExpandedNetwork net(c, labels, 1, g2, 2, ExpandedOptions{});
  EXPECT_GE(net.num_expanded_nodes(), 6);
  const auto cut = net.find_cut(15);
  ASSERT_TRUE(cut.has_value());
  for (const SeqCutNode& n : *cut) {
    if (n.node == g2 || n.node == c.find("g1")) {
      EXPECT_GE(n.w, 1);
    }
  }
}

TEST(Expanded, NodeBudgetMakesQueryUnviable) {
  const Circuit c = figure1_circuit();
  const NodeId g2 = c.find("g2");
  std::vector<int> labels(static_cast<std::size_t>(c.num_nodes()), 2);
  for (const NodeId pi : c.pis()) labels[static_cast<std::size_t>(pi)] = 0;
  ExpandedOptions opt;
  opt.node_budget = 2;
  ExpandedNetwork net(c, labels, 1, g2, 5, opt);
  EXPECT_FALSE(net.viable());
  EXPECT_FALSE(net.find_cut(15).has_value());
}

TEST(Expanded, LowCostCutPrefersSharedSignals) {
  // Diamond: root over u (from a,b) and v (from a,b): min cuts are {u,v} and
  // {a,b}; marking {a,b} as shared must steer the choice there.
  Circuit c;
  const NodeId a = c.add_pi("a");
  const NodeId b = c.add_pi("b");
  const Circuit::FaninSpec f[2] = {{a, 0}, {b, 0}};
  const NodeId u = c.add_gate("u", tt_and(2), f);
  const NodeId v = c.add_gate("v", tt_or(2), f);
  const Circuit::FaninSpec fr[2] = {{u, 0}, {v, 0}};
  const NodeId r = c.add_gate("r", tt_xor(2), fr);
  c.add_po("$po:o", {r, 0});
  std::vector<int> labels(static_cast<std::size_t>(c.num_nodes()), 0);
  labels[static_cast<std::size_t>(u)] = 1;
  labels[static_cast<std::size_t>(v)] = 1;
  labels[static_cast<std::size_t>(r)] = 2;

  const auto prefer_pis = [&](const SeqCutNode& n) { return c.is_pi(n.node); };
  ExpandedNetwork net(c, labels, 1, r, 2, ExpandedOptions{});
  const auto cut = net.find_low_cost_cut(2, prefer_pis);
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(*cut, (std::vector<SeqCutNode>{{a, 0}, {b, 0}}));

  const auto prefer_gates = [&](const SeqCutNode& n) { return c.is_gate(n.node); };
  ExpandedNetwork net2(c, labels, 1, r, 2, ExpandedOptions{});
  const auto cut2 = net2.find_low_cost_cut(2, prefer_gates);
  ASSERT_TRUE(cut2.has_value());
  EXPECT_EQ(*cut2, (std::vector<SeqCutNode>{{u, 0}, {v, 0}}));
}

TEST(Expanded, LowCostNeverExceedsMinCutSize) {
  const Circuit c = lfsr_circuit(6, std::vector<int>{2, 4});
  std::vector<int> labels(static_cast<std::size_t>(c.num_nodes()), 1);
  for (const NodeId pi : c.pis()) labels[static_cast<std::size_t>(pi)] = 0;
  for (NodeId g = 0; g < c.num_nodes(); ++g) {
    if (!c.is_gate(g) || c.fanin_edges(g).empty()) continue;
    ExpandedNetwork plain(c, labels, 2, g, 1, ExpandedOptions{});
    const auto min_cut = plain.find_cut(6);
    ExpandedNetwork weighted(c, labels, 2, g, 1, ExpandedOptions{});
    const auto lc = weighted.find_low_cost_cut(6, [](const SeqCutNode&) { return false; });
    ASSERT_EQ(min_cut.has_value(), lc.has_value());
    if (min_cut) {
      EXPECT_EQ(min_cut->size(), lc->size());
    }
  }
}

TEST(Expanded, CutFunctionComposesAcrossRegisters) {
  // Two buffers with a register between them: the cut {(a,1)} computes BUF.
  Circuit c;
  const NodeId a = c.add_pi("a");
  const Circuit::FaninSpec f1[1] = {{a, 1}};
  const NodeId g1 = c.add_gate("g1", tt_not(), f1);
  const Circuit::FaninSpec f2[1] = {{g1, 0}};
  const NodeId g2 = c.add_gate("g2", tt_not(), f2);
  c.add_po("$po:o", {g2, 0});
  const auto labels = base_labels(c);
  ExpandedNetwork net(c, labels, 1, g2, 2, ExpandedOptions{});
  const auto cut = net.find_cut(2);
  ASSERT_TRUE(cut.has_value());
  if (cut->size() == 1 && (*cut)[0].node == a) {
    EXPECT_EQ(net.cut_function(*cut), tt_buf());  // NOT of NOT
  }
}

// ---- cross-check against exhaustive enumeration over the copies ----

/// One separating set of allowed copies, scored for both cut queries.
struct CopyCut {
  std::vector<SeqCutNode> nodes;  // sorted
  int non_shared = 0;
  std::size_t side = 0;  // split vertices reachable from the source
};

/// Every set of at most k allowed non-root copies whose removal separates
/// the source from the root in E_v (in(i) = 2i, out(i) = 2i+1). Returns the
/// minimum-size set with the smallest reachable side and, for the low-cost
/// rule, the (size, #non-shared)-minimal set with the smallest side.
struct EnumeratedCuts {
  std::optional<CopyCut> plain;
  std::optional<CopyCut> low_cost;
};

EnumeratedCuts enumerate_copy_cuts(const ExpandedNetwork& net, const std::vector<bool>& allowed,
                                   int root, int k,
                                   const std::function<bool(const SeqCutNode&)>& shared) {
  const int n = net.num_expanded_nodes();
  std::vector<std::vector<int>> fanouts(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (const std::int32_t j : net.fanins(i)) fanouts[static_cast<std::size_t>(j)].push_back(i);
  }
  std::vector<int> cuttable;
  for (int i = 0; i < n; ++i) {
    if (allowed[static_cast<std::size_t>(i)] && i != root) cuttable.push_back(i);
  }
  EnumeratedCuts best;
  std::vector<bool> blocked(static_cast<std::size_t>(n), false);
  std::vector<bool> reach;
  std::vector<int> queue;
  const auto separates = [&](std::size_t& side) {
    reach.assign(static_cast<std::size_t>(2 * n), false);
    queue.clear();
    bool hit = false;
    const auto enter_in = [&](int i) {
      if (i == root) {
        hit = true;
      } else if (!reach[static_cast<std::size_t>(2 * i)]) {
        reach[static_cast<std::size_t>(2 * i)] = true;
        queue.push_back(2 * i);
      }
    };
    for (int i = 0; i < n; ++i) {
      if (!net.expanded(i)) enter_in(i);
    }
    for (std::size_t h = 0; h < queue.size() && !hit; ++h) {
      const int x = queue[h];
      if (x % 2 == 0) {
        if (!blocked[static_cast<std::size_t>(x / 2)] && !reach[static_cast<std::size_t>(x + 1)]) {
          reach[static_cast<std::size_t>(x + 1)] = true;
          queue.push_back(x + 1);
        }
      } else {
        for (const int t : fanouts[static_cast<std::size_t>(x / 2)]) enter_in(t);
      }
    }
    side = static_cast<std::size_t>(std::count(reach.begin(), reach.end(), true));
    return !hit;
  };
  // All subsets of size <= k, by recursion over the cuttable list.
  std::vector<int> chosen;
  const auto consider = [&] {
    std::size_t side = 0;
    if (!separates(side)) return;
    CopyCut cut;
    for (const int i : chosen) {
      cut.nodes.push_back(net.copy(i));
      if (!shared(net.copy(i))) ++cut.non_shared;
    }
    std::sort(cut.nodes.begin(), cut.nodes.end());
    cut.side = side;
    const auto size_of = [](const CopyCut& c) { return c.nodes.size(); };
    if (!best.plain || size_of(cut) < size_of(*best.plain) ||
        (size_of(cut) == size_of(*best.plain) && side < best.plain->side)) {
      best.plain = cut;
    }
    const auto cost = [](const CopyCut& c) {
      return std::make_pair(c.nodes.size(), c.non_shared);
    };
    if (!best.low_cost || cost(cut) < cost(*best.low_cost) ||
        (cost(cut) == cost(*best.low_cost) && side < best.low_cost->side)) {
      best.low_cost = cut;
    }
  };
  const auto recurse = [&](auto&& self, std::size_t from) -> void {
    consider();
    if (static_cast<int>(chosen.size()) == k) return;
    for (std::size_t p = from; p < cuttable.size(); ++p) {
      chosen.push_back(cuttable[p]);
      blocked[static_cast<std::size_t>(cuttable[p])] = true;
      self(self, p + 1);
      blocked[static_cast<std::size_t>(cuttable[p])] = false;
      chosen.pop_back();
    }
  };
  recurse(recurse, 0);
  return best;
}

TEST(Expanded, CutsMatchExhaustiveEnumeration) {
  // Every gate of the tiny suite, bbara and s298, at several (phi, H): the
  // kernel's find_cut and find_low_cost_cut must equal the enumeration's
  // minimal-source-side optimum over the copies of E_v.
  std::vector<BenchmarkSpec> specs = tiny_suite();
  for (const BenchmarkSpec& s : table1_suite()) {
    if (s.name == "bbara" || s.name == "s298") specs.push_back(s);
  }
  constexpr int kK = 4;
  constexpr int kMaxCuttable = 14;  // keeps the enumeration small
  const std::function<bool(const SeqCutNode&)> shared = [](const SeqCutNode& id) {
    return (id.node * 7 + id.w) % 3 == 0;
  };
  int checked = 0;
  int with_cut = 0;
  ExpandedNetwork net;
  for (const BenchmarkSpec& spec : specs) {
    const Circuit c = generate_fsm_circuit(spec);
    for (const int phi : {1, 2, 3}) {
      LabelResult lr = compute_labels(c, phi, LabelOptions{});
      if (!lr.feasible) lr.labels = base_labels(c);
      const std::vector<int>& labels = lr.labels;
      for (NodeId v = 0; v < c.num_nodes(); ++v) {
        if (!c.is_gate(v) || c.fanin_edges(v).empty()) continue;
        const int l = labels[static_cast<std::size_t>(v)];
        for (const int h : {l - 1, l}) {
          net.build(c, labels, phi, v, h, ExpandedOptions{});
          if (!net.viable()) continue;
          const int n = net.num_expanded_nodes();
          std::vector<bool> allowed(static_cast<std::size_t>(n));
          int root = -1;
          int cuttable = 0;
          for (int i = 0; i < n; ++i) {
            const SeqCutNode id = net.copy(i);
            allowed[static_cast<std::size_t>(i)] =
                labels[static_cast<std::size_t>(id.node)] - phi * id.w + 1 <= h;
            if (id.node == v && id.w == 0) {
              root = i;
            } else if (allowed[static_cast<std::size_t>(i)]) {
              ++cuttable;
            }
          }
          if (cuttable > kMaxCuttable) continue;
          const EnumeratedCuts expect = enumerate_copy_cuts(net, allowed, root, kK, shared);
          const auto cut = net.find_cut(kK);
          ASSERT_EQ(cut.has_value(), expect.plain.has_value()) << spec.name << " v" << v;
          if (cut && expect.plain) {
            EXPECT_EQ(*cut, expect.plain->nodes) << spec.name << " v" << v;
            ++with_cut;
          }
          const auto low = net.find_low_cost_cut(kK, shared);
          ASSERT_EQ(low.has_value(), expect.low_cost.has_value()) << spec.name << " v" << v;
          if (low && expect.low_cost) {
            EXPECT_EQ(*low, expect.low_cost->nodes) << spec.name << " v" << v;
          }
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 1500);  // 1598 queries at the time of writing
  EXPECT_GT(with_cut, 400);  // 447 of them with a cut
}

}  // namespace
}  // namespace turbosyn
