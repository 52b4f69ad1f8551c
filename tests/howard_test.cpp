// Howard's algorithm and the exact MDR (Howard, certified by Bellman–Ford)
// checked against cycle enumeration on random small digraphs, and Howard
// against the Bellman–Ford decision procedure on the synthetic suites.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "netlist/gates.hpp"
#include "retime/cycle_ratio.hpp"
#include "retime/howard.hpp"
#include "workloads/generator.hpp"
#include "workloads/samples.hpp"

namespace turbosyn {
namespace {

CycleRatioResult howard_of(const Circuit& c) {
  std::vector<int> delay(static_cast<std::size_t>(c.num_nodes()));
  for (NodeId v = 0; v < c.num_nodes(); ++v) delay[static_cast<std::size_t>(v)] = c.delay(v);
  return max_cycle_ratio_howard(c.to_digraph(), delay);
}

TEST(Howard, RingRatios) {
  EXPECT_EQ(howard_of(ring_circuit(5, 2)).ratio, Rational(5, 2));
  EXPECT_EQ(howard_of(ring_circuit(7, 3)).ratio, Rational(7, 3));
  EXPECT_EQ(howard_of(ring_circuit(6, 6)).ratio, Rational(1));
}

TEST(Howard, AcyclicIsZero) {
  Circuit c;
  const NodeId a = c.add_pi("a");
  const Circuit::FaninSpec f[1] = {{a, 1}};
  const NodeId g = c.add_gate("g", tt_buf(), f);
  c.add_po("$po:o", {g, 0});
  EXPECT_EQ(howard_of(c).ratio, Rational(0));
  EXPECT_TRUE(howard_of(c).critical_cycle.empty());
}

TEST(Howard, CriticalCycleIsConsistent) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[2]);
  const Digraph g = c.to_digraph();
  const CycleRatioResult r = howard_of(c);
  ASSERT_FALSE(r.critical_cycle.empty());
  std::int64_t d_sum = 0;
  std::int64_t w_sum = 0;
  for (const EdgeId e : r.critical_cycle) {
    d_sum += c.delay(g.edge(e).to);
    w_sum += g.edge(e).weight;
  }
  EXPECT_EQ(Rational(d_sum, w_sum), r.ratio);
}

/// Two-sided certificate that `ratio` is the graph's MDR, independent of
/// the engine that produced it: the critical cycle achieves it, and
/// Bellman–Ford finds no cycle above it but one above anything smaller.
/// Distinct cycle ratios p/q differ by at least 1/(R*R) with R the total
/// register count, so ratio - 1/(R*R + 1) separates them.
void expect_certified_mdr(const Digraph& g, std::span<const int> delay,
                          const CycleRatioResult& r) {
  std::int64_t registers = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) registers += g.edge(e).weight;
  EXPECT_FALSE(has_cycle_above_ratio(g, delay, r.ratio));
  if (r.ratio == Rational(0)) return;
  EXPECT_TRUE(has_cycle_above_ratio(g, delay, r.ratio - Rational(1, registers * registers + 1)));
  ASSERT_FALSE(r.critical_cycle.empty());
  std::int64_t d_sum = 0;
  std::int64_t w_sum = 0;
  for (const EdgeId e : r.critical_cycle) {
    d_sum += delay[static_cast<std::size_t>(g.edge(e).to)];
    w_sum += g.edge(e).weight;
  }
  ASSERT_GT(w_sum, 0);
  EXPECT_EQ(Rational(d_sum, w_sum), r.ratio);
}

class HowardVsBellmanFord : public ::testing::TestWithParam<int> {};

TEST_P(HowardVsBellmanFord, EnginesAgreeOnSuiteCircuits) {
  const auto specs = tiny_suite();
  const Circuit c = generate_fsm_circuit(specs[static_cast<std::size_t>(GetParam()) % specs.size()]);
  std::vector<int> delay(static_cast<std::size_t>(c.num_nodes()));
  for (NodeId v = 0; v < c.num_nodes(); ++v) delay[static_cast<std::size_t>(v)] = c.delay(v);
  expect_certified_mdr(c.to_digraph(), delay, howard_of(c));
}

INSTANTIATE_TEST_SUITE_P(Suite, HowardVsBellmanFord, ::testing::Range(0, 6));

TEST(Howard, AgreesOnTable1Circuit) {
  const Circuit c = generate_fsm_circuit(table1_suite()[0]);
  EXPECT_EQ(howard_of(c).ratio, circuit_mdr(c).ratio);
}

/// Largest delay/registers over the simple cycles of g (edge sequences, so
/// parallel edges count separately); nullopt if some cycle has positive
/// delay and no register.
std::optional<Rational> brute_force_mdr(const Digraph& g, std::span<const int> delay) {
  Rational best(0);
  bool combinational = false;
  std::vector<bool> on_path(static_cast<std::size_t>(g.num_nodes()), false);
  // Each cycle is enumerated once, from its smallest node.
  std::function<void(NodeId, NodeId, std::int64_t, std::int64_t)> extend =
      [&](NodeId start, NodeId v, std::int64_t d, std::int64_t w) {
        for (const EdgeId e : g.fanout_edges(v)) {
          const NodeId to = g.edge(e).to;
          const std::int64_t d2 = d + delay[static_cast<std::size_t>(to)];
          const std::int64_t w2 = w + g.edge(e).weight;
          if (to == start) {
            if (w2 == 0 && d2 > 0) combinational = true;
            if (w2 > 0) best = std::max(best, Rational(d2, w2));
          } else if (to > start && !on_path[static_cast<std::size_t>(to)]) {
            on_path[static_cast<std::size_t>(to)] = true;
            extend(start, to, d2, w2);
            on_path[static_cast<std::size_t>(to)] = false;
          }
        }
      };
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    on_path[static_cast<std::size_t>(s)] = true;
    extend(s, s, 0, 0);
    on_path[static_cast<std::size_t>(s)] = false;
  }
  if (combinational) return std::nullopt;
  return best;
}

TEST(MdrOracle, MatchesCycleEnumerationOnRandomDigraphs) {
  Rng rng(2026);
  int checked = 0;
  int cyclic = 0;
  while (checked < 400) {
    Digraph g;
    const int n = static_cast<int>(rng.next_in(1, 9));
    g.add_nodes(n);
    std::vector<int> delay(static_cast<std::size_t>(n));
    for (int& d : delay) d = static_cast<int>(rng.next_in(0, 3));
    const int m = static_cast<int>(rng.next_in(0, 3 * n));
    for (int i = 0; i < m; ++i) {
      g.add_edge(static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n))),
                 static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n))),
                 rng.next_bool(0.6) ? 0 : rng.next_in(1, 3));
    }
    const std::optional<Rational> expected = brute_force_mdr(g, delay);
    if (!expected.has_value()) {
      // Combinational loop: both engines must refuse it.
      EXPECT_THROW((void)max_delay_to_register_ratio(g, delay), Error);
      continue;
    }
    ++checked;
    SCOPED_TRACE("graph " + std::to_string(checked));
    const CycleRatioResult exact = max_delay_to_register_ratio(g, delay);
    EXPECT_EQ(exact.ratio, *expected);
    EXPECT_EQ(max_cycle_ratio_howard(g, delay).ratio, *expected);
    expect_certified_mdr(g, delay, exact);
    if (*expected == Rational(0)) {
      EXPECT_TRUE(exact.critical_cycle.empty());
    } else {
      ++cyclic;
    }
  }
  EXPECT_GT(cyclic, 100);  // the generator does exercise nonzero ratios
}

TEST(Howard, CombinationalLoopThrows) {
  Circuit c;
  const NodeId a = c.add_pi("a");
  const NodeId g1 = c.declare_gate("g1");
  const NodeId g2 = c.declare_gate("g2");
  const Circuit::FaninSpec f1[2] = {{a, 0}, {g2, 0}};
  c.finish_gate(g1, tt_and(2), f1);
  const Circuit::FaninSpec f2[1] = {{g1, 0}};
  c.finish_gate(g2, tt_not(), f2);
  c.add_po("$po:o", {g2, 0});
  EXPECT_THROW((void)howard_of(c), Error);
}

}  // namespace
}  // namespace turbosyn
