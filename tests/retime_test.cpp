#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "core/flows.hpp"
#include "netlist/gates.hpp"
#include "retime/cycle_ratio.hpp"
#include "retime/pipeline.hpp"
#include "retime/retiming.hpp"
#include "sim/simulator.hpp"
#include "verify/audit.hpp"
#include "workloads/generator.hpp"
#include "workloads/samples.hpp"

namespace turbosyn {
namespace {

/// Linear pipeline: pi -> g0 -> g1 -> ... -> po with the given edge weights.
Circuit pipeline_chain(std::span<const int> weights) {
  Circuit c;
  NodeId prev = c.add_pi("in");
  int prev_w = weights.empty() ? 0 : weights[0];
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    const Circuit::FaninSpec fanins[1] = {{prev, prev_w}};
    prev = c.add_gate("g" + std::to_string(i), tt_not(), fanins);
    prev_w = weights[i + 1];
  }
  c.add_po("$po:out", {prev, prev_w});
  c.validate();
  return c;
}

TEST(ClockPeriod, LongestCombinationalPath) {
  // in -> g0 -> g1 -> g2 (no registers) -> po: period = 3.
  EXPECT_EQ(circuit_clock_period(pipeline_chain(std::vector<int>{0, 0, 0, 0})), 3);
  // A register in the middle halves it.
  EXPECT_EQ(circuit_clock_period(pipeline_chain(std::vector<int>{0, 0, 1, 0})), 2);
}

TEST(Retiming, BalancesAPipeline) {
  // All registers piled at the input: retiming should spread them out.
  Circuit c = pipeline_chain(std::vector<int>{3, 0, 0, 0});
  EXPECT_EQ(circuit_clock_period(c), 3);
  EXPECT_EQ(retime_min_period(c), 1);
  EXPECT_EQ(circuit_clock_period(c), 1);
}

TEST(Retiming, PreservesCycleWeights) {
  Circuit c = generate_fsm_circuit(tiny_suite()[1]);
  const Digraph before = c.to_digraph();
  const auto mdr_before = circuit_mdr(c);
  retime_min_period(c);
  // Retiming is a potential transformation: every cycle keeps its register
  // count, so the MDR ratio is invariant.
  EXPECT_EQ(circuit_mdr(c).ratio, mdr_before.ratio);
  EXPECT_EQ(c.num_edges(), before.num_edges());
}

TEST(Retiming, PipelineBehaviorPreservedAfterWarmup) {
  Circuit original = pipeline_chain(std::vector<int>{3, 0, 0, 0});
  Circuit retimed = original;
  retime_min_period(retimed);
  Rng rng(41);
  const auto stimulus = random_stimulus(rng, 1, 64);
  const auto a = simulate_sequence(original, stimulus);
  const auto b = simulate_sequence(retimed, stimulus);
  // Acyclic circuit: outputs depend only on the last few inputs, so after a
  // warm-up of the total register depth the streams coincide.
  for (std::size_t t = 4; t < a.size(); ++t) EXPECT_EQ(a[t], b[t]) << t;
}

TEST(Retiming, InfeasibleBelowMdrBound) {
  // Ring of 4 gates, 2 registers: MDR = 2, so period 1 is impossible under
  // retiming alone.
  const Circuit c = ring_circuit(4, 2);
  const Digraph g = c.to_digraph();
  std::vector<int> delay(static_cast<std::size_t>(c.num_nodes()));
  for (NodeId v = 0; v < c.num_nodes(); ++v) delay[static_cast<std::size_t>(v)] = c.delay(v);
  std::vector<NodeId> pinned(c.pis().begin(), c.pis().end());
  pinned.insert(pinned.end(), c.pos().begin(), c.pos().end());
  EXPECT_FALSE(feasible_retiming(g, delay, 1, pinned).has_value());
  EXPECT_TRUE(feasible_retiming(g, delay, 2, pinned).has_value());
}

TEST(Retiming, MinPeriodNeverExceedsInitialPeriod) {
  for (const auto& spec : tiny_suite()) {
    Circuit c = generate_fsm_circuit(spec);
    const std::int64_t before = circuit_clock_period(c);
    const std::int64_t after = retime_min_period(c);
    EXPECT_LE(after, before) << spec.name;
    EXPECT_EQ(after, circuit_clock_period(c)) << spec.name;
  }
}

// ---- W/D table vs. independent references ----

std::vector<int> delays_of(const Circuit& c) {
  std::vector<int> delay(static_cast<std::size_t>(c.num_nodes()));
  for (NodeId v = 0; v < c.num_nodes(); ++v) delay[static_cast<std::size_t>(v)] = c.delay(v);
  return delay;
}

std::vector<NodeId> io_of(const Circuit& c) {
  std::vector<NodeId> pinned(c.pis().begin(), c.pis().end());
  pinned.insert(pinned.end(), c.pos().begin(), c.pos().end());
  return pinned;
}

/// Textbook Leiserson–Saxe feasibility, sharing no code with the library:
/// W/D by Floyd–Warshall on lexicographic (registers, -delay) weights, then
/// Bellman–Ford over an explicit constraint list. Answers yes/no only.
bool reference_feasible(const Digraph& g, std::span<const int> delay, std::int64_t c,
                        std::span<const NodeId> pinned) {
  const std::size_t n = static_cast<std::size_t>(g.num_nodes());
  for (const int d : delay) {
    if (d > c) return false;
  }
  constexpr std::int64_t kInf = std::int64_t{1} << 40;
  // path[u][v] = (W, -(D - delay(u))) over paths of at least one edge.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> path(
      n, std::vector<std::pair<std::int64_t, std::int64_t>>(n, {kInf, 0}));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& edge = g.edge(e);
    auto& best = path[static_cast<std::size_t>(edge.from)][static_cast<std::size_t>(edge.to)];
    best = std::min(best, {edge.weight, -delay[static_cast<std::size_t>(edge.to)]});
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t u = 0; u < n; ++u) {
      if (path[u][k].first >= kInf) continue;
      for (std::size_t v = 0; v < n; ++v) {
        if (path[k][v].first >= kInf) continue;
        path[u][v] = std::min(path[u][v], {path[u][k].first + path[k][v].first,
                                           path[u][k].second + path[k][v].second});
      }
    }
  }
  struct Constraint {
    std::size_t u, v;
    std::int64_t bound;  // r(u) - r(v) <= bound
  };
  std::vector<Constraint> constraints;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& edge = g.edge(e);
    constraints.push_back({static_cast<std::size_t>(edge.from), static_cast<std::size_t>(edge.to),
                           edge.weight});
  }
  for (std::size_t i = 1; i < pinned.size(); ++i) {
    const auto a = static_cast<std::size_t>(pinned[0]);
    const auto b = static_cast<std::size_t>(pinned[i]);
    constraints.push_back({a, b, 0});
    constraints.push_back({b, a, 0});
  }
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (path[u][v].first < kInf && delay[u] - path[u][v].second > c) {
        constraints.push_back({u, v, path[u][v].first - 1});
      }
    }
  }
  std::vector<std::int64_t> r(n, 0);
  for (std::size_t round = 0; round <= n; ++round) {
    bool relaxed = false;
    for (const Constraint& k : constraints) {
      if (r[k.v] + k.bound < r[k.u]) {
        r[k.u] = r[k.v] + k.bound;
        relaxed = true;
      }
    }
    if (!relaxed) return true;
  }
  return false;
}

/// For every period from ceil(MDR) to the clock period and every pipeline
/// depth s, one RetimingTable must agree with feasible_retiming on a freshly
/// pipelined digraph (same lags) and with the textbook reference, and every
/// lag vector must be legal and meet the period on the pipelined circuit.
void check_table_against_oracles(const Circuit& c) {
  const Digraph g = c.to_digraph();
  const std::vector<int> delay = delays_of(c);
  const std::vector<NodeId> pinned = io_of(c);
  const std::int64_t lo = std::max<std::int64_t>(1, circuit_mdr(c).ratio.ceil());
  const std::int64_t hi = circuit_clock_period(c);
  RetimingTable table(g, delay, pinned, lo, c.pis(), c.pos());
  int feasible_answers = 0;
  for (const int s : {0, 1, 2, 4, 8}) {
    Circuit piped = c;
    pipeline_inputs(piped, s);
    pipeline_outputs(piped, s);
    const Digraph pg = piped.to_digraph();
    for (std::int64_t period = lo; period <= hi; ++period) {
      SCOPED_TRACE("s=" + std::to_string(s) + " c=" + std::to_string(period));
      const auto from_table = table.solve(period, s);
      const auto fresh = feasible_retiming(pg, delay, period, pinned);
      ASSERT_EQ(from_table.has_value(), fresh.has_value());
      EXPECT_EQ(from_table.has_value(), reference_feasible(pg, delay, period, pinned));
      if (!from_table.has_value()) continue;
      ++feasible_answers;
      EXPECT_EQ(*from_table, *fresh);
      EXPECT_EQ(audit_retiming_legality(piped, *from_table, pinned), std::nullopt);
      Circuit retimed = piped;
      apply_retiming(retimed, *from_table);
      EXPECT_LE(circuit_clock_period(retimed), period);
    }
  }
  EXPECT_GT(feasible_answers, 0);  // the clock period itself is always feasible
  EXPECT_GT(table.solves(), 0);
  EXPECT_GE(table.bf_rounds(), table.solves());
}

TEST(RetimingTable, AgreesWithFreshSolvesOnTinySuite) {
  for (const auto& spec : tiny_suite()) {
    SCOPED_TRACE(spec.name);
    check_table_against_oracles(generate_fsm_circuit(spec));
  }
}

TEST(RetimingTable, AgreesWithFreshSolvesOnMappedTable1Circuits) {
  FlowOptions opt;
  opt.num_threads = 1;
  opt.pipeline = false;
  for (const auto& spec : table1_suite()) {
    if (spec.name != "bbara" && spec.name != "s298" && spec.name != "dk16") continue;
    SCOPED_TRACE(spec.name);
    check_table_against_oracles(run_turbomap(generate_fsm_circuit(spec), opt).mapped);
  }
}

TEST(RetimingTable, InfeasiblePeriodStopsAtTheFirstNegativeCycle) {
  // Ring of 4 gates, 2 registers: MDR = 2, so period 1 is infeasible and a
  // negative cycle shows up in the parent graph long before round |V| + 1.
  const Circuit c = ring_circuit(4, 2);
  const Digraph g = c.to_digraph();
  const std::vector<int> delay = delays_of(c);
  const std::vector<NodeId> pinned = io_of(c);
  RetimingTable table(g, delay, pinned, 1);
  EXPECT_FALSE(table.solve(1).has_value());
  EXPECT_EQ(table.solves(), 1);
  EXPECT_LT(table.bf_rounds(), g.num_nodes() + 1);
  EXPECT_TRUE(table.solve(2).has_value());
}

TEST(RetimingTable, RejectsPeriodsBelowItsFloorAndBadPipelineEnds) {
  const Circuit c = ring_circuit(4, 2);
  const Digraph g = c.to_digraph();
  const std::vector<int> delay = delays_of(c);
  const std::vector<NodeId> pinned = io_of(c);
  RetimingTable table(g, delay, pinned, 3);
  EXPECT_FALSE(table.solve(0).has_value());  // below the single-node delay
  EXPECT_THROW((void)table.solve(2), Error);
  EXPECT_THROW((void)table.solve(3, -1), Error);
  // A PO has a fanin, so it cannot be a pipelined input; the ring's PI has
  // fanouts, so it cannot be a pipelined output.
  EXPECT_THROW(RetimingTable(g, delay, pinned, 3, c.pos(), {}), Error);
  EXPECT_THROW(RetimingTable(g, delay, pinned, 3, {}, c.pis()), Error);
}

TEST(Pipelining, ReportsSolveCounters) {
  Circuit c = generate_fsm_circuit(tiny_suite()[0]);
  const PipelineResult p = pipeline_and_retime(c);
  EXPECT_GT(p.solves, 0);
  EXPECT_GE(p.bf_rounds, p.solves);
}

// ---- MDR ratio ----

TEST(CycleRatio, AcyclicIsZero) {
  const Circuit c = pipeline_chain(std::vector<int>{1, 0, 1, 0});
  EXPECT_EQ(circuit_mdr(c).ratio, Rational(0));
  EXPECT_TRUE(circuit_mdr(c).critical_cycle.empty());
}

TEST(CycleRatio, RingHasExactRationalRatio) {
  EXPECT_EQ(circuit_mdr(ring_circuit(5, 2)).ratio, Rational(5, 2));
  EXPECT_EQ(circuit_mdr(ring_circuit(7, 3)).ratio, Rational(7, 3));
  EXPECT_EQ(circuit_mdr(ring_circuit(4, 4)).ratio, Rational(1));
}

TEST(CycleRatio, CriticalCycleAchievesTheRatio) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[3]);
  const Digraph g = c.to_digraph();
  std::vector<int> delay(static_cast<std::size_t>(c.num_nodes()));
  for (NodeId v = 0; v < c.num_nodes(); ++v) delay[static_cast<std::size_t>(v)] = c.delay(v);
  const CycleRatioResult r = max_delay_to_register_ratio(g, delay);
  ASSERT_FALSE(r.critical_cycle.empty());
  std::int64_t d_sum = 0;
  std::int64_t w_sum = 0;
  for (const EdgeId e : r.critical_cycle) {
    d_sum += delay[static_cast<std::size_t>(g.edge(e).to)];
    w_sum += g.edge(e).weight;
  }
  EXPECT_EQ(Rational(d_sum, w_sum), r.ratio);
  // Decision procedure agrees on both sides of the ratio.
  EXPECT_FALSE(has_cycle_above_ratio(g, delay, r.ratio));
  EXPECT_TRUE(has_cycle_above_ratio(g, delay, r.ratio - Rational(1, 1000)));
}

TEST(CycleRatio, CombinationalLoopThrows) {
  Circuit c;
  const NodeId a = c.add_pi("a");
  const NodeId g1 = c.declare_gate("g1");
  const NodeId g2 = c.declare_gate("g2");
  // g1 and g2 form a zero-weight cycle; bypass validate() via to_digraph.
  const Circuit::FaninSpec f1[2] = {{a, 0}, {g2, 0}};
  c.finish_gate(g1, tt_and(2), f1);
  const Circuit::FaninSpec f2[1] = {{g1, 0}};
  c.finish_gate(g2, tt_not(), f2);
  c.add_po("$po:o", {g2, 0});
  EXPECT_THROW((void)circuit_mdr(c), Error);
}

// ---- pipelining ----

TEST(Pipelining, ReachesTheMdrBoundOnPipelines) {
  // Purely feed-forward circuit: MDR = 0, so pipelining reaches period 1.
  Circuit c = pipeline_chain(std::vector<int>{0, 0, 0, 0, 0});
  const PipelineResult p = pipeline_and_retime(c);
  EXPECT_EQ(p.period, 1);
  EXPECT_GE(p.stages, 1);
  EXPECT_EQ(circuit_clock_period(c), 1);
}

TEST(Pipelining, StagesShiftOutputsByStages) {
  Circuit original = pipeline_chain(std::vector<int>{0, 0, 0});
  Circuit piped = original;
  pipeline_inputs(piped, 2);
  Rng rng(43);
  const auto stimulus = random_stimulus(rng, 1, 64);
  const auto a = simulate_sequence(original, stimulus);
  const auto b = simulate_sequence(piped, stimulus);
  for (std::size_t t = 2; t < b.size(); ++t) EXPECT_EQ(b[t], a[t - 2]);
}

TEST(Pipelining, SuiteCircuitsReachCeilOfMdr) {
  for (const auto& spec : tiny_suite()) {
    Circuit c = generate_fsm_circuit(spec);
    const Rational mdr = circuit_mdr(c).ratio;
    const PipelineResult p = pipeline_and_retime(c);
    EXPECT_GE(Rational(p.period), mdr) << spec.name;          // theory lower bound
    EXPECT_EQ(circuit_clock_period(c), p.period) << spec.name;  // achieved
  }
}

}  // namespace
}  // namespace turbosyn
