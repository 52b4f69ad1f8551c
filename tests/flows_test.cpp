// End-to-end tests of the three flows on hand-built circuits and the tiny
// synthetic suite. The invariants checked here are the paper's core claims:
//   - the mapped network's exact MDR ratio never exceeds the reported phi;
//   - the mapped (un-retimed) network is cycle-accurate equivalent to the
//     input circuit from the all-zero initial state;
//   - TurboSYN's phi is never worse than TurboMap's, and on the Figure-1
//     circuit it is strictly better (ratio 1 vs 2 at K=3).

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "core/flows.hpp"
#include "netlist/blif.hpp"
#include "netlist/canonical.hpp"
#include "retime/cycle_ratio.hpp"
#include "retime/retiming.hpp"
#include "sim/simulator.hpp"
#include "workloads/generator.hpp"
#include "workloads/samples.hpp"

namespace turbosyn {
namespace {

// Sequential mapping absorbs registers into LUTs, but zero-state-safe cut
// selection (see expanded.hpp) guarantees the recomputed pre-history matches
// the registers' power-up zeros, so the un-retimed mapped network matches
// the original from cycle 0 — no warm-up transient.
void expect_equivalent(const Circuit& a, const Circuit& b, int cycles, std::uint64_t seed,
                       int warmup = 0) {
  ASSERT_EQ(a.num_pis(), b.num_pis());
  ASSERT_EQ(a.num_pos(), b.num_pos());
  Rng rng(seed);
  const auto stimulus = random_stimulus(rng, a.num_pis(), cycles);
  const auto out_a = simulate_sequence(a, stimulus);
  const auto out_b = simulate_sequence(b, stimulus);
  for (int t = warmup; t < cycles; ++t) {
    ASSERT_EQ(out_a[static_cast<std::size_t>(t)], out_b[static_cast<std::size_t>(t)])
        << "outputs diverge at cycle " << t;
  }
}

TEST(Flows, Figure1TurboMapNeedsRatio2) {
  const Circuit c = figure1_circuit();
  FlowOptions opt;
  opt.k = 3;
  const FlowResult r = run_turbomap(c, opt);
  EXPECT_EQ(r.phi, 2);
  EXPECT_LE(r.exact_mdr, Rational(2));
  expect_equivalent(c, r.mapped, 64, 11);
}

TEST(Flows, Figure1TurboSynReachesRatio1) {
  const Circuit c = figure1_circuit();
  FlowOptions opt;
  opt.k = 3;
  const FlowResult r = run_turbosyn(c, opt);
  EXPECT_EQ(r.phi, 1);
  EXPECT_LE(r.exact_mdr, Rational(1));
  EXPECT_LE(r.period, 1);
  expect_equivalent(c, r.mapped, 64, 12);
}

TEST(Flows, RingCollapsesUnderWideLuts) {
  // 4 unit-delay XOR stages, 2 registers: input MDR = 2. At K=5 TurboMap can
  // cover two stages per LUT, reaching ratio 1.
  const Circuit c = ring_circuit(4, 2);
  EXPECT_EQ(circuit_mdr(c).ratio, Rational(2));
  FlowOptions opt;
  opt.k = 5;
  const FlowResult r = run_turbomap(c, opt);
  EXPECT_EQ(r.phi, 1);
  expect_equivalent(c, r.mapped, 64, 13);
}

TEST(Flows, FlowSynSBaselineIsEquivalentAndMeasured) {
  const Circuit c = figure1_circuit();
  FlowOptions opt;
  opt.k = 3;
  const FlowResult r = run_flowsyn_s(c, opt);
  EXPECT_GE(r.phi, 1);
  EXPECT_LE(Rational(r.phi - 1), r.exact_mdr);  // phi = ceil(mdr) (or 1)
  expect_equivalent(c, r.mapped, 64, 14);
}

class TinySuiteFlows : public ::testing::TestWithParam<int> {};

TEST_P(TinySuiteFlows, AllThreeFlowsProduceValidEquivalentMappings) {
  const BenchmarkSpec spec = tiny_suite()[static_cast<std::size_t>(GetParam())];
  const Circuit c = generate_fsm_circuit(spec);
  FlowOptions opt;
  opt.k = 5;

  const FlowResult tm = run_turbomap(c, opt);
  EXPECT_LE(tm.exact_mdr, Rational(tm.phi)) << spec.name;
  EXPECT_TRUE(tm.mapped.is_k_bounded(opt.k));
  expect_equivalent(c, tm.mapped, 48, spec.seed);

  const FlowResult ts = run_turbosyn(c, opt);
  EXPECT_LE(ts.exact_mdr, Rational(ts.phi)) << spec.name;
  EXPECT_LE(ts.phi, tm.phi) << spec.name;  // decomposition never hurts phi
  EXPECT_TRUE(ts.mapped.is_k_bounded(opt.k));
  expect_equivalent(c, ts.mapped, 48, spec.seed + 1);

  const FlowResult fs = run_flowsyn_s(c, opt);
  EXPECT_TRUE(fs.mapped.is_k_bounded(opt.k));
  expect_equivalent(c, fs.mapped, 48, spec.seed + 2);
  // TurboSYN should stay within one step of the FF-cutting baseline on the
  // ratio. The extra +1 is the price of zero-state safety: a LUT may not
  // recompute a register-crossed gate whose function is 1 on all-zero inputs
  // (see expanded.hpp), so a loop the baseline sweeps away (or that an
  // unrestricted crossing cut would collapse) can cost one extra LUT level.
  const Rational fs_bound = fs.exact_mdr < Rational(1) ? Rational(1) : fs.exact_mdr + Rational(1);
  EXPECT_LE(Rational(ts.phi), fs_bound + Rational(1));
}

INSTANTIATE_TEST_SUITE_P(AllTiny, TinySuiteFlows, ::testing::Range(0, 6));

TEST(Flows, ZeroStateSafetyKeepsNonResynchronizingLoopsExact) {
  // Regression for a miscompilation found by the flow fuzzer (seed 10): a
  // cut crossed a register through a gate whose function is 1 on all-zero
  // inputs, so the LUT booted into a state the original circuit never
  // visits, and on parity-style loops the outputs disagreed at EVERY cycle,
  // past any warmup. Zero-state-safe cuts keep such gates on the cut (read
  // through real registers), making the mapping exact from cycle 0.
  std::mt19937_64 rng(10 * 0x9e3779b97f4a7c15ull + 1);
  BenchmarkSpec spec;
  spec.name = "fuzz10";
  spec.seed = 10;
  spec.num_pis = 2 + static_cast<int>(rng() % 4);
  spec.num_pos = 2 + static_cast<int>(rng() % 4);
  spec.num_gates = 10 + static_cast<int>(rng() % 22);
  spec.feedback = 0.05 + 0.25 * (static_cast<double>(rng() % 1000) / 1000.0);
  spec.max_fanin = 2 + static_cast<int>(rng() % 3);
  spec.locality = 6 + static_cast<int>(rng() % 13);
  spec.exotic_gate_ratio = 0.35 * (static_cast<double>(rng() % 1000) / 1000.0);
  const Circuit c = generate_fsm_circuit(spec);
  FlowOptions opt;
  opt.k = 4;
  const FlowResult tm = run_turbomap(c, opt);
  expect_equivalent(c, tm.mapped, 256, 10, /*warmup=*/0);
  const FlowResult ts = run_turbosyn(c, opt);
  expect_equivalent(c, ts.mapped, 256, 11, /*warmup=*/0);
}

TEST(Flows, TurboMapPeriodModeMatchesRetimingBound) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[0]);
  FlowOptions opt;
  opt.k = 5;
  const FlowResult r = run_turbomap_period(c, opt);
  // The label-theoretic optimum never exceeds the achieved (measured) period,
  // which in turn never exceeds the unmapped circuit's period.
  EXPECT_EQ(circuit_clock_period(r.mapped), r.period);
  EXPECT_LE(r.phi, r.period);
  EXPECT_LE(r.period, circuit_clock_period(c));
}

TEST(Flows, PldOffGivesSameAnswerAsPldOn) {
  for (int i = 0; i < 3; ++i) {
    const Circuit c = generate_fsm_circuit(tiny_suite()[static_cast<std::size_t>(i)]);
    FlowOptions on;
    on.k = 4;
    FlowOptions off = on;
    off.use_pld = false;
    const FlowResult a = run_turbomap(c, on);
    const FlowResult b = run_turbomap(c, off);
    EXPECT_EQ(a.phi, b.phi);
    // PLD must never need more sweeps than the n^2 criterion.
    EXPECT_LE(a.stats.sweeps, b.stats.sweeps);
  }
}

// TurboSYN on Table-1 s1 with default options, pinned to the sequential
// sweep's result. The decomposition update is not monotone, so any other
// update order can settle on a different fixpoint at the same phi (a
// batched order gave 540 LUTs / 54 FFs here): default options must not
// depend on the host's core count.
TEST(Flows, TurboSynS1MatchesSequentialSweep) {
  const auto suite = table1_suite();
  const auto s1 = std::find_if(suite.begin(), suite.end(),
                               [](const BenchmarkSpec& s) { return s.name == "s1"; });
  ASSERT_NE(s1, suite.end());
  const FlowResult r = run_turbosyn(generate_fsm_circuit(*s1), FlowOptions{});
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.phi, 4);
  EXPECT_EQ(r.luts, 417);
  EXPECT_EQ(r.ffs, 47);
  EXPECT_EQ(fnv1a64(write_blif_string(r.mapped)), 0x7a32803240bee283ULL);
}

/// `a` with every multi-input gate computing the parity of its fanins: the
/// same nodes, edges and registers, hence the same (root, cut) pairs, with
/// other cut functions.
Circuit with_parity_gates(const Circuit& a) {
  Circuit b;
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    NodeId id = kNoNode;
    if (a.is_pi(v)) {
      id = b.add_pi(a.name(v));
    } else if (a.is_gate(v)) {
      id = b.declare_gate(a.name(v));
    } else {
      const Circuit::Edge& e = a.edge(a.fanin_edges(v)[0]);
      TS_CHECK(e.from < v, "PO driver must precede the PO");
      id = b.add_po(a.name(v), {e.from, e.weight});
    }
    TS_CHECK(id == v, "node ids must carry over");
  }
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    if (!a.is_gate(v)) continue;
    std::vector<Circuit::FaninSpec> fanins;
    for (const EdgeId e : a.fanin_edges(v)) fanins.push_back({a.edge(e).from, a.edge(e).weight});
    const int n = static_cast<int>(fanins.size());
    TruthTable f = a.function(v);
    if (n >= 2) {
      f = TruthTable::var(n, 0);
      for (int i = 1; i < n; ++i) f = f ^ TruthTable::var(n, i);
    }
    b.finish_gate(v, f, fanins);
  }
  b.validate();
  return b;
}

// Everything a label engine caches lives and dies with the engine; nothing
// may be keyed on a circuit's address. Circuit B (circuit A with other gate
// functions, so the same (root, cut) pairs carry other cut functions) is
// built in the storage A vacated after A's engine and flow ran, and must
// label and map exactly like a fresh B. B's result is also pinned, so a
// cache shared by every run of the process cannot pass by polluting the
// fresh run the same way.
TEST(Flows, CircuitInReusedStorageMatchesAFreshRun) {
  const BenchmarkSpec spec = tiny_suite()[1];
  FlowOptions opt;
  opt.collect_artifacts = true;
  const LabelOptions lopts = opt.label_options(/*enable_decomposition=*/true);
  constexpr int kPhiB = 2;

  std::optional<Circuit> slot;
  slot.emplace(generate_fsm_circuit(spec));
  {
    LabelEngine engine_a(*slot, lopts);
    (void)engine_a.compute(kPhiB);
    (void)run_turbosyn(*slot, opt);
  }
  slot.reset();
  slot.emplace(with_parity_gates(generate_fsm_circuit(spec)));
  LabelEngine engine_b(*slot, lopts);
  const LabelResult labels = engine_b.compute(kPhiB);
  const FlowResult r = run_turbosyn(*slot, opt);
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_GT(r.stats.cut_fn_misses, 0);  // B's flow does extract cut functions

  const Circuit fresh_b = with_parity_gates(generate_fsm_circuit(spec));
  const LabelResult expected_labels = compute_labels(fresh_b, kPhiB, lopts);
  const FlowResult expected = run_turbosyn(fresh_b, opt);
  EXPECT_EQ(labels.feasible, expected_labels.feasible);
  EXPECT_EQ(labels.labels, expected_labels.labels);
  EXPECT_EQ(r.phi, expected.phi);
  EXPECT_EQ(r.artifacts.labels.labels, expected.artifacts.labels.labels);
  EXPECT_EQ(r.luts, expected.luts);
  EXPECT_EQ(r.ffs, expected.ffs);
  const std::uint64_t hash = fnv1a64(write_blif_string(r.mapped));
  EXPECT_EQ(hash, fnv1a64(write_blif_string(expected.mapped)));
  EXPECT_EQ(r.phi, kPhiB);
  EXPECT_EQ(r.luts, 17);
  EXPECT_EQ(r.ffs, 11);
  EXPECT_EQ(hash, 0xe7bc56130a4eefa5ULL);
}

}  // namespace
}  // namespace turbosyn
