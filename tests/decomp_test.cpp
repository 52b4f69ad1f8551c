#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "bdd/bdd.hpp"
#include "decomp/gate_decomp.hpp"
#include "decomp/roth_karp.hpp"
#include "netlist/gates.hpp"
#include "sim/simulator.hpp"

namespace turbosyn {
namespace {

TruthTable random_tt(Rng& rng, int vars) {
  TruthTable t = TruthTable::constant(vars, false);
  for (std::uint32_t i = 0; i < t.num_bits(); ++i) {
    if (rng.next_bool()) t.set_bit(i, true);
  }
  return t;
}

/// A random injective map of `from` variables into `to` variables.
std::vector<int> random_map(Rng& rng, int from, int to) {
  std::vector<int> targets(static_cast<std::size_t>(to));
  for (int v = 0; v < to; ++v) targets[static_cast<std::size_t>(v)] = v;
  for (int v = to - 1; v > 0; --v) {
    std::swap(targets[static_cast<std::size_t>(v)],
              targets[static_cast<std::size_t>(rng.next_in(0, v))]);
  }
  targets.resize(static_cast<std::size_t>(from));
  return targets;
}

// ---- Column multiplicity ----

TEST(ColumnMultiplicity, KnownValues) {
  // f = (x0 & x1) | x2 : cofactors over {x0, x1} are {x2, 1} -> mu = 2.
  const TruthTable f = (TruthTable::var(3, 0) & TruthTable::var(3, 1)) | TruthTable::var(3, 2);
  EXPECT_EQ(column_multiplicity_bdd(f, 2), 2u);
  EXPECT_EQ(column_classes(f, 2).multiplicity(), 2u);
  // A 2-input mux selected by a free var has mu = 4 over its two data inputs
  // (all four subfunctions of the select distinct... here: s? a : b with
  // bound {a, b}: cofactors are {0, s, !s... } -> compute both engines agree).
  const TruthTable mux = tt_mux().remap(3, std::vector<int>{2, 0, 1});  // data first
  EXPECT_EQ(column_multiplicity_bdd(mux, 2), column_classes(mux, 2).multiplicity());
}

TEST(ColumnMultiplicity, EnginesAgreeOnRandomFunctions) {
  Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    const int vars = static_cast<int>(rng.next_in(3, 11));
    const int boundary = static_cast<int>(rng.next_in(1, vars - 1));
    const TruthTable f = random_tt(rng, vars);
    EXPECT_EQ(column_multiplicity_bdd(f, boundary), column_classes(f, boundary).multiplicity())
        << "vars=" << vars << " boundary=" << boundary;
  }
}

TEST(ColumnMultiplicity, XorChainIsAlwaysTwo) {
  for (int vars = 3; vars <= 12; ++vars) {
    for (int boundary = 1; boundary < vars; ++boundary) {
      EXPECT_EQ(column_multiplicity_bdd(tt_xor(vars), boundary), 2u);
    }
  }
}

/// f(x) = maj(x0, x1, x2) XOR ... over consecutive triples, with any
/// leftover variables ANDed in.
TruthTable majority_chain(int vars) {
  TruthTable f = TruthTable::constant(vars, false);
  int v = 0;
  for (; v + 2 < vars; v += 3) {
    const TruthTable a = TruthTable::var(vars, v);
    const TruthTable b = TruthTable::var(vars, v + 1);
    const TruthTable c = TruthTable::var(vars, v + 2);
    f = f ^ ((a & b) | (a & c) | (b & c));
  }
  for (; v < vars; ++v) f = f & TruthTable::var(vars, v);
  return f;
}

void expect_same_classes(const TruthTable& f, int boundary, const std::string& what) {
  const ColumnClasses got = column_classes(f, boundary);
  const ColumnClasses want = column_classes_bdd(f, boundary);
  EXPECT_EQ(got.multiplicity(), want.multiplicity()) << what;
  EXPECT_EQ(got.code_of, want.code_of) << what;
  EXPECT_EQ(got.functions, want.functions) << what;
}

TEST(ColumnClasses, MatchTheObddClassificationExactly) {
  Rng rng(31);
  for (int vars = 3; vars <= 15; ++vars) {
    for (int boundary = 2; boundary <= std::min(5, vars - 1); ++boundary) {
      const std::string where = "vars=" + std::to_string(vars) + " b=" + std::to_string(boundary);
      expect_same_classes(TruthTable::constant(vars, false), boundary, "const0 " + where);
      expect_same_classes(TruthTable::constant(vars, true), boundary, "const1 " + where);
      expect_same_classes(tt_xor(vars), boundary, "xor " + where);
      expect_same_classes(majority_chain(vars), boundary, "majority " + where);
      for (int trial = 0; trial < (vars <= 12 ? 3 : 1); ++trial) {
        expect_same_classes(random_tt(rng, vars), boundary, "random " + where);
        // Few distinct columns: a random function of a small bound set and
        // some free variables.
        const int support = std::min(vars, boundary + 2);
        expect_same_classes(random_tt(rng, support).remap(vars, random_map(rng, support, vars)),
                            boundary, "sparse " + where);
      }
    }
  }
}

TEST(ColumnClasses, WholeAndEmptyBoundSets) {
  Rng rng(37);
  for (int vars : {1, 4, 7}) {
    const TruthTable f = random_tt(rng, vars);
    expect_same_classes(f, 0, "b=0");
    expect_same_classes(f, vars, "b=vars");
  }
}

// ---- The BDD node budget without a BDD ----

TEST(BddBudget, MatchesTheSaturatingManager) {
  Rng rng(41);
  std::vector<TruthTable> functions;
  for (int vars = 0; vars <= 9; ++vars) {
    for (int trial = 0; trial < 4; ++trial) functions.push_back(random_tt(rng, vars));
    functions.push_back(TruthTable::constant(vars, vars % 2 == 0));
    if (vars >= 1) functions.push_back(tt_xor(vars));
    if (vars >= 1) functions.push_back(majority_chain(vars));
    if (vars >= 3) {
      functions.push_back(random_tt(rng, 3).remap(vars, random_map(rng, 3, vars)));
    }
  }
  for (const TruthTable& f : functions) {
    for (std::size_t budget = 1; budget <= 64; ++budget) {
      BddManager mgr(f.num_vars(), budget, BddManager::OnBudget::kSaturate);
      (void)mgr.from_truth_table(f);
      EXPECT_EQ(robdd_exceeds_budget(f, budget), mgr.exhausted())
          << "f=" << f.to_hex() << " vars=" << f.num_vars() << " budget=" << budget;
    }
  }
}

TEST(BddBudget, FlagsDecompositionAsBudgetLimited) {
  const int m = 10;
  const TruthTable f = tt_xor(m);
  const std::vector<int> eff(static_cast<std::size_t>(m), 0);
  DecompOptions opt;
  opt.k = 5;
  const DecompResult free_run = decompose_for_label(f, eff, 2, opt);
  ASSERT_TRUE(free_run.success);
  EXPECT_FALSE(free_run.budget_limited);
  opt.bdd_node_budget = 1;
  const DecompResult starved = decompose_for_label(f, eff, 2, opt);
  EXPECT_FALSE(starved.success);
  EXPECT_TRUE(starved.budget_limited);
}

// ---- decompose_for_label ----

TEST(RothKarp, TrivialWhenFunctionFits) {
  const TruthTable f = tt_and(4);
  const std::vector<int> eff(4, 0);
  DecompOptions opt;
  opt.k = 5;
  const DecompResult r = decompose_for_label(f, eff, 1, opt);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.luts.size(), 1u);
  EXPECT_EQ(r.achieved_label, 1);
  EXPECT_TRUE(decomposition_matches(r, f));
}

TEST(RothKarp, XorChainDecomposesToDepthTwo) {
  const int m = 10;
  const TruthTable f = tt_xor(m);
  const std::vector<int> eff(static_cast<std::size_t>(m), 0);
  DecompOptions opt;
  opt.k = 5;
  const DecompResult r = decompose_for_label(f, eff, 2, opt);
  ASSERT_TRUE(r.success);
  EXPECT_LE(r.achieved_label, 2);
  EXPECT_TRUE(decomposition_matches(r, f));
}

TEST(RothKarp, CriticalInputStaysShallow) {
  // f = s ^ (a&b) ^ (c&d) with s critical (eff = 1): target 2 forces s into
  // the root while {a,b} and {c,d} go through encoders (the Figure-1 case).
  const TruthTable f = TruthTable::var(5, 0) ^
                       (TruthTable::var(5, 1) & TruthTable::var(5, 2)) ^
                       (TruthTable::var(5, 3) & TruthTable::var(5, 4));
  const std::vector<int> eff = {1, 0, 0, 0, 0};
  DecompOptions opt;
  opt.k = 3;
  const DecompResult r = decompose_for_label(f, eff, 2, opt);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.achieved_label, 2);
  EXPECT_TRUE(decomposition_matches(r, f));
  // s (input 0) must feed the root LUT directly.
  const DecompLut& root = r.luts.back();
  bool s_at_root = false;
  for (const DecompFanin& fin : root.fanins) {
    if (fin == DecompFanin::input(0)) s_at_root = true;
  }
  EXPECT_TRUE(s_at_root);
}

TEST(RothKarp, FailsWhenNoSlackAnywhere) {
  // All inputs critical and too many of them: no bound set is allowed.
  const TruthTable f = tt_xor(7);
  const std::vector<int> eff(7, 1);
  DecompOptions opt;
  opt.k = 5;
  const DecompResult r = decompose_for_label(f, eff, 2, opt);
  EXPECT_FALSE(r.success);
}

TEST(RothKarp, NonSupportInputsAreDropped) {
  // f only depends on x0, x4; the other variables came from a wide min-cut.
  const TruthTable f = TruthTable::var(6, 0) & TruthTable::var(6, 4);
  const std::vector<int> eff = {0, 5, 5, 5, 0, 5};  // junk labels on non-support
  DecompOptions opt;
  opt.k = 4;
  const DecompResult r = decompose_for_label(f, eff, 1, opt);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.achieved_label, 1);
  EXPECT_TRUE(decomposition_matches(r, f));
}

/// Expects b to be a's result with every input index i renamed to
/// input_map[i] (identity when input_map is empty).
void expect_same_decomposition(const DecompResult& a, const DecompResult& b,
                               std::span<const int> input_map, const std::string& where) {
  EXPECT_EQ(a.success, b.success) << where;
  EXPECT_EQ(a.achieved_label, b.achieved_label) << where;
  EXPECT_EQ(a.budget_limited, b.budget_limited) << where;
  ASSERT_EQ(a.luts.size(), b.luts.size()) << where;
  for (std::size_t i = 0; i < a.luts.size(); ++i) {
    EXPECT_EQ(a.luts[i].func, b.luts[i].func) << where << " lut " << i;
    ASSERT_EQ(a.luts[i].fanins.size(), b.luts[i].fanins.size()) << where << " lut " << i;
    for (std::size_t j = 0; j < a.luts[i].fanins.size(); ++j) {
      DecompFanin expected = a.luts[i].fanins[j];
      if (expected.kind == DecompFanin::Kind::kInput && !input_map.empty()) {
        expected.index = input_map[static_cast<std::size_t>(expected.index)];
      }
      EXPECT_EQ(expected, b.luts[i].fanins[j]) << where << " lut " << i << " fanin " << j;
    }
  }
}

// The label engine caches reduce_to_support of each cut function and runs
// decompose_reduced on it. On functions with don't-care inputs that must be
// decompose_for_label's result, and both must equal the search over the
// support-only function with its inputs renamed to their positions.
TEST(RothKarp, ReducedSearchMatchesDecomposeForLabel) {
  Rng rng(4049);
  int successes = 0;
  int failures = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const int real = static_cast<int>(rng.next_in(3, 10));
    const int m = real + static_cast<int>(rng.next_in(1, 5));
    // g over `real` inputs from random blocks of at most three inputs, so
    // that a decomposition often exists.
    std::vector<TruthTable> blocks;
    for (int v = 0; v < real; v += 3) {
      const int width = std::min(3, real - v);
      std::vector<TruthTable> vars;
      for (int i = 0; i < width; ++i) vars.push_back(TruthTable::var(real, v + i));
      blocks.push_back(compose(random_tt(rng, width), vars));
    }
    const TruthTable g = compose(random_tt(rng, static_cast<int>(blocks.size())), blocks);
    if (static_cast<int>(g.support().size()) != real) continue;
    // f: g's inputs at a sorted random subset of m positions, the rest
    // don't-care inputs with junk labels.
    std::vector<int> pos = random_map(rng, real, m);
    std::sort(pos.begin(), pos.end());
    const TruthTable f = g.remap(m, pos);

    const SupportReduced reduced = reduce_to_support(f);
    EXPECT_EQ(reduced.func, g);
    EXPECT_EQ(reduced.support, pos);
    EXPECT_EQ(reduced.arity, m);

    std::vector<int> eff(static_cast<std::size_t>(m));
    for (auto& e : eff) e = static_cast<int>(rng.next_in(0, 3));
    std::vector<int> eff_real;
    for (const int p : pos) eff_real.push_back(eff[static_cast<std::size_t>(p)]);
    const int target =
        *std::max_element(eff.begin(), eff.end()) + static_cast<int>(rng.next_in(0, 3));
    DecompOptions opt;
    opt.k = static_cast<int>(rng.next_in(3, 5));

    const std::string where = "trial " + std::to_string(trial);
    const DecompResult one_step = decompose_for_label(f, eff, target, opt);
    const DecompResult two_step = decompose_reduced(reduced, eff, target, opt);
    expect_same_decomposition(one_step, two_step, {}, where);
    expect_same_decomposition(decompose_for_label(g, eff_real, target, opt), one_step, pos,
                              where);
    if (one_step.success) {
      ++successes;
      EXPECT_TRUE(decomposition_matches(one_step, f)) << where;
    } else {
      ++failures;
    }
  }
  // Both verdicts must be exercised for the comparison to mean anything.
  EXPECT_GE(successes, 10);
  EXPECT_GE(failures, 10);
}

TEST(RothKarp, DecomposableFunctionsAcrossTheWordBoundary) {
  // f = g(h_0(block 0), h_1(block 1), ...) over blocks of up to four
  // shuffled variables: each step compresses a block to one code variable,
  // so residues are built for arities on both sides of 6 variables.
  Rng rng(43);
  int successes = 0;
  for (int m = 6; m <= 13; ++m) {
    for (int trial = 0; trial < 3; ++trial) {
      const std::vector<int> order = random_map(rng, m, m);
      std::vector<TruthTable> vars;
      for (int v = 0; v < m; ++v) {
        vars.push_back(TruthTable::var(m, order[static_cast<std::size_t>(v)]));
      }
      std::vector<TruthTable> blocks;
      for (int v = 0; v < m; v += 4) {
        const int width = std::min(4, m - v);
        blocks.push_back(compose(random_tt(rng, width), std::span(vars).subspan(v, width)));
      }
      const TruthTable f = compose(random_tt(rng, static_cast<int>(blocks.size())), blocks);
      const std::vector<int> eff(static_cast<std::size_t>(m), 0);
      for (int k : {4, 5}) {
        DecompOptions opt;
        opt.k = k;
        const DecompResult r = decompose_for_label(f, eff, m, opt);
        if (!r.success) continue;
        ++successes;
        EXPECT_TRUE(decomposition_matches(r, f)) << "m=" << m << " k=" << k;
      }
    }
  }
  EXPECT_GE(successes, 30);
}

class RothKarpRandomFunctions : public ::testing::TestWithParam<int> {};

TEST_P(RothKarpRandomFunctions, AnySuccessIsExactAndKBounded) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  const int m = static_cast<int>(rng.next_in(5, 12));
  const TruthTable f = random_tt(rng, m);
  std::vector<int> eff(static_cast<std::size_t>(m));
  for (auto& e : eff) e = static_cast<int>(rng.next_in(0, 2));
  const int target = static_cast<int>(rng.next_in(2, 4));
  DecompOptions opt;
  opt.k = static_cast<int>(rng.next_in(3, 6));
  const DecompResult r = decompose_for_label(f, eff, target, opt);
  if (!r.success) return;  // random functions are often indecomposable
  EXPECT_TRUE(decomposition_matches(r, f));
  EXPECT_LE(r.achieved_label, target);
  for (const DecompLut& lut : r.luts) {
    EXPECT_LE(lut.func.num_vars(), opt.k);
    EXPECT_EQ(static_cast<std::size_t>(lut.func.num_vars()), lut.fanins.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RothKarpRandomFunctions, ::testing::Range(0, 25));

// ---- gate_decompose ----

TEST(GateDecompose, WideAndBecomesBalancedTree) {
  Circuit c;
  std::vector<Circuit::FaninSpec> fanins;
  for (int i = 0; i < 9; ++i) fanins.push_back({c.add_pi("i" + std::to_string(i)), 0});
  const NodeId g = c.add_gate("wide", tt_and(9), fanins);
  c.add_po("$po:o", {g, 0});
  const Circuit d = gate_decompose(c, 3);
  EXPECT_TRUE(d.is_k_bounded(3));
  // Balanced 3-ary tree over 9 inputs: 3 + 1 gates, depth 2.
  EXPECT_EQ(d.num_gates(), 4);
}

TEST(GateDecompose, PreservesSequentialBehavior) {
  // A wide XNOR fed through registers, in a feedback loop.
  Circuit c;
  const NodeId a = c.add_pi("a");
  const NodeId b = c.add_pi("b");
  const NodeId g = c.declare_gate("g");
  std::vector<Circuit::FaninSpec> fanins;
  fanins.push_back({a, 0});
  fanins.push_back({b, 1});
  fanins.push_back({g, 1});  // self feedback
  for (int i = 0; i < 4; ++i) fanins.push_back({c.add_pi("p" + std::to_string(i)), 0});
  c.finish_gate(g, tt_xnor(7), fanins);
  c.add_po("$po:q", {g, 0});
  c.validate();

  const Circuit d = gate_decompose(c, 4);
  EXPECT_TRUE(d.is_k_bounded(4));
  Rng rng(31);
  const auto stimulus = random_stimulus(rng, c.num_pis(), 64);
  EXPECT_EQ(simulate_sequence(c, stimulus), simulate_sequence(d, stimulus));
}

TEST(GateDecompose, RandomWideFunctionsViaShannon) {
  Rng rng(37);
  for (int trial = 0; trial < 5; ++trial) {
    Circuit c;
    const int m = static_cast<int>(rng.next_in(6, 9));
    std::vector<Circuit::FaninSpec> fanins;
    for (int i = 0; i < m; ++i) fanins.push_back({c.add_pi("i" + std::to_string(i)), 0});
    const NodeId g = c.add_gate("wide", random_tt(rng, m), fanins);
    c.add_po("$po:o", {g, 0});
    const Circuit d = gate_decompose(c, 4);
    EXPECT_TRUE(d.is_k_bounded(4));
    const auto stimulus = random_stimulus(rng, c.num_pis(), 64);
    EXPECT_EQ(simulate_sequence(c, stimulus), simulate_sequence(d, stimulus));
  }
}

TEST(GateDecompose, RequiresKAtLeastThree) {
  Circuit c;
  const NodeId a = c.add_pi("a");
  const NodeId g = c.add_gate("g", tt_buf(), std::vector<Circuit::FaninSpec>{{a, 0}});
  c.add_po("$po:o", {g, 0});
  EXPECT_THROW((void)gate_decompose(c, 2), Error);
}

}  // namespace
}  // namespace turbosyn
