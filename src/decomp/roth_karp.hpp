#pragma once
// Label-driven single-output functional decomposition (Roth–Karp /
// Ashenhurst–Curtis), the resynthesis engine of TurboSYN and FlowSYN.
//
// Given a cut function f over m inputs (m may exceed K, bounded by Cmax),
// an "effective label" per input (l(u) - phi*w for sequential cuts, plain
// labels for combinational FlowSYN) and a target label T, produce a DAG of
// K-input LUTs computing f such that every input i reaches the root through
// at most T - eff_label(i) LUT levels. Inputs feeding the root directly need
// eff <= T-1; inputs routed through one encoder LUT need eff <= T-2, etc.
//
// Strategy (following FlowSYN / the paper): sort inputs by increasing
// effective label; repeatedly pick a bound set B of least-critical signals
// with at least one level of slack, compute the column multiplicity mu (the
// number of distinct cofactors across the bound/free boundary), and replace
// B by t = ceil(log2 mu) encoder signals. Succeeds when at most K signals
// remain and the achieved label is <= T.
//
// The paper computes mu on an OBDD built with B ordered first. With
// Cmax <= 15 a cut function is at most 512 words, so the production kernel
// works on the truth table instead: one word-parallel remap puts the free
// variables low and B high, making each bound-assignment cofactor a
// contiguous run of bits or words; runs are classified by hashing, every
// hash match confirmed word by word. Classes are numbered by first
// occurrence in x0-major order, exactly as the OBDD's low-first DFS emits
// them, so encoders and results are those of the OBDD method. This is the
// one classifier the decomposition uses. BDDs remain as the test oracle
// (column_classes_bdd) and in verify/ for miters; the decomposition path
// constructs no BddManager.

#include <cstdint>
#include <span>
#include <vector>

#include "base/truth_table.hpp"

namespace turbosyn {

/// Reference to a LUT fanin inside a DecompResult: either one of the
/// original cut inputs or a previously produced LUT.
struct DecompFanin {
  enum class Kind : std::uint8_t { kInput, kLut };
  Kind kind = Kind::kInput;
  int index = 0;

  static DecompFanin input(int i) { return {Kind::kInput, i}; }
  static DecompFanin lut(int i) { return {Kind::kLut, i}; }
  bool operator==(const DecompFanin&) const = default;
};

struct DecompLut {
  TruthTable func;                  // over fanins, in order
  std::vector<DecompFanin> fanins;  // size == func.num_vars() <= K
};

struct DecompResult {
  bool success = false;
  /// LUTs in topological order; the last one is the root (computes f).
  std::vector<DecompLut> luts;
  /// max over inputs of (eff_label(i) + LUT levels from i to root);
  /// meaningful only on success.
  int achieved_label = 0;
  /// True iff at least one Roth–Karp step was abandoned because the BDD node
  /// budget fired (see robdd_exceeds_budget); a failure with this flag set is
  /// not a proof that no decomposition exists.
  bool budget_limited = false;
};

struct DecompOptions {
  int k = 5;               // LUT input count
  int max_attempts = 64;   // bound-set selection attempts per round
  /// Ceiling on the OBDD (bound set first) of each classification; 0 = none.
  /// When the OBDD would exceed it, that bound set is treated as offering no
  /// compression and the result is marked budget_limited. Counted on the
  /// truth table, before every classification.
  std::size_t bdd_node_budget = 0;
};

/// A function restricted to the inputs it depends on: variable i of `func`
/// is input support[i] of the original function (support is ascending), and
/// `arity` is the original input count.
struct SupportReduced {
  TruthTable func;
  std::vector<int> support;
  int arity = 0;
};

/// Drops every input f does not depend on (min-cuts can include such inputs).
SupportReduced reduce_to_support(const TruthTable& f);

/// Attempts to realize f as a DAG of K-LUTs meeting `target_label`.
/// eff_labels[i] is the effective label of input variable i of f.
/// Equivalent to decompose_reduced(reduce_to_support(f), ...).
DecompResult decompose_for_label(const TruthTable& f, std::span<const int> eff_labels,
                                 int target_label, const DecompOptions& options);

/// The search step of decompose_for_label, over an already reduced function:
/// eff_labels[i] is the effective label of original input i (one per input of
/// the unreduced function), and DecompFanin::input indices in the result refer
/// to original inputs. Callers that see the same function repeatedly reduce it
/// once and keep the reduction.
DecompResult decompose_reduced(const SupportReduced& f, std::span<const int> eff_labels,
                               int target_label, const DecompOptions& options);

/// Column classes of f for the bound set = variables 0..boundary-1.
struct ColumnClasses {
  /// Class of each bound assignment (bit j = variable j), numbered by first
  /// occurrence in x0-major order.
  std::vector<std::uint32_t> code_of;
  /// Per class, its cofactor over the free variables (f's variables
  /// boundary.. renumbered from 0).
  std::vector<TruthTable> functions;
  std::size_t multiplicity() const { return functions.size(); }
};

/// The production hashing classifier.
ColumnClasses column_classes(const TruthTable& f, int boundary);
/// The paper's OBDD classification: the oracle column_classes must match.
ColumnClasses column_classes_bdd(const TruthTable& f, int boundary);
std::size_t column_multiplicity_bdd(const TruthTable& f, int boundary);

/// True iff BddManager(f.num_vars(), node_budget, OnBudget::kSaturate)
/// would latch exhausted() building f (variable 0 on top), computed from
/// the truth table without building the OBDD.
bool robdd_exceeds_budget(const TruthTable& f, std::size_t node_budget);

/// Evaluates a DecompResult on a full input assignment (bit i = input i).
bool evaluate_decomposition(const DecompResult& result, std::uint32_t assignment);

/// True if the LUT DAG computes exactly f (exhaustive over f's inputs).
bool decomposition_matches(const DecompResult& result, const TruthTable& f);

}  // namespace turbosyn
