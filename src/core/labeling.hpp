#pragma once
// Iterative label computation (TurboMap) with sequential functional
// decomposition (TurboSYN) and positive loop detection (PLD).
//
// For a target ratio phi, node labels are lower-bounded iteratively:
//   l(source) = 0,  l(gate) starts at 1,
//   L(v) = max over fanin edges e(u,v) of l(u) - phi*w(e),
//   l_new(v) = L(v)   if a K-cut of E_v with height <= L(v) exists
//                     (or, TurboSYN only, a min-cut of width <= Cmax at
//                      height L(v)-h decomposes with achieved label <= L(v)),
//              L(v)+1 otherwise.
// Lower bounds only grow; the computation converges iff a mapping with MDR
// ratio <= phi exists (no positive loop). SCCs are processed in topological
// order. PLD (the paper's Section 4): after each sweep over an SCC, build
// the predecessor graph
//   Pi[v] = { u : e(u,v) in G, l(u) - phi*w(e) + 1 >= l(v) }   (l(v) > 1)
// and declare a positive loop as soon as the SCC is totally isolated from
// the PIs in it; detection is guaranteed within 6n sweeps for an SCC of n
// nodes (vs the previous n^2 bound, kept for the ablation benchmark).
//
// LabelEngine is the production entry point: one engine amortizes the graph
// analysis (SCCs and their zero-weight sweep order), shares the
// decomposition cache across probes, and warm-starts each plain-update probe
// by running the same sweeps from the labels of the nearest previously
// feasible phi (or an imported near-miss seed) instead of the base ones.
// Labels are updated in one sequential sweep order (SCCs in topological
// order, gates in zero-weight topological order within an SCC) — the order
// the PLD stopping rules are proven for — so a run's result depends only on
// the circuit and options.

#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "base/run_budget.hpp"
#include "core/expanded.hpp"
#include "decomp/roth_karp.hpp"
#include "graph/scc.hpp"
#include "netlist/circuit.hpp"

namespace turbosyn {

struct LabelOptions {
  int k = 5;
  bool enable_decomposition = false;  // false: TurboMap, true: TurboSYN
  int cmax = 15;                      // max resynthesis cut width (paper: 15)
  int height_span = 3;                // decomposition min-cut heights L(v)..L(v)-span+1
  bool use_pld = true;                // false: fall back to the n^2 stopping criterion
  /// Extra cap on per-SCC sweeps (0 = only the criterion's own bound). Used
  /// by the PLD ablation bench to bound the n^2 baseline's runtime; when the
  /// cap fires the result reports infeasible with Status::kDegraded (a
  /// budget verdict, not an infeasibility certificate).
  std::int64_t sweep_budget = 0;
  /// Deadline / cancellation / resource ceilings; default is unlimited, and
  /// an unlimited budget leaves results bit-identical to the budget-free
  /// code. Copies share state, so the same budget governs the whole run.
  RunBudget budget;
  ExpandedOptions expansion;
};

struct LabelStats {
  std::int64_t sweeps = 0;           // per-SCC iterations, summed
  std::int64_t node_updates = 0;     // LabelUpdate invocations
  std::int64_t cut_tests = 0;        // flow-based K-cut existence tests
  std::int64_t decomp_attempts = 0;  // resynthesis attempts
  std::int64_t decomp_successes = 0;
  std::int64_t cache_hits = 0;           // decomposition-memo hits
  // Cut-function cache (see CutFunctionCache): attempts that found their
  // support-reduced cut function cached, attempts that extracted it, and
  // the bytes those extractions stored (clears do not subtract).
  std::int64_t cut_fn_hits = 0;
  std::int64_t cut_fn_misses = 0;
  std::int64_t cut_fn_bytes = 0;
  std::int64_t flow_augmentations = 0;   // augmenting paths across all cut tests
  /// Always 0: every sweep evaluates every gate. Kept only because the
  /// repository benchmark reads it (its core.skip_ratio metric).
  std::int64_t nodes_skipped = 0;
  // Budget interference counters (all zero on an unlimited run).
  std::int64_t bdd_budget_hits = 0;     // attempts cut short by the BDD node ceiling
  std::int64_t decomp_budget_hits = 0;  // attempts refused by the attempt ceiling
  std::int64_t flow_budget_hits = 0;    // cut tests cut short by the augmentation ceiling
  /// Nodes whose decomposition was abandoned under a resource ceiling, i.e.
  /// the nodes that fell back to their plain K-cut label (sound, possibly
  /// weaker). May contain repeats across sweeps; dedupe before reporting.
  std::vector<NodeId> degraded_nodes;

  /// Adds `from`'s counters (and degraded-node list) onto this.
  void accumulate(const LabelStats& from);
};

struct LabelResult {
  /// True iff the iteration converged: a mapping with MDR ratio <= phi
  /// exists. When false, `status` tells whether that verdict is a genuine
  /// infeasibility certificate (kOk) or budget-imposed (anything else).
  bool feasible = false;
  std::vector<int> labels;  // per node; meaningful when feasible
  int max_po_label = 0;     // for the clock-period (no pipelining) check
  /// kOk: exact. kDegraded: a resource ceiling (sweep/BDD/decomposition/
  /// flow budget) altered the computation — feasible results are still valid
  /// mappings, infeasible verdicts are no longer certificates.
  /// kDeadlineExceeded / kCancelled: the run was interrupted; labels did not
  /// converge and must not be used for mapping generation.
  Status status = Status::kOk;
  LabelStats stats;
};

/// Support-reduced cut functions of one circuit, keyed by the root and the
/// ordered cut copies (node, w). The function of a cut depends only on the
/// circuit, the root and the cut — not on labels or phi — so an entry stays
/// valid for as long as the circuit does. Keys are compared in full; the hash
/// only selects the bucket. The cache holds at most `max_bytes` (as counted
/// by entry_bytes): an insert that would exceed it first clears every entry,
/// which is deterministic and changes no result, only the hit count.
class CutFunctionCache {
 public:
  /// Per-engine bound. Never reached on the benchmark circuits: TurboSYN's
  /// decomposition engine stores at most 0.7 MB on a Table-1 circuit (scf)
  /// and 3.2 MB on scale4000.
  static constexpr std::size_t kMaxBytes = std::size_t{16} << 20;

  explicit CutFunctionCache(std::size_t max_bytes = kMaxBytes) : max_bytes_(max_bytes) {}

  /// The stored reduction of root's function over `cut`, or nullptr.
  const SupportReduced* find(NodeId root, std::span<const SeqCutNode> cut) const;
  /// Stores a copy of `fn`, which must be reduce_to_support of root's
  /// function over `cut` (the key must not be present). Returns the bytes the
  /// entry counts against the bound, or 0 when it alone exceeds the bound
  /// and is not kept.
  std::size_t insert(NodeId root, std::span<const SeqCutNode> cut, const SupportReduced& fn);

  std::size_t bytes() const { return bytes_; }
  std::size_t size() const { return entries_.size(); }
  /// What one entry counts against the bound: its key, table and support
  /// payloads plus the fixed per-entry footprint.
  static std::size_t entry_bytes(std::span<const SeqCutNode> cut, const SupportReduced& fn);

 private:
  struct Entry {
    NodeId root = kNoNode;
    std::vector<SeqCutNode> cut;
    SupportReduced fn;
  };

  std::size_t max_bytes_;
  std::size_t bytes_ = 0;
  std::unordered_multimap<std::uint64_t, Entry> entries_;  // key hash -> entries
};

/// The engine's decomposition memos, shared by every probe of one engine:
/// - per_node: outcomes of decomposition attempts. The result of "decompose
///   the min-cut of E_v at this height" only depends on the cut and its
///   inputs' labels, which repeat heavily between iterations.
/// - functions: the support-reduced function of each (root, cut) an attempt
///   ran on, so a repeated cut skips extraction and support reduction.
struct DecompCache {
  std::vector<std::unordered_map<std::uint64_t, bool>> per_node;
  CutFunctionCache functions;
};

/// Label computation for a fixed circuit and options.
/// Construction precomputes the SCC condensation and each SCC's sweep order;
/// compute() may then be called for any sequence of target ratios. All
/// probes of one engine share the decomposition cache, and each plain-update
/// probe warm-starts from the converged labels of the nearest previously
/// feasible phi >= the probe (labels are antitone in phi, so those labels are
/// valid lower bounds that shortcut the iteration).
class LabelEngine {
 public:
  LabelEngine(const Circuit& c, const LabelOptions& options);

  /// Runs the label computation for target ratio phi (>= 1). For a fixed
  /// engine and probe sequence the result is deterministic.
  LabelResult compute(int phi);

  /// Imports externally derived labels as a warm seed for probes at
  /// phi <= `phi` (plain update rule only). Caller contract: `labels` must
  /// be a pointwise lower bound of the least fixpoint at `phi` — e.g. a
  /// near-miss cache transfer where every node with a structurally changed
  /// fanin cone was reset to its base label. The seed is never a
  /// certificate: the iteration still proves the fixpoint (and any verdict)
  /// itself, so results stay bit-identical to a cold run.
  void import_warm(int phi, std::vector<int> labels);

 private:
  /// Verdict of one SCC's iteration. kInfeasible is a divergence certificate
  /// only when no resource ceiling interfered (tracked via LabelStats).
  enum class CompOutcome { kConverged, kInfeasible, kBudgetExhausted, kInterrupted };

  CompOutcome process_comp_sequential(int comp, int phi, std::vector<int>& labels,
                                      LabelStats& stats);

  const Circuit& c_;
  LabelOptions options_;
  int num_gates_ = 0;  // c_.num_gates(), an O(#nodes) count: taken once
  DecompCache cache_;
  SccDecomposition scc_;
  std::vector<std::vector<NodeId>> comp_gates_;  // per component: updatable gates,
                                                 // zero-weight topo order
  CutScratch scratch_;  // cut-test and PLD buffers, reused by every update
  std::map<int, std::vector<int>> warm_;  // phi -> valid lower bounds for probes <= phi
};

/// Runs the label computation for target ratio phi (>= 1). One-shot
/// convenience wrapper over LabelEngine.
LabelResult compute_labels(const Circuit& c, int phi, const LabelOptions& options);

/// Single label update for node v given current lower bounds (exposed for
/// tests). Returns the new label (never below labels[v]); does not modify
/// `labels`. `cache` (optional) memoizes decomposition outcomes across
/// calls; `scratch` (optional) reuses cut-test buffers across calls.
int label_update(const Circuit& c, std::span<const int> labels, int phi, NodeId v,
                 const LabelOptions& options, LabelStats& stats, DecompCache* cache = nullptr,
                 CutScratch* scratch = nullptr);

/// The realization the label computation justifies for a node at its final
/// label: either a plain K-cut of E_v, or a decomposition over a wide cut.
struct NodeRealization {
  std::vector<SeqCutNode> cut;
  TruthTable func;                     // LUT function over `cut` (plain cuts)
  std::optional<DecompResult> decomp;  // present iff resynthesis is required;
                                       // its DecompFanin::input indices refer
                                       // to `cut` positions
};

/// Recomputes a realization for node v at height limit `height` (typically
/// the final label, or a relaxed height). Returns nullopt if none exists at
/// that height (callers then retry at height+1, which always succeeds at
/// l(v)+... the trivial fanin cut).
/// `shared` (optional): predicate marking signals already used as LUT inputs
/// elsewhere; when given, plain cuts are chosen by the paper's low-cost
/// K-cut rule (minimum size, then maximum sharing).
std::optional<NodeRealization> realize_node(
    const Circuit& c, std::span<const int> labels, int phi, NodeId v, int height,
    const LabelOptions& options, LabelStats& stats, DecompCache* cache = nullptr,
    const std::function<bool(const SeqCutNode&)>* shared = nullptr,
    CutScratch* scratch = nullptr);

}  // namespace turbosyn
