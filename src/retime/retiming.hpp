#pragma once
// Leiserson–Saxe retiming on the unit-delay retiming graph.
//
// clock_period: longest purely-combinational (zero-weight) path delay.
// feasible_retiming: is there a legal retiming with period <= c? Graphs of
// up to kExactRetimingLimit nodes are answered exactly by the Leiserson–Saxe
// difference constraints (RetimingTable below); larger graphs fall back to
// the increment-only FEAS iteration, which never returns an illegal
// retiming but may miss solutions that need lags below the pinned I/O. PIs
// and POs are pinned (r = 0) so I/O latency is preserved; pipelining (see
// pipeline.hpp) is the transformation that trades latency for period.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "netlist/circuit.hpp"

namespace turbosyn {

/// Largest graph the exact solver is applied to; beyond it the W/D table
/// (up to |V|^2 pairs) is too large and FEAS takes over.
inline constexpr int kExactRetimingLimit = 1500;

/// Longest zero-weight-path delay; throws turbosyn::Error if the zero-weight
/// subgraph has a cycle (combinational loop).
std::int64_t clock_period(const Digraph& g, std::span<const int> delay);

/// Returns a retiming r (one lag per node, pinned nodes forced to 0)
/// achieving period <= c, or nullopt if impossible.
std::optional<std::vector<int>> feasible_retiming(const Digraph& g, std::span<const int> delay,
                                                  std::int64_t c, std::span<const NodeId> pinned);

struct RetimeResult {
  std::int64_t period = 0;
  std::vector<int> r;
};

/// The Leiserson–Saxe W/D table of one retiming graph, built once and
/// queried at many target periods and pipeline depths. Each query solves
///   r(u) - r(v) <= w(e)              for every edge u -> v   (legality)
///   r(u) - r(v) <= W(u,v) - 1        whenever D(u,v) > c     (period)
///   r(p) = r(q)                      for pinned p, q
/// by Bellman–Ford from an all-zero start, relaxing the edges, the pinned
/// equalities and the table pairs in place, in that order. It stops at the
/// first relaxation round whose parent graph has a cycle: relaxations are
/// strict, so that cycle is negative and the period infeasible.
///
/// Pipelining by s stages adds s registers to every fanout edge of an
/// `inputs` node and every fanin edge of an `outputs` node. Inputs have no
/// fanins and outputs no fanouts, so every u -> v path gains the same
/// s * ([u is an input] + [v is an output]) registers: W shifts by that, D
/// does not change, and one table serves every depth.
class RetimingTable {
 public:
  /// Keeps only the pairs with D(u,v) > min_period; queries must ask for
  /// c >= min_period. `g` must outlive the table.
  RetimingTable(const Digraph& g, std::span<const int> delay, std::span<const NodeId> pinned,
                std::int64_t min_period, std::span<const NodeId> inputs = {},
                std::span<const NodeId> outputs = {});

  /// Lags (pinned nodes at 0) meeting period c after `stages` pipeline
  /// stages; the same answer feasible_retiming gives on the pipelined graph.
  std::optional<std::vector<int>> solve(std::int64_t c, int stages = 0);

  /// Binary search for the smallest period in [lo, hi] without pipelining;
  /// hi with all-zero lags when nothing below it is feasible. hi must be
  /// the graph's current clock period.
  RetimeResult min_period(std::int64_t lo, std::int64_t hi);

  /// Constraint solves run (a query rejected by a single node's delay runs
  /// none) and the relaxation rounds they took.
  std::int64_t solves() const { return solves_; }
  std::int64_t bf_rounds() const { return bf_rounds_; }

 private:
  struct Pair {
    std::int32_t u;
    std::int32_t v;
    std::int32_t w;  // W(u,v): fewest registers on a u -> v path
    std::int32_t d;  // D(u,v): largest delay among those paths, ends included
  };

  /// Registers pipelining by `stages` adds to every u -> v path.
  std::int64_t extra(NodeId u, NodeId v, int stages) const {
    return stages * static_cast<std::int64_t>(is_input_[static_cast<std::size_t>(u)] +
                                              is_output_[static_cast<std::size_t>(v)]);
  }
  /// True if the parent pointers of the current solve contain a cycle.
  bool parent_cycle();

  const Digraph& g_;
  std::vector<int> delay_;
  std::vector<NodeId> pinned_;
  std::vector<std::uint8_t> is_input_;
  std::vector<std::uint8_t> is_output_;
  std::vector<Pair> pairs_;  // D(u,v) > min_period_, in (u, v) order
  std::int64_t min_period_ = 0;
  int max_delay_ = 0;
  bool zero_weight_cycle_ = false;  // a combinational loop: nothing is feasible
  // Scratch reused across solves.
  std::vector<std::int64_t> r_;
  std::vector<NodeId> parent_;
  std::vector<std::int64_t> mark_;
  std::int64_t next_mark_ = 0;
  std::int64_t solves_ = 0;
  std::int64_t bf_rounds_ = 0;
};

/// Minimum achievable period under retiming (binary search over
/// feasible_retiming, from ceil(MDR) on graphs the exact solver handles)
/// plus a witness retiming.
RetimeResult min_period_retiming(const Digraph& g, std::span<const int> delay,
                                 std::span<const NodeId> pinned);

// ---- Circuit-level conveniences (unit delay model, PIs/POs pinned) ----

std::int64_t circuit_clock_period(const Circuit& c);

/// Applies a retiming in place: w_r(e) = w(e) + r(to) - r(from).
/// Throws if any weight would become negative.
void apply_retiming(Circuit& c, std::span<const int> r);

/// Retimes the circuit to minimum clock period; returns the new period.
std::int64_t retime_min_period(Circuit& c);

}  // namespace turbosyn
