#pragma once
// Maximum delay-to-register (MDR) ratio: max over all directed cycles C of
// delay(C) / registers(C).
//
// Papaefthymiou's theory (paper refs [16, 22]) says this ratio is the only
// lower bound on the clock period once both retiming and pipelining are
// allowed — TurboSYN therefore minimizes the MDR ratio of the mapped
// network. The computation is exact over rationals: Howard's policy
// iteration (howard.hpp) proposes a cycle, then a cycle-ratio-improvement
// loop (find a positive cycle for the candidate ratio via Bellman–Ford on
// integer costs q*d(v) - p*w(e), jump to that cycle's exact ratio) certifies
// it with one Bellman–Ford run or climbs to the max if Howard stopped short.

#include <span>
#include <vector>

#include "base/rational.hpp"
#include "graph/digraph.hpp"
#include "netlist/circuit.hpp"

namespace turbosyn {

struct CycleRatioResult {
  /// 0 when the graph has no cycle with positive delay.
  Rational ratio = Rational(0, 1);
  /// Edges of a critical cycle achieving the ratio (empty if ratio is 0).
  std::vector<EdgeId> critical_cycle;
};

/// Exact MDR ratio. Throws turbosyn::Error if some cycle has positive delay
/// but zero registers (combinational loop — infinite ratio).
CycleRatioResult max_delay_to_register_ratio(const Digraph& g, std::span<const int> delay);

/// Convenience for circuits (unit delay model).
CycleRatioResult circuit_mdr(const Circuit& c);

/// Decision procedure: true iff some cycle has delay(C) > ratio * regs(C).
/// Exposed because the label-computation tests compare against it.
bool has_cycle_above_ratio(const Digraph& g, std::span<const int> delay, const Rational& ratio);

}  // namespace turbosyn
