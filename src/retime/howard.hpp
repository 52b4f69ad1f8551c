#pragma once
// Howard's policy-iteration algorithm for the maximum cycle ratio.
//
// Max over cycles of delay(C)/registers(C). Policy iteration converges in
// few iterations in practice; max_delay_to_register_ratio (cycle_ratio.hpp)
// starts from its answer and certifies it by Bellman–Ford, and the auditor
// uses it on its own to recompute a claimed MDR.
//
// Formulation: edge value val(e) = delay(head(e)), edge time tau(e) = w(e).
// We seek the maximum of sum(val)/sum(tau) over cycles with sum(tau) > 0.
// Combinational loops (sum(tau) == 0 with positive value) are rejected, as
// in cycle_ratio.hpp.

#include <span>

#include "retime/cycle_ratio.hpp"

namespace turbosyn {

/// Exact MDR ratio via Howard's algorithm. Throws turbosyn::Error on a
/// zero-register positive-delay cycle. Returns ratio 0 for acyclic graphs.
CycleRatioResult max_cycle_ratio_howard(const Digraph& g, std::span<const int> delay);

}  // namespace turbosyn
