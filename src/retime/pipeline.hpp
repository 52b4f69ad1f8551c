#pragma once
// Pipelining: inserting flip-flop stages at the primary inputs.
//
// Pipelining adds the same number of FFs on every PI fanout edge; combined
// with retiming it eliminates critical I/O paths, so the clock period is
// bounded only by the MDR ratio of the loops (paper refs [16, 22]). This is
// the post-processing step that turns a minimum-MDR mapping into a
// minimum-clock-period implementation.

#include <cstdint>

#include "base/run_budget.hpp"
#include "netlist/circuit.hpp"

namespace turbosyn {

/// Adds `stages` flip-flops to every PI fanout edge (changes I/O latency by
/// `stages` cycles, preserves the input-output function modulo that shift).
void pipeline_inputs(Circuit& c, int stages);

/// Adds `stages` flip-flops in front of every PO (output registers).
void pipeline_outputs(Circuit& c, int stages);

struct PipelineResult {
  std::int64_t period = 0;  // achieved clock period
  int stages = 0;           // pipeline stages inserted at the PIs
  /// (target period, depth) configurations tested by feasible retiming —
  /// the search's work metric, surfaced through trace/StageMetrics.
  std::int64_t configs_tried = 0;
  /// Constraint solves (fallback search and configurations) and the
  /// Bellman–Ford relaxation rounds they took; both 0 above
  /// kExactRetimingLimit, where FEAS runs instead.
  std::int64_t solves = 0;
  std::int64_t bf_rounds = 0;
  /// kOk unless the search was stopped by `budget` before it finished; the
  /// result is then the always-valid no-pipelining fallback.
  Status status = Status::kOk;
};

/// Minimizes the clock period using input pipelining + retiming. Finds the
/// no-pipelining minimum period first (searched from ceil(MDR)), then tries
/// target periods below it from max(1, ceil(MDR)) upward with pipeline
/// depths 1, 2, 4, ... up to max_stages, all against one W/D table; mutates
/// the circuit to the winning configuration. `budget`
/// (optional) is polled between candidate configurations: once it fires, the
/// search stops and the plain min-period retiming fallback is applied.
PipelineResult pipeline_and_retime(Circuit& c, int max_stages = 64,
                                   const RunBudget* budget = nullptr);

}  // namespace turbosyn
