#include "retime/pipeline.hpp"

#include <algorithm>
#include <optional>

#include "base/check.hpp"
#include "retime/cycle_ratio.hpp"
#include "retime/retiming.hpp"

namespace turbosyn {

void pipeline_inputs(Circuit& c, int stages) {
  TS_CHECK(stages >= 0, "pipeline stage count must be non-negative");
  if (stages == 0) return;
  for (const NodeId pi : c.pis()) {
    for (const EdgeId e : c.fanout_edges(pi)) {
      c.set_edge_weight(e, c.edge(e).weight + stages);
    }
  }
}

void pipeline_outputs(Circuit& c, int stages) {
  TS_CHECK(stages >= 0, "pipeline stage count must be non-negative");
  if (stages == 0) return;
  for (const NodeId po : c.pos()) {
    for (const EdgeId e : c.fanin_edges(po)) {
      c.set_edge_weight(e, c.edge(e).weight + stages);
    }
  }
}

PipelineResult pipeline_and_retime(Circuit& c, int max_stages, const RunBudget* budget) {
  const Rational mdr = circuit_mdr(c).ratio;
  const std::int64_t floor_target = std::max<std::int64_t>(1, mdr.ceil());

  const Digraph g = c.to_digraph();
  std::vector<int> delay(static_cast<std::size_t>(c.num_nodes()));
  for (NodeId v = 0; v < c.num_nodes(); ++v) delay[static_cast<std::size_t>(v)] = c.delay(v);
  std::vector<NodeId> pinned(c.pis().begin(), c.pis().end());
  pinned.insert(pinned.end(), c.pos().begin(), c.pos().end());

  // One W/D table answers every query below; graphs too large for it run
  // FEAS on a pipelined copy per configuration.
  std::optional<RetimingTable> table;
  RetimeResult fallback;
  if (g.num_nodes() <= kExactRetimingLimit) {
    table.emplace(g, delay, pinned, floor_target, c.pis(), c.pos());
    fallback = table->min_period(floor_target, clock_period(g, delay));
  } else {
    fallback = min_period_retiming(g, delay, pinned);
  }
  const auto feasible = [&](std::int64_t target, int stages) {
    if (table) return table->solve(target, stages);
    Circuit piped = c;
    pipeline_inputs(piped, stages);
    pipeline_outputs(piped, stages);
    return feasible_retiming(piped.to_digraph(), delay, target, pinned);
  };

  // Try the MDR bound first, then relax the target period; for each target,
  // grow the pipeline depth geometrically. The fallback (no pipelining,
  // plain min-period retiming) always succeeds.
  PipelineResult result;
  const auto stopped = [&] {
    if (budget == nullptr || !budget->interrupted()) return false;
    result.status = budget->check();
    return true;
  };
  const auto finish = [&](std::int64_t period, int stages) {
    result.period = period;
    result.stages = stages;
    if (table) {
      result.solves = table->solves();
      result.bf_rounds = table->bf_rounds();
    }
    return result;
  };
  for (std::int64_t target = floor_target;
       target < fallback.period && result.status == Status::kOk; ++target) {
    for (int stages = 1; stages <= max_stages; stages *= 2) {
      if (stopped()) break;
      ++result.configs_tried;
      if (auto r = feasible(target, stages)) {
        pipeline_inputs(c, stages);
        pipeline_outputs(c, stages);
        apply_retiming(c, *r);
        return finish(target, stages);
      }
    }
  }
  apply_retiming(c, fallback.r);
  return finish(fallback.period, 0);
}

}  // namespace turbosyn
