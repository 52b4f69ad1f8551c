#include "retime/cycle_ratio.hpp"

#include <algorithm>

#include "base/check.hpp"
#include "graph/bellman_ford.hpp"
#include "retime/howard.hpp"

namespace turbosyn {
namespace {

/// Positive cycle under costs q*d(to) - p*w(e), i.e. a cycle with
/// delay(C)/regs(C) > p/q (for regs(C) > 0; zero-register cycles with
/// positive delay also show up as positive, which is how combinational
/// loops are diagnosed).
PositiveCycle cycle_above(const Digraph& g, std::span<const int> delay, const Rational& ratio) {
  const std::int64_t p = ratio.num();
  const std::int64_t q = ratio.den();
  return find_positive_cycle(g, [&](EdgeId e) {
    const auto& edge = g.edge(e);
    return q * delay[static_cast<std::size_t>(edge.to)] - p * edge.weight;
  });
}

struct CycleMeasure {
  std::int64_t delay_sum = 0;
  std::int64_t weight_sum = 0;
};

CycleMeasure measure(const Digraph& g, std::span<const int> delay,
                     std::span<const EdgeId> cycle) {
  CycleMeasure m;
  for (const EdgeId e : cycle) {
    m.delay_sum += delay[static_cast<std::size_t>(g.edge(e).to)];
    m.weight_sum += g.edge(e).weight;
  }
  return m;
}

}  // namespace

bool has_cycle_above_ratio(const Digraph& g, std::span<const int> delay, const Rational& ratio) {
  return cycle_above(g, delay, ratio).found;
}

CycleRatioResult max_delay_to_register_ratio(const Digraph& g, std::span<const int> delay) {
  TS_CHECK(static_cast<int>(delay.size()) == g.num_nodes(), "one delay per node required");
  // Howard's ratio is that of a real cycle, so a lower bound. Ratio
  // improvement from there certifies it with one Bellman–Ford run, or
  // climbs cycle by cycle to the exact maximum if policy iteration stopped
  // short.
  CycleRatioResult result = max_cycle_ratio_howard(g, delay);
  if (result.ratio == Rational(0)) result.critical_cycle.clear();
  PositiveCycle witness = cycle_above(g, delay, result.ratio);
  while (witness.found) {
    const CycleMeasure m = measure(g, delay, witness.edges);
    TS_CHECK(m.weight_sum > 0,
             "combinational loop (positive delay, zero registers): MDR ratio is unbounded");
    const Rational candidate(m.delay_sum, m.weight_sum);
    TS_ASSERT(candidate > result.ratio);
    result.ratio = candidate;
    result.critical_cycle = witness.edges;
    witness = cycle_above(g, delay, result.ratio);
  }
  return result;
}

CycleRatioResult circuit_mdr(const Circuit& c) {
  std::vector<int> delay(static_cast<std::size_t>(c.num_nodes()));
  for (NodeId v = 0; v < c.num_nodes(); ++v) delay[static_cast<std::size_t>(v)] = c.delay(v);
  return max_delay_to_register_ratio(c.to_digraph(), delay);
}

}  // namespace turbosyn
