#include "retime/retiming.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "base/check.hpp"
#include "graph/scc.hpp"
#include "retime/cycle_ratio.hpp"

namespace turbosyn {
namespace {

/// Arrival times over the zero-weight subgraph of g under the edge weights
/// `weight(e)`; nullopt if that subgraph is cyclic (infinite period).
template <typename Weight>
std::optional<std::vector<std::int64_t>> arrival_times(const Digraph& g,
                                                       std::span<const int> delay,
                                                       const Weight& weight) {
  std::vector<NodeId> order;
  try {
    order = topological_order(g, [&](EdgeId e) { return weight(e) != 0; });
  } catch (const Error&) {
    return std::nullopt;
  }
  std::vector<std::int64_t> at(static_cast<std::size_t>(g.num_nodes()), 0);
  for (const NodeId v : order) {
    std::int64_t best = 0;
    for (const EdgeId e : g.fanin_edges(v)) {
      if (weight(e) != 0) continue;
      best = std::max(best, at[static_cast<std::size_t>(g.edge(e).from)]);
    }
    at[static_cast<std::size_t>(v)] = best + delay[static_cast<std::size_t>(v)];
  }
  return at;
}

/// Arrival times with the per-node lag r applied to the edge weights.
std::optional<std::vector<std::int64_t>> arrival_times(const Digraph& g,
                                                       std::span<const int> delay,
                                                       std::span<const int> r) {
  return arrival_times(g, delay, [&](EdgeId e) {
    const auto& edge = g.edge(e);
    return edge.weight + r[static_cast<std::size_t>(edge.to)] -
           r[static_cast<std::size_t>(edge.from)];
  });
}

int max_delay(std::span<const int> delay) {
  return delay.empty() ? 0 : *std::max_element(delay.begin(), delay.end());
}

/// Binary search for the smallest period in [lo, hi] that `feasible`
/// accepts; hi with all-zero lags (n of them) when nothing below it does.
template <typename Feasible>
RetimeResult min_feasible_period(int n, std::int64_t lo, std::int64_t hi,
                                 const Feasible& feasible) {
  RetimeResult best{hi, std::vector<int>(static_cast<std::size_t>(n), 0)};
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (auto r = feasible(mid)) {
      best = RetimeResult{mid, std::move(*r)};
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return best;
}

}  // namespace

std::int64_t clock_period(const Digraph& g, std::span<const int> delay) {
  const std::vector<int> zero(static_cast<std::size_t>(g.num_nodes()), 0);
  const auto at = arrival_times(g, delay, std::span<const int>(zero));
  TS_CHECK(at.has_value(), "combinational loop: clock period is unbounded");
  return at->empty() ? 0 : *std::max_element(at->begin(), at->end());
}

RetimingTable::RetimingTable(const Digraph& g, std::span<const int> delay,
                             std::span<const NodeId> pinned, std::int64_t min_period,
                             std::span<const NodeId> inputs, std::span<const NodeId> outputs)
    : g_(g),
      delay_(delay.begin(), delay.end()),
      pinned_(pinned.begin(), pinned.end()),
      max_delay_(max_delay(delay)) {
  const int n = g.num_nodes();
  TS_CHECK(static_cast<int>(delay.size()) == n, "one delay per node required");
  min_period_ = std::max<std::int64_t>(min_period, max_delay_);
  is_input_.assign(static_cast<std::size_t>(n), 0);
  is_output_.assign(static_cast<std::size_t>(n), 0);
  for (const NodeId v : inputs) {
    TS_CHECK(g.fanin_count(v) == 0, "a pipelined input must have no fanins");
    is_input_[static_cast<std::size_t>(v)] = 1;
  }
  for (const NodeId v : outputs) {
    TS_CHECK(g.fanout_count(v) == 0, "a pipelined output must have no fanouts");
    is_output_[static_cast<std::size_t>(v)] = 1;
  }

  // W(u,v)/D(u,v) by one search per source u, keyed by (registers,
  // position in a topological order of the zero-weight subgraph). Every
  // predecessor on a fewest-register path to v settles before v does, so v
  // settles once, with its final W and the largest delay over those paths.
  std::vector<NodeId> order;
  try {
    order = topological_order(g, [&](EdgeId e) { return g.edge(e).weight != 0; });
  } catch (const Error&) {
    zero_weight_cycle_ = true;  // no retiming removes it: every query fails
    return;
  }
  std::vector<int> position(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    position[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = i;
  }
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
  std::vector<std::int64_t> w_to(static_cast<std::size_t>(n));
  std::vector<std::int64_t> d_to(static_cast<std::size_t>(n));  // delays of the path's heads
  std::vector<std::uint8_t> settled(static_cast<std::size_t>(n));
  using Entry = std::pair<std::int64_t, int>;  // (registers, topological position)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  const auto offer = [&](NodeId to, std::int64_t w, std::int64_t d) {
    const auto t = static_cast<std::size_t>(to);
    if (w < w_to[t]) {
      w_to[t] = w;
      d_to[t] = d;
      queue.emplace(w, position[t]);
    } else if (w == w_to[t]) {
      d_to[t] = std::max(d_to[t], d);
    }
  };
  for (NodeId u = 0; u < n; ++u) {
    // The source itself stays unsettled so that cycles back to u produce a
    // genuine W(u,u)/D(u,u).
    std::fill(w_to.begin(), w_to.end(), kInf);
    std::fill(settled.begin(), settled.end(), 0);
    for (const EdgeId e : g.fanout_edges(u)) {
      const auto& edge = g.edge(e);
      offer(edge.to, edge.weight, delay[static_cast<std::size_t>(edge.to)]);
    }
    while (!queue.empty()) {
      const auto [w, pos] = queue.top();
      queue.pop();
      const NodeId v = order[static_cast<std::size_t>(pos)];
      if (settled[static_cast<std::size_t>(v)] != 0 || w != w_to[static_cast<std::size_t>(v)]) {
        continue;  // stale entry
      }
      settled[static_cast<std::size_t>(v)] = 1;
      for (const EdgeId e : g.fanout_edges(v)) {
        const auto& edge = g.edge(e);
        offer(edge.to, w + edge.weight,
              d_to[static_cast<std::size_t>(v)] + delay[static_cast<std::size_t>(edge.to)]);
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      const std::int64_t w = w_to[static_cast<std::size_t>(v)];
      if (w >= kInf) continue;
      const std::int64_t total_delay =
          d_to[static_cast<std::size_t>(v)] + delay[static_cast<std::size_t>(u)];
      if (total_delay <= min_period_) continue;  // constrains no query
      TS_CHECK(w <= std::numeric_limits<std::int32_t>::max() &&
                   total_delay <= std::numeric_limits<std::int32_t>::max(),
               "retiming graph weights overflow the W/D table");
      pairs_.push_back(Pair{u, v, static_cast<std::int32_t>(w),
                            static_cast<std::int32_t>(total_delay)});
    }
  }
}

std::optional<std::vector<int>> RetimingTable::solve(std::int64_t c, int stages) {
  TS_CHECK(stages >= 0, "pipeline stage count must be non-negative");
  if (c < max_delay_) return std::nullopt;  // a single node already exceeds the period
  TS_CHECK(c >= min_period_, "period " << c << " is below the table's " << min_period_);
  if (zero_weight_cycle_) return std::nullopt;
  ++solves_;
  const int n = g_.num_nodes();
  r_.assign(static_cast<std::size_t>(n), 0);
  parent_.assign(static_cast<std::size_t>(n), kNoNode);
  mark_.assign(static_cast<std::size_t>(n), 0);
  next_mark_ = 1;
  // r(u) - r(v) <= bound, relaxed from the all-zero virtual source.
  bool relaxed = false;
  const auto relax = [&](NodeId u, NodeId v, std::int64_t bound) {
    const std::int64_t cand = r_[static_cast<std::size_t>(v)] + bound;
    if (cand < r_[static_cast<std::size_t>(u)]) {
      r_[static_cast<std::size_t>(u)] = cand;
      parent_[static_cast<std::size_t>(u)] = v;
      relaxed = true;
    }
  };
  const auto weight = [&](EdgeId e) {
    const auto& edge = g_.edge(e);
    return edge.weight + extra(edge.from, edge.to, stages);
  };
  for (int round = 0; round <= n; ++round) {
    ++bf_rounds_;
    relaxed = false;
    for (EdgeId e = 0; e < g_.num_edges(); ++e) relax(g_.edge(e).from, g_.edge(e).to, weight(e));
    for (std::size_t i = 1; i < pinned_.size(); ++i) {
      relax(pinned_[i - 1], pinned_[i], 0);
      relax(pinned_[i], pinned_[i - 1], 0);
    }
    for (const Pair& p : pairs_) {
      if (p.d > c) relax(p.u, p.v, p.w + extra(p.u, p.v, stages) - 1);
    }
    if (!relaxed) {
      const std::int64_t base = pinned_.empty() ? 0 : r_[static_cast<std::size_t>(pinned_[0])];
      std::vector<int> result(static_cast<std::size_t>(n));
      for (NodeId v = 0; v < n; ++v) {
        result[static_cast<std::size_t>(v)] =
            static_cast<int>(r_[static_cast<std::size_t>(v)] - base);
      }
      // Safety: the retimed graph must be legal and meet the period.
      const auto at = arrival_times(g_, delay_, [&](EdgeId e) {
        const auto& edge = g_.edge(e);
        return weight(e) + result[static_cast<std::size_t>(edge.to)] -
               result[static_cast<std::size_t>(edge.from)];
      });
      if (!at.has_value()) return std::nullopt;
      for (const std::int64_t a : *at) {
        if (a > c) return std::nullopt;
      }
      return result;
    }
    if (parent_cycle()) return std::nullopt;
  }
  return std::nullopt;
}

bool RetimingTable::parent_cycle() {
  // Walk each node's parent chain, stamping it with the walk's mark; meeting
  // this walk's own mark closes a cycle, an older mark joins a checked chain.
  const std::int64_t first = next_mark_;
  for (NodeId start = 0; start < g_.num_nodes(); ++start) {
    const std::int64_t walk = next_mark_++;
    NodeId v = start;
    while (v != kNoNode && mark_[static_cast<std::size_t>(v)] < first) {
      mark_[static_cast<std::size_t>(v)] = walk;
      v = parent_[static_cast<std::size_t>(v)];
    }
    if (v != kNoNode && mark_[static_cast<std::size_t>(v)] == walk) return true;
  }
  return false;
}

RetimeResult RetimingTable::min_period(std::int64_t lo, std::int64_t hi) {
  return min_feasible_period(g_.num_nodes(), lo, hi, [&](std::int64_t c) { return solve(c); });
}

std::optional<std::vector<int>> feasible_retiming(const Digraph& g, std::span<const int> delay,
                                                  std::int64_t c, std::span<const NodeId> pinned) {
  TS_CHECK(c >= 0, "target period must be non-negative");
  const int n = g.num_nodes();
  TS_CHECK(static_cast<int>(delay.size()) == n, "one delay per node required");
  if (max_delay(delay) > c) return std::nullopt;  // a single node already exceeds the period
  if (n <= kExactRetimingLimit) return RetimingTable(g, delay, pinned, c).solve(c);

  std::vector<bool> is_pinned(static_cast<std::size_t>(n), false);
  for (const NodeId v : pinned) is_pinned[static_cast<std::size_t>(v)] = true;

  std::vector<int> r(static_cast<std::size_t>(n), 0);
  // FEAS with pinned I/O: violators increment their lag; pinned nodes never
  // move. A zero-weight successor of a violator violates too, so the only
  // way a weight can go negative is an increment against a pinned head —
  // which proves that lag exceeded its legal maximum, hence infeasibility.
  // (With the I/O pinned, solutions requiring negative internal lags are
  // unreachable; pipelining — extra registers at the PI/PO boundary, see
  // pipeline.hpp — is the transformation that restores that headroom.)
  for (int round = 0; round <= n; ++round) {
    const auto at = arrival_times(g, delay, std::span<const int>(r));
    if (!at.has_value()) return std::nullopt;  // zero-weight cycle appeared
    bool violated = false;
    bool any_movable = false;
    for (NodeId v = 0; v < n; ++v) {
      if ((*at)[static_cast<std::size_t>(v)] > c) {
        violated = true;
        if (!is_pinned[static_cast<std::size_t>(v)]) {
          ++r[static_cast<std::size_t>(v)];
          any_movable = true;
        }
      }
    }
    if (!violated) return r;
    if (!any_movable) return std::nullopt;  // only pinned nodes violate
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto& edge = g.edge(e);
      if (edge.weight + r[static_cast<std::size_t>(edge.to)] -
              r[static_cast<std::size_t>(edge.from)] <
          0) {
        return std::nullopt;  // lag exceeded the legal maximum
      }
    }
  }
  return std::nullopt;
}

RetimeResult min_period_retiming(const Digraph& g, std::span<const int> delay,
                                 std::span<const NodeId> pinned) {
  const std::int64_t hi = clock_period(g, delay);
  std::int64_t lo = max_delay(delay);
  if (g.num_nodes() <= kExactRetimingLimit) {
    // No retiming beats the MDR bound, so the search starts there.
    lo = std::max(lo, max_delay_to_register_ratio(g, delay).ratio.ceil());
    return RetimingTable(g, delay, pinned, lo).min_period(lo, hi);
  }
  return min_feasible_period(g.num_nodes(), lo, hi, [&](std::int64_t c) {
    return feasible_retiming(g, delay, c, pinned);
  });
}

namespace {

std::vector<int> circuit_delays(const Circuit& c) {
  std::vector<int> delay(static_cast<std::size_t>(c.num_nodes()));
  for (NodeId v = 0; v < c.num_nodes(); ++v) delay[static_cast<std::size_t>(v)] = c.delay(v);
  return delay;
}

std::vector<NodeId> circuit_pinned(const Circuit& c) {
  std::vector<NodeId> pinned(c.pis().begin(), c.pis().end());
  pinned.insert(pinned.end(), c.pos().begin(), c.pos().end());
  return pinned;
}

}  // namespace

std::int64_t circuit_clock_period(const Circuit& c) {
  return clock_period(c.to_digraph(), circuit_delays(c));
}

void apply_retiming(Circuit& c, std::span<const int> r) {
  TS_CHECK(static_cast<int>(r.size()) == c.num_nodes(), "one lag per node required");
  for (EdgeId e = 0; e < c.num_edges(); ++e) {
    const auto& edge = c.edge(e);
    const int w = edge.weight + r[static_cast<std::size_t>(edge.to)] -
                  r[static_cast<std::size_t>(edge.from)];
    TS_CHECK(w >= 0, "retiming drives edge weight negative");
    c.set_edge_weight(e, w);
  }
}

std::int64_t retime_min_period(Circuit& c) {
  const RetimeResult result =
      min_period_retiming(c.to_digraph(), circuit_delays(c), circuit_pinned(c));
  apply_retiming(c, result.r);
  return result.period;
}

}  // namespace turbosyn
