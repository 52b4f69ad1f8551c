#include "graph/node_cut.hpp"

#include <algorithm>

#include "base/check.hpp"

namespace turbosyn {

void NodeCut::prepare(const NodeCutNetwork& net) {
  const std::size_t n = net.capacity.size();
  TS_CHECK(net.fanin_begin.size() == n && net.fanin_end.size() == n && net.role.size() == n,
           "node-cut network arrays disagree on the node count");
  const std::size_t slots = net.fanin_pool.size();
  node_flow_.assign(n, 0);
  slot_flow_.assign(slots, 0);
  slot_owner_.resize(slots);
  sources_.clear();
  // Fanout CSR over the fanin slots: counts land two ahead, so after the
  // prefix sum fanout_offset_[j + 1] is the start of j's run, and placing
  // each slot post-increments it into the end of the run (= start of j + 1).
  fanout_offset_.assign(n + 2, 0);
  for (std::size_t i = 0; i < n; ++i) {
    TS_CHECK(net.capacity[i] >= 0, "negative node capacity");
    if ((net.role[i] & kFromSource) != 0) sources_.push_back(static_cast<std::int32_t>(i));
    for (std::int32_t s = net.fanin_begin[i]; s < net.fanin_end[i]; ++s) {
      const std::int32_t j = net.fanin_pool[static_cast<std::size_t>(s)];
      TS_CHECK(j >= 0 && static_cast<std::size_t>(j) < n, "fanin index out of range");
      ++fanout_offset_[static_cast<std::size_t>(j) + 2];
      slot_owner_[static_cast<std::size_t>(s)] = static_cast<std::int32_t>(i);
    }
  }
  for (std::size_t j = 2; j < n + 2; ++j) fanout_offset_[j] += fanout_offset_[j - 1];
  fanout_slot_.resize(static_cast<std::size_t>(fanout_offset_[n + 1]));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::int32_t s = net.fanin_begin[i]; s < net.fanin_end[i]; ++s) {
      const std::size_t j = static_cast<std::size_t>(net.fanin_pool[static_cast<std::size_t>(s)]);
      fanout_slot_[static_cast<std::size_t>(fanout_offset_[j + 1]++)] = s;
    }
  }
  if (visit_.size() < 2 * n) visit_.resize(2 * n, 0);  // 0 is never a live epoch
}

std::int64_t NodeCut::residual(const NodeCutNetwork& net, const Frame& f) const {
  const std::size_t i = static_cast<std::size_t>(f.vertex >> 1);
  if ((f.vertex & 1) != 0) {  // entered out(i)
    if (f.via != kViaNode) return slot_flow_[static_cast<std::size_t>(f.via)];
    return net.capacity[i] >= kInfinity ? kInfinity : net.capacity[i] - node_flow_[i];
  }
  if (f.via == kViaNode) return node_flow_[i];  // reverse of in(i) -> out(i)
  return kInfinity;                             // forward fanin arc
}

void NodeCut::augment(std::int64_t delta) {
  // stack_[0] hangs off the source; every later frame names its entry arc.
  for (std::size_t k = 1; k < stack_.size(); ++k) {
    const Frame& f = stack_[k];
    const std::size_t i = static_cast<std::size_t>(f.vertex >> 1);
    const bool out_half = (f.vertex & 1) != 0;
    if (f.via == kViaNode) {
      node_flow_[i] += out_half ? delta : -delta;
    } else {
      slot_flow_[static_cast<std::size_t>(f.via)] += out_half ? -delta : delta;
    }
  }
}

std::int64_t NodeCut::search(const NodeCutNetwork& net) {
  if (++epoch_ == 0) {  // wrapped: stamps from 2^32 searches ago are stale
    std::fill(visit_.begin(), visit_.end(), 0);
    epoch_ = 1;
  }
  const auto bottleneck = [&] {
    std::int64_t b = kInfinity;
    for (std::size_t k = 1; k < stack_.size(); ++k) b = std::min(b, residual(net, stack_[k]));
    return b;
  };
  for (const std::int32_t src : sources_) {
    const std::int32_t root_vertex = 2 * src;
    if (visited(root_vertex)) continue;
    stack_.clear();
    if ((net.role[static_cast<std::size_t>(src)] & kSink) != 0) {
      return kInfinity;  // the source feeds the sink directly
    }
    visit_[static_cast<std::size_t>(root_vertex)] = epoch_;
    stack_.push_back(
        Frame{root_vertex, kViaNode, net.fanin_begin[static_cast<std::size_t>(src)] - 1});
    while (!stack_.empty()) {
      Frame& f = stack_.back();
      const std::int32_t i = f.vertex >> 1;
      const std::size_t iu = static_cast<std::size_t>(i);
      Frame next{-1, kViaNode, 0};
      if ((f.vertex & 1) == 0) {
        // in(i): the node arc first (cursor begin - 1), then the residual
        // reverses of fanin arcs that carry flow.
        const std::int32_t begin = net.fanin_begin[iu];
        const std::int32_t end = net.fanin_end[iu];
        while (f.cursor < end) {
          const std::int32_t c = f.cursor++;
          if (c < begin) {
            const std::int32_t w = 2 * i + 1;
            if (!visited(w) &&
                (net.capacity[iu] >= kInfinity || net.capacity[iu] > node_flow_[iu])) {
              next = Frame{w, kViaNode, fanout_offset_[iu]};
              break;
            }
          } else if (slot_flow_[static_cast<std::size_t>(c)] > 0) {
            const std::int32_t j = net.fanin_pool[static_cast<std::size_t>(c)];
            const std::int32_t w = 2 * j + 1;
            if (!visited(w)) {
              next = Frame{w, c, fanout_offset_[static_cast<std::size_t>(j)]};
              break;
            }
          }
        }
      } else {
        // out(i): the forward fanin arcs of i's fanouts, then (cursor end)
        // the reverse node arc when flow passes through i.
        const std::int32_t end = fanout_offset_[iu + 1];
        while (f.cursor <= end) {
          const std::int32_t c = f.cursor++;
          if (c < end) {
            const std::int32_t s = fanout_slot_[static_cast<std::size_t>(c)];
            const std::int32_t k = slot_owner_[static_cast<std::size_t>(s)];
            const std::int32_t w = 2 * k;
            if (visited(w)) continue;
            // The arc into the sink is infinite and its reverse is never
            // searched (no path leaves the sink), so it carries no state.
            if ((net.role[static_cast<std::size_t>(k)] & kSink) != 0) return bottleneck();
            next = Frame{w, s, net.fanin_begin[static_cast<std::size_t>(k)] - 1};
            break;
          }
          if (node_flow_[iu] > 0 && !visited(2 * i)) {
            next = Frame{2 * i, kViaNode, net.fanin_begin[iu] - 1};
            break;
          }
        }
      }
      if (next.vertex < 0) {
        stack_.pop_back();
      } else {
        visit_[static_cast<std::size_t>(next.vertex)] = epoch_;
        stack_.push_back(next);  // invalidates f
      }
    }
  }
  return 0;
}

std::int64_t NodeCut::compute(const NodeCutNetwork& net, std::int64_t limit,
                              std::int64_t augment_budget) {
  TS_CHECK(limit < kInfinity, "node-cut limit must be finite");
  augments_ = 0;
  budget_hit_ = false;
  cut_.clear();
  prepare(net);
  std::int64_t flow = 0;
  while (const std::int64_t delta = search(net)) {
    ++augments_;
    if (delta >= kInfinity) return kInfinity;  // uncuttable source-sink path
    augment(delta);
    flow += delta;
    if (flow > limit) return flow;
    if (augment_budget > 0 && augments_ >= augment_budget) {
      // Give up: report "exceeds the limit" so the caller sees no cut. The
      // verdict is conservative, not proven — see augment_budget_hit().
      budget_hit_ = true;
      return limit + 1;
    }
  }
  // The failing search visited exactly the residual source side.
  for (std::size_t i = 0; i < net.capacity.size(); ++i) {
    if ((net.role[i] & kSink) == 0 && visited(static_cast<std::int32_t>(2 * i)) &&
        !visited(static_cast<std::int32_t>(2 * i + 1))) {
      cut_.push_back(static_cast<std::int32_t>(i));
    }
  }
  return flow;
}

}  // namespace turbosyn
