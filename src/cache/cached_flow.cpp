#include "cache/cached_flow.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/trace.hpp"
#include "core/stages/mapgen_stage.hpp"
#include "core/stages/pack_stage.hpp"
#include "core/stages/pipeline_retime_stage.hpp"
#include "netlist/canonical.hpp"

namespace turbosyn {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A cached entry is usable for this circuit only if its label vector spans
/// the circuit's nodes; anything else means the key matched a different
/// world (should be impossible past the collision check, but stay safe).
bool entry_fits(const CacheEntry& entry, const Circuit& c) {
  return static_cast<int>(entry.winning_labels.size()) == c.num_nodes() && entry.phi >= 1;
}

/// Schema v2 stores winning labels in canonical node order; the replay and
/// the auditor consume them in input-id order. Remaps in place and rewrites
/// the winning probe's label hash so the ledger's certification tie — the
/// feasible record at (mode, φ) hashes the published labels — still holds
/// for this parse's node numbering.
void remap_entry_to_input_order(CacheEntry& entry, const Circuit& c) {
  const std::vector<NodeId> order = canonical_node_order(c);
  std::vector<int> labels(entry.winning_labels.size(), 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    labels[static_cast<std::size_t>(order[i])] = entry.winning_labels[i];
  }
  entry.winning_labels = std::move(labels);
  const std::uint64_t input_hash =
      hash_labels(std::span<const int>(entry.winning_labels));
  for (CachedProbe& p : entry.probes) {
    if (p.engine == entry.winner && p.mode == entry.mode && p.phi == entry.phi) {
      p.label_hash = input_hash;
      break;
    }
  }
}

/// One node of a parsed canonical text: its name plus a descriptor covering
/// everything local to the node — kind, truth table, and the fanin slots
/// with driver *names* (not positions) and register weights. Two nodes with
/// equal descriptors whose transitive fanins also all match have isomorphic
/// fanin cones, which is the near-miss label-transfer criterion.
struct CanonNode {
  std::string name;
  std::string desc;
};

/// Parses the body of a canonical form (canonical_circuit_form() minus the
/// leading options line of the cache key). Returns nodes in canonical order,
/// or nullopt on any malformed input — a bad donor is just "no seed".
std::optional<std::vector<CanonNode>> parse_canonical(std::string_view text) {
  std::vector<std::vector<std::string>> lines;  // tokenized node lines
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    std::vector<std::string> tokens;
    std::size_t t = 0;
    while (t < line.size()) {
      while (t < line.size() && line[t] == ' ') ++t;
      std::size_t end = t;
      while (end < line.size() && line[end] != ' ') ++end;
      if (end > t) tokens.emplace_back(line.substr(t, end - t));
      t = end;
    }
    if (!tokens.empty()) lines.push_back(std::move(tokens));
  }
  if (lines.size() < 2 || lines[0] != std::vector<std::string>{"canon", "1"}) {
    return std::nullopt;
  }
  const std::size_t n = lines.size() - 2;  // header + count line
  if (lines[1].size() != 1 || lines[1][0] != std::to_string(n)) return std::nullopt;

  // Pass 1: node names by canonical position (fanins reference positions).
  std::vector<CanonNode> nodes(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<std::string>& tok = lines[i + 2];
    if (tok.size() < 2) return std::nullopt;
    nodes[i].name = tok[1];
  }

  // Pass 2: descriptors with positions resolved to names.
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<std::string>& tok = lines[i + 2];
    std::string desc = tok[0];
    std::size_t fanin_at = 0;
    if (tok[0] == "pi") {
      if (tok.size() != 2) return std::nullopt;
    } else if (tok[0] == "gate") {
      if (tok.size() < 5) return std::nullopt;
      desc += ' ' + tok[2] + ' ' + tok[3];  // truth-table arity + bits
      fanin_at = 4;
    } else if (tok[0] == "po") {
      if (tok.size() < 3) return std::nullopt;
      fanin_at = 2;
    } else {
      return std::nullopt;
    }
    if (fanin_at != 0) {
      std::size_t nf = 0;
      try {
        nf = std::stoul(tok[fanin_at]);
      } catch (...) {
        return std::nullopt;
      }
      if (tok.size() != fanin_at + 1 + 2 * nf) return std::nullopt;
      for (std::size_t f = 0; f < nf; ++f) {
        std::size_t src = 0;
        try {
          src = std::stoul(tok[fanin_at + 1 + 2 * f]);
        } catch (...) {
          return std::nullopt;
        }
        if (src >= n) return std::nullopt;
        desc += " (";
        desc += nodes[src].name;
        desc += ' ';
        desc += tok[fanin_at + 2 + 2 * f];  // register weight
        desc += ')';
      }
    }
    nodes[i].desc = std::move(desc);
  }
  return nodes;
}

/// Builds the warm seed a near-miss donor justifies for circuit `c`, or
/// nullptr when nothing useful transfers. Soundness (DESIGN.md §12): a node
/// is *tainted* iff it is absent from the donor, its descriptor differs, or
/// any transitive fanin is tainted (forward propagation below). An untainted
/// node's fanin cone is isomorphic to the donor's, so the donor's converged
/// plain-mode label at φ* equals this circuit's least fixpoint there;
/// tainted nodes fall back to the base label. The resulting vector is
/// pointwise ≤ the least fixpoint at any probed φ ≤ φ* (labels are antitone
/// in φ), i.e. a valid monotone seed — and never a certificate.
std::shared_ptr<const WarmImport> derive_near_miss_seed(const Circuit& c,
                                                        std::string_view current_canon,
                                                        const FlowCache::NearMiss& near) {
  if (near.entry.mode != LabelMode::kPlain || near.entry.phi < 1) return nullptr;
  const std::optional<std::vector<CanonNode>> cur = parse_canonical(current_canon);
  const std::optional<std::vector<CanonNode>> donor = parse_canonical(near.canonical_text);
  if (!cur.has_value() || !donor.has_value()) return nullptr;
  if (near.entry.winning_labels.size() != donor->size()) return nullptr;
  const std::vector<NodeId> order = canonical_node_order(c);
  if (order.size() != cur->size()) return nullptr;

  std::unordered_map<std::string_view, std::size_t> donor_by_name;
  donor_by_name.reserve(donor->size());
  for (std::size_t i = 0; i < donor->size(); ++i) {
    donor_by_name.emplace((*donor)[i].name, i);
  }

  const std::size_t n = static_cast<std::size_t>(c.num_nodes());
  std::vector<char> tainted(n, 0);
  auto seed = std::make_shared<WarmImport>();
  seed->phi = near.entry.phi;
  seed->labels.assign(n, 0);
  std::vector<NodeId> frontier;
  for (std::size_t i = 0; i < cur->size(); ++i) {
    const NodeId v = order[i];
    const auto it = donor_by_name.find((*cur)[i].name);
    if (it == donor_by_name.end() || (*donor)[it->second].desc != (*cur)[i].desc) {
      tainted[static_cast<std::size_t>(v)] = 1;
      frontier.push_back(v);
    } else {
      seed->labels[static_cast<std::size_t>(v)] =
          near.entry.winning_labels[it->second];
    }
  }
  if (frontier.empty()) return nullptr;  // identical circuit: exact path owns it

  // Forward taint propagation: an edit invalidates every cone it feeds.
  const CsrTopology& topo = c.topology();
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const NodeId v = frontier[head];
    const auto begin = topo.fanout_offset[static_cast<std::size_t>(v)];
    const auto end = topo.fanout_offset[static_cast<std::size_t>(v) + 1];
    for (auto e = begin; e < end; ++e) {
      const NodeId dst = topo.fanout_dst[static_cast<std::size_t>(e)];
      if (!tainted[static_cast<std::size_t>(dst)]) {
        tainted[static_cast<std::size_t>(dst)] = 1;
        seed->labels[static_cast<std::size_t>(dst)] = 0;  // base; engine normalizes
        frontier.push_back(dst);
      }
    }
  }

  // The seed is useful iff at least one updatable gate survived untainted and
  // so keeps the donor's converged label (the sweeps still re-prove the
  // fixpoint, so an imprecise seed costs time, never correctness).
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    if (topo.flag(v, CsrTopology::kUpdatableGate) && !tainted[static_cast<std::size_t>(v)]) {
      return seed;
    }
  }
  return nullptr;
}

/// Replays a hit's artifacts through the staged driver. `period_objective`
/// selects the downstream config exactly as run_engine() would: mapgen caps
/// relaxation at the PO labels and the timing tail retimes without
/// pipelining. mapgen → pack → retime are deterministic functions of
/// (circuit, labels, φ, options), so the replay is bit-identical to the
/// stored run.
FlowResult replay_from_entry(const std::string& trace_label, bool period_objective,
                             const Circuit& c, const FlowOptions& options,
                             const CacheEntry& entry) {
  const auto start = Clock::now();
  TraceSpan span(options.trace, trace_label + " (cache hit)");
  FlowDriver driver(c, options);
  StageList stages;
  stages.push_back(std::make_unique<CachedSearchStage>(entry));
  stages.push_back(std::make_unique<MapGenStage>(/*po_label_limit=*/period_objective));
  stages.push_back(std::make_unique<PackStage>());
  stages.push_back(std::make_unique<PipelineRetimeStage>(
      period_objective ? PipelineRetimeStage::Kind::kRetimeOnly
                       : PipelineRetimeStage::Kind::kPipelineRetime));
  driver.run(stages);
  FlowResult result = driver.finish();
  result.seconds = seconds_since(start);
  return result;
}

/// Observability (DESIGN.md §13): the cache's cumulative fault/recovery
/// counters into the trace stream — recovered_* say how much corruption was
/// detected and absorbed (never served), retries how many store attempts
/// re-ran after a transient failure. One span per cached run, so trace
/// consumers can watch the counters move across a batch.
void trace_cache_counters(TraceSink* trace, const FlowCache& cache) {
  if (trace == nullptr) return;
  TraceSpan span(trace, "cache:counters");
  span.counter("cache_hits", cache.hits());
  span.counter("cache_misses", cache.misses());
  span.counter("cache_stores", cache.stores());
  span.counter("cache_rejects", cache.rejects());
  span.counter("recovered_entries", cache.recovered_entries());
  span.counter("recovered_tmp", cache.recovered_tmp());
  span.counter("recovered_sidecars", cache.recovered_sidecars());
  span.counter("retries", cache.retries());
  span.counter("hot_hits", cache.hot_hits());
  span.counter("hot_evictions", cache.hot_evictions());
}

/// Near-miss warm start, shared by the flow and portfolio miss paths: if a
/// donor entry for the same options line ran on a structurally similar
/// circuit, transfer its converged labels where the fanin cones still match
/// (derive_near_miss_seed above). The seed only accelerates convergence —
/// probes still prove their fixpoints, so the result stays bit-identical to
/// a cold run.
void maybe_warm_start(const Circuit& c, const CacheKey& key, const FlowCache& cache,
                      const FlowOptions& options, FlowOptions& run_options,
                      CacheRunInfo* info) {
  if (options.warm_import != nullptr) return;
  const std::optional<FlowCache::NearMiss> near = cache.lookup_near(key);
  if (!near.has_value()) return;
  const std::size_t nl = key.text.find('\n');
  if (nl == std::string::npos) return;
  if (auto seed =
          derive_near_miss_seed(c, std::string_view(key.text).substr(nl + 1), *near);
      seed != nullptr) {
    run_options.warm_import = std::move(seed);
    if (info != nullptr) info->near_miss = true;
  }
}

}  // namespace

void CachedSearchStage::run(FlowContext& ctx) {
  ctx.label_mode = entry_.mode;
  ctx.result.phi = entry_.phi;
  // The replay runs no search, but downstream contracts want the bound the
  // original search ran under: the largest φ the ledger ever saw.
  int ub = entry_.phi;
  for (const CachedProbe& p : entry_.probes) ub = std::max(ub, p.phi);
  ctx.ub = ub;

  ctx.labels = LabelResult{};
  ctx.labels.feasible = true;
  ctx.labels.labels = entry_.winning_labels;
  ctx.labels.max_po_label = entry_.max_po_label;
  ctx.labels.status = Status::kOk;
  ctx.have_labels = true;

  for (const CachedProbe& p : entry_.probes) {
    ProbeRecord rec;
    rec.engine = p.engine;
    rec.phi = p.phi;
    rec.mode = p.mode;
    rec.outcome = p.outcome;
    rec.status = p.status;
    rec.feasible = p.feasible;
    rec.imported = true;  // provenance: this run probed nothing
    rec.label_hash = p.label_hash;
    rec.max_po_label = p.max_po_label;
    ctx.ledger.record(std::move(rec));
  }
  ctx.count("imported_probes", static_cast<std::int64_t>(entry_.probes.size()));
}

FlowResult run_flow_cached(FlowKind kind, const Circuit& c, const FlowOptions& options,
                           FlowCache* cache, CacheRunInfo* info) {
  if (info != nullptr) *info = CacheRunInfo{};
  // FlowSYN-s records no probe ledger and no label artifacts: nothing to
  // reuse, so it always runs plain.
  if (cache == nullptr || kind == FlowKind::kFlowSynS) {
    return run_flow(kind, c, options);
  }

  const CacheKey key = make_cache_key(c, options, kind);
  if (std::optional<CacheEntry> entry = cache->lookup(key);
      entry.has_value() && entry_fits(*entry, c) && entry->winner.empty()) {
    remap_entry_to_input_order(*entry, c);
    FlowResult result =
        replay_from_entry(std::string("flow:") + flow_kind_name(kind),
                          kind == FlowKind::kTurboMapPeriod, c, options, *entry);
    if (!options.collect_artifacts) result.artifacts = FlowArtifacts{};
    if (info != nullptr) info->hit = true;
    trace_cache_counters(options.trace, *cache);
    return result;
  }

  // Miss: run for real, collecting the winning labels the store needs even
  // when the caller did not ask for audit artifacts (collection does not
  // change the mapping — the fuzzer's bit-identity checks cover this).
  FlowOptions run_options = options;
  run_options.collect_artifacts = true;
  maybe_warm_start(c, key, *cache, options, run_options, info);
  FlowResult result = run_flow(kind, c, run_options);
  const bool stored = cache->store_result(key, result, c);
  if (info != nullptr) info->stored = stored;
  if (!options.collect_artifacts) result.artifacts = FlowArtifacts{};
  trace_cache_counters(options.trace, *cache);
  return result;
}

FlowResult run_portfolio_cached(const std::vector<const EngineSpec*>& engines,
                                const Circuit& c, const FlowOptions& options,
                                const PortfolioOptions& popt, FlowCache* cache,
                                CacheRunInfo* info) {
  if (info != nullptr) *info = CacheRunInfo{};
  if (cache == nullptr) return run_portfolio(engines, c, options, popt);

  const CacheKey key = make_portfolio_cache_key(c, options, engines);
  if (std::optional<CacheEntry> entry = cache->lookup(key);
      entry.has_value() && entry_fits(*entry, c)) {
    // Resolve the stored winner against the requested race. The byte-compared
    // key already pins the engine list, so a missing name means a corrupt or
    // hand-edited entry — degrade to a miss, never guess.
    const EngineSpec* winner = nullptr;
    for (const EngineSpec* spec : engines) {
      if (spec->name == entry->winner) winner = spec;
    }
    if (winner != nullptr) {
      remap_entry_to_input_order(*entry, c);
      FlowResult result =
          replay_from_entry("flow:portfolio", winner->period_objective, c, options, *entry);
      result.engine = entry->winner;
      if (!options.collect_artifacts) result.artifacts = FlowArtifacts{};
      if (info != nullptr) info->hit = true;
      trace_cache_counters(options.trace, *cache);
      return result;
    }
  }

  FlowOptions run_options = options;
  run_options.collect_artifacts = true;
  maybe_warm_start(c, key, *cache, options, run_options, info);
  FlowResult result = run_portfolio(engines, c, run_options, popt);
  const bool stored = cache->store_result(key, result, c);
  if (info != nullptr) info->stored = stored;
  if (!options.collect_artifacts) result.artifacts = FlowArtifacts{};
  trace_cache_counters(options.trace, *cache);
  return result;
}

}  // namespace turbosyn
