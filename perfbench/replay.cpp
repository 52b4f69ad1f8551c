// Traced replay: re-runs a finished job's layers through their public
// functions with one span per call, and checks the replay against the job.

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>

#include "cache/flow_cache.hpp"
#include "core/labeling.hpp"
#include "core/mapgen.hpp"
#include "core/probe_ledger.hpp"
#include "mapping/dedupe.hpp"
#include "mapping/flowmap.hpp"
#include "mapping/pack.hpp"
#include "mapping/seq_split.hpp"
#include "netlist/blif.hpp"
#include "perfbench.hpp"
#include "retime/cycle_ratio.hpp"
#include "retime/pipeline.hpp"

namespace perfbench {

using namespace turbosyn;

int SpanRecorder::open(int job, std::string layer, std::string name) {
  Span s;
  s.job = job;
  s.parent = open_.empty() ? -1 : open_.back();
  s.layer = std::move(layer);
  s.name = std::move(name);
  s.start = seconds_since(origin_);
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::close(int index) {
  spans_[static_cast<std::size_t>(index)].end = seconds_since(origin_);
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

}  // namespace

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"job\":" << s.job << ",\"parent\":" << s.parent
        << ",\"layer\":\"" << json_escape(s.layer) << "\",\"name\":\"" << json_escape(s.name)
        << "\"";
    std::snprintf(buf, sizeof buf, ",\"start\":%.9f,\"end\":%.9f", s.start, s.end);
    out << buf;
    if (s.parent < 0 && s.job >= 0) {
      std::snprintf(buf, sizeof buf, ",\"job_wall_s\":%.9f", s.job_wall_s);
      out << buf << ",\"job_name\":\"" << json_escape(s.job_name) << "\"";
    }
    out << "}\n";
  }
}

std::string fingerprint(const FlowResult& r) {
  return std::to_string(r.phi) + "|" + std::to_string(r.period) + "|" +
         std::to_string(r.pipeline_stages) + "|" + write_blif_string(r.mapped, "fp");
}

std::vector<std::string> replay_job(SpanRecorder& rec, int j, const Job& job,
                                    const Circuit& input, const FlowOptions& options,
                                    const JobRun& run, const FlowCache* cache,
                                    FlowCache* scratch_store) {
  std::vector<std::string> errors;
  const auto mismatch = [&](const std::string& what) {
    errors.push_back(job.name + " (" + flow_kind_name(job.kind) + "): replay " + what);
  };
  const FlowResult& result = run.result;

  // The cache calls the job made: the exact lookup, and on a miss the
  // near-miss lookup and the store of the new entry. The store now holds
  // every entry of the pass, so the lookups are timed, not checked against
  // what the job found.
  if (cache != nullptr) {
    ScopedSpan span(&rec, j, "cache", "FlowCache::lookup");
    if (!cache->lookup(make_cache_key(input, options, job.kind)).has_value()) {
      mismatch("found no stored entry");
    }
  }
  if (cache != nullptr && !run.info.hit) {
    ScopedSpan span(&rec, j, "cache", "FlowCache::lookup_near");
    cache->lookup_near(make_cache_key(input, options, job.kind));
  }

  // The flow's upper-bound stage: the exact MDR of the input (label-driven
  // flows that ran a search; a cache hit skips it).
  if (result.stage_metrics.find("ub-probe") != nullptr) {
    ScopedSpan span(&rec, j, "retime", "circuit_mdr");
    circuit_mdr(input);
  }

  // Label probes, in ledger order, one engine per update rule as the flow's
  // search stages hold one engine each. Imported and seed-only records were
  // not probed by this job, so there is nothing to replay for them.
  std::map<LabelMode, std::unique_ptr<LabelEngine>> engines;
  for (const ProbeRecord& probe : result.probes) {
    if (probe.imported || probe.seed_only) continue;
    const bool decomp = probe.mode == LabelMode::kDecomp;
    std::unique_ptr<LabelEngine>& engine = engines[probe.mode];
    if (!engine) engine = std::make_unique<LabelEngine>(input, options.label_options(decomp));
    LabelResult r;
    {
      ScopedSpan span(&rec, j, decomp ? "decomp" : "core", "LabelEngine::compute");
      r = engine->compute(probe.phi);
    }
    const std::uint64_t hash = r.feasible ? hash_labels(r.labels) : 0;
    if (r.feasible != probe.feasible || hash != probe.label_hash) {
      mismatch("probe " + std::string(label_mode_name(probe.mode)) + " phi=" +
               std::to_string(probe.phi) + " label hash differs from the ledger");
    }
  }

  // Mapping generation: from the winning labels for the label-driven flows,
  // from the combinational FlowSYN mapping for FlowSYN-s.
  Circuit mapped;
  if (result.artifacts.valid) {
    const FlowArtifacts& art = result.artifacts;
    MapGenOptions mopts;
    mopts.label_relaxation = options.label_relaxation;
    mopts.low_cost_cuts = options.low_cost_cuts;
    LabelStats stats;
    ScopedSpan span(&rec, j, "core", "generate_sequential_mapping");
    mapped = generate_sequential_mapping(
        input, art.labels, art.phi, options.label_options(art.mode == LabelMode::kDecomp),
        mopts, stats);
  } else if (job.kind == FlowKind::kFlowSynS) {
    ScopedSpan span(&rec, j, "mapping", "flowmap");
    const SequentialSplit split = split_at_registers(input);
    FlowMapOptions fopts;
    fopts.k = options.k;
    fopts.enable_decomposition = true;
    fopts.cmax = options.cmax;
    fopts.min_cut_height_span = options.height_span;
    fopts.use_bdd = options.use_bdd;
    const FlowMapResult mapping = flowmap(split.comb, fopts);
    mapped = merge_registers(input, split, generate_mapped_circuit(split.comb, mapping, fopts));
  } else {
    mismatch("has no winning labels to map from");
    return errors;
  }
  if (options.dedupe) {
    ScopedSpan span(&rec, j, "mapping", "dedupe_luts");
    mapped = dedupe_luts(mapped);
  }
  if (options.pack) {
    ScopedSpan span(&rec, j, "mapping", "pack_luts");
    mapped = pack_luts(mapped, options.k);
  }
  {
    ScopedSpan span(&rec, j, "retime", "circuit_mdr");
    const Rational mdr = circuit_mdr(mapped).ratio;
    if (mdr.num() != result.exact_mdr.num() || mdr.den() != result.exact_mdr.den()) {
      mismatch("exact MDR differs");
    }
  }
  if (options.pipeline) {
    Circuit pipelined = mapped;
    ScopedSpan span(&rec, j, "retime", "pipeline_and_retime");
    const PipelineResult p = pipeline_and_retime(pipelined, 64, nullptr);
    if (p.period != result.period || p.stages != result.pipeline_stages) {
      mismatch("period differs");
    }
  }
  std::string text;
  {
    ScopedSpan span(&rec, j, "netlist", "write_blif_string");
    text = write_blif_string(result.mapped, "fp");
  }
  if (text != write_blif_string(mapped, "fp")) mismatch("mapped network differs");
  if (scratch_store != nullptr && run.info.stored) {
    ScopedSpan span(&rec, j, "cache", "FlowCache::store_result");
    if (!scratch_store->store_result(make_cache_key(input, options, job.kind), result, input)) {
      mismatch("could not store the result");
    }
  }
  {
    ScopedSpan span(&rec, j, "netlist", "read_blif_string");
    if (read_blif_string(text).pis().size() != result.mapped.pis().size()) {
      mismatch("BLIF round trip changed the primary inputs");
    }
  }
  return errors;
}

}  // namespace perfbench
