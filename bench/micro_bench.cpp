// Microbenchmarks (google-benchmark) for the engineering-critical kernels:
// truth-table composition, BDD construction and column multiplicity, the
// Dinic K-cut test, Roth–Karp decomposition, the expanded-circuit build and
// the sequential simulator. These are the inner loops that the per-sweep
// label computation cost (and hence every table) rests on. BM_PipelineRetime
// times the pipelining + retiming post-process on one mapped network.
//
// BM_Flow* additionally time the four public flows end to end and attach
// the per-stage StageMetrics breakdown as counters; see the comment above
// set_flow_counters for the BENCH_flow.json invocation.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "bdd/bdd.hpp"
#include "core/engines.hpp"
#include "core/expanded.hpp"
#include "core/flows.hpp"
#include "core/labeling.hpp"
#include "core/portfolio.hpp"
#include "decomp/roth_karp.hpp"
#include "graph/max_flow.hpp"
#include "netlist/blif.hpp"
#include "retime/pipeline.hpp"
#include "service/batch_runner.hpp"
#include "sim/simulator.hpp"
#include "workloads/generator.hpp"

namespace turbosyn {
namespace {

TruthTable random_tt(Rng& rng, int vars) {
  TruthTable t = TruthTable::constant(vars, false);
  for (std::size_t w = 0; w < t.num_words(); ++w) {
    // Build word-wise for speed.
    for (std::uint32_t b = 0; b < 64 && (w * 64 + b) < t.num_bits(); ++b) {
      if (rng.next_bool()) t.set_bit(static_cast<std::uint32_t>(w * 64 + b), true);
    }
  }
  return t;
}

void BM_TruthTableCompose(benchmark::State& state) {
  const int arity = static_cast<int>(state.range(0));
  Rng rng(1);
  const TruthTable g = random_tt(rng, 5);
  std::vector<TruthTable> inputs;
  for (int i = 0; i < 5; ++i) inputs.push_back(random_tt(rng, arity));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compose(g, inputs));
  }
}
BENCHMARK(BM_TruthTableCompose)->Arg(8)->Arg(12)->Arg(15);

void BM_BddFromTruthTable(benchmark::State& state) {
  const int arity = static_cast<int>(state.range(0));
  Rng rng(2);
  const TruthTable t = random_tt(rng, arity);
  for (auto _ : state) {
    BddManager mgr(arity);
    benchmark::DoNotOptimize(mgr.from_truth_table(t));
  }
}
BENCHMARK(BM_BddFromTruthTable)->Arg(10)->Arg(13)->Arg(15);

void BM_ColumnMultiplicity(benchmark::State& state) {
  // The production hashing classifier, on the same function as the two
  // engines below.
  Rng rng(3);
  const TruthTable t = random_tt(rng, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(column_classes(t, 5).multiplicity());
  }
}
BENCHMARK(BM_ColumnMultiplicity);

void BM_ColumnMultiplicityBdd(benchmark::State& state) {
  Rng rng(3);
  const TruthTable t = random_tt(rng, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(column_multiplicity_bdd(t, 5));
  }
}
BENCHMARK(BM_ColumnMultiplicityBdd);

void BM_ColumnMultiplicityTt(benchmark::State& state) {
  Rng rng(3);
  const TruthTable t = random_tt(rng, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(column_multiplicity_tt(t, 5));
  }
}
BENCHMARK(BM_ColumnMultiplicityTt);

void BM_RothKarpDecompose(benchmark::State& state) {
  // A decomposable function: tree of ANDs/XORs over 12 inputs.
  const int m = 12;
  TruthTable f = TruthTable::constant(m, false);
  {
    TruthTable acc = TruthTable::var(m, 0) & TruthTable::var(m, 1);
    for (int i = 2; i + 1 < m; i += 2) {
      acc = acc ^ (TruthTable::var(m, i) & TruthTable::var(m, i + 1));
    }
    f = acc;
  }
  std::vector<int> eff(m, 0);
  DecompOptions opt;
  opt.k = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(decompose_for_label(f, eff, 3, opt));
  }
}
BENCHMARK(BM_RothKarpDecompose);

void BM_DinicKCutTest(benchmark::State& state) {
  // Layered DAG flow network, the shape of a FlowMap cone test.
  const int layers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    MaxFlow flow;
    const int s = flow.add_node();
    const int t = flow.add_node();
    std::vector<int> prev;
    for (int i = 0; i < 8; ++i) {
      const int in = flow.add_node();
      const int out = flow.add_node();
      flow.add_arc(in, out, 1);
      flow.add_arc(s, in, MaxFlow::kInfinity);
      prev.push_back(out);
    }
    for (int l = 1; l < layers; ++l) {
      std::vector<int> cur;
      for (int i = 0; i < 8; ++i) {
        const int in = flow.add_node();
        const int out = flow.add_node();
        flow.add_arc(in, out, 1);
        flow.add_arc(prev[static_cast<std::size_t>(i)], in, MaxFlow::kInfinity);
        flow.add_arc(prev[static_cast<std::size_t>((i + 1) % 8)], in, MaxFlow::kInfinity);
        cur.push_back(out);
      }
      prev = cur;
    }
    for (const int out : prev) flow.add_arc(out, t, MaxFlow::kInfinity);
    benchmark::DoNotOptimize(flow.compute(s, t, 5));
  }
}
BENCHMARK(BM_DinicKCutTest)->Arg(4)->Arg(16);

void BM_ExpandedNetworkBuildAndCut(benchmark::State& state) {
  const Circuit c = generate_fsm_circuit(table1_suite()[0]);
  std::vector<int> labels(static_cast<std::size_t>(c.num_nodes()), 1);
  for (const NodeId pi : c.pis()) labels[static_cast<std::size_t>(pi)] = 0;
  ExpandedOptions opt;
  // Pick a gate deep in the circuit.
  NodeId root = kNoNode;
  for (NodeId v = c.num_nodes() - 1; v >= 0; --v) {
    if (c.is_gate(v) && !c.fanin_edges(v).empty()) {
      root = v;
      break;
    }
  }
  for (auto _ : state) {
    ExpandedNetwork net(c, labels, 2, root, 1, opt);
    benchmark::DoNotOptimize(net.find_cut(5));
  }
}
BENCHMARK(BM_ExpandedNetworkBuildAndCut);

void BM_LabelComputationTurboMap(benchmark::State& state) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[2]);
  LabelOptions lo;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_labels(c, 2, lo));
  }
}
BENCHMARK(BM_LabelComputationTurboMap);

// End-to-end labeling at 1 / 2 / all threads (Arg = num_threads, 0 = every
// core). Emit machine-readable results with
//   micro_bench --benchmark_filter=BM_Label --benchmark_out=BENCH_labeling.json
//               --benchmark_out_format=json
void BM_LabelEngineThreads(benchmark::State& state) {
  const Circuit c = generate_fsm_circuit(table1_suite()[0]);
  LabelOptions lo;
  lo.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    LabelEngine engine(c, lo);
    benchmark::DoNotOptimize(engine.compute(2));
  }
}
BENCHMARK(BM_LabelEngineThreads)->Arg(1)->Arg(2)->Arg(0)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

// The same probe through one warm engine: the φ-search steady state, where
// graph analysis, decomposition cache and scratch arenas are all amortized.
void BM_LabelEngineWarmProbe(benchmark::State& state) {
  const Circuit c = generate_fsm_circuit(table1_suite()[0]);
  LabelOptions lo;
  lo.num_threads = static_cast<int>(state.range(0));
  LabelEngine engine(c, lo);
  (void)engine.compute(3);  // seed the warm-start map
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.compute(2));
  }
}
BENCHMARK(BM_LabelEngineWarmProbe)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

// A descending multi-probe suite through one warm engine — the φ-search
// pattern the dirty-set incremental path accelerates (each probe seeds from
// the previous fixpoint and re-touches only nodes whose bound can move).
// Arg: 1 = incremental (default), 0 = cold full sweeps. The deterministic
// node_updates / nodes_skipped / dirty_rounds counters feed the bench gate;
// the incremental variant must stay well under the cold one's updates.
void BM_LabelEngineDescendingProbes(benchmark::State& state) {
  const Circuit c = generate_fsm_circuit(table1_suite()[0]);
  LabelOptions lo;
  lo.num_threads = 1;
  lo.incremental = state.range(0) != 0;
  LabelStats stats;
  for (auto _ : state) {
    LabelEngine engine(c, lo);
    stats = LabelStats{};
    for (int phi = 12; phi >= 1; --phi) {
      const LabelResult r = engine.compute(phi);
      stats.accumulate(r.stats);
      benchmark::DoNotOptimize(&r);
      if (!r.feasible) break;
    }
  }
  state.counters["node_updates"] =
      benchmark::Counter(static_cast<double>(stats.node_updates));
  state.counters["nodes_skipped"] =
      benchmark::Counter(static_cast<double>(stats.nodes_skipped));
  state.counters["dirty_rounds"] =
      benchmark::Counter(static_cast<double>(stats.dirty_rounds));
}
BENCHMARK(BM_LabelEngineDescendingProbes)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

// Scaling-suite labeling: the large-circuit regime the parallel engine
// targets (one infeasible + one feasible probe, as a binary search sees).
void BM_LabelEngineScalingCircuit(benchmark::State& state) {
  const Circuit c = generate_fsm_circuit(scaling_suite()[0]);
  LabelOptions lo;
  lo.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    LabelEngine engine(c, lo);
    benchmark::DoNotOptimize(engine.compute(1));
    benchmark::DoNotOptimize(engine.compute(2));
  }
}
BENCHMARK(BM_LabelEngineScalingCircuit)->Arg(1)->Arg(2)->Arg(0)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

// End-to-end flow benchmarks with the per-stage breakdown attached as
// counters (stage wall time under "s_<stage>", summed over repeated stages;
// plus the probe count and the flow's own wall time share). Emit
// machine-readable results with
//   micro_bench --benchmark_filter=BM_Flow --benchmark_out=BENCH_flow.json
//               --benchmark_out_format=json
void set_flow_counters(benchmark::State& state, const FlowResult& r) {
  std::map<std::string, double> seconds;
  for (const StageMetric& s : r.stage_metrics.stages) seconds[s.name] += s.seconds;
  for (const auto& [name, secs] : seconds) {
    state.counters["s_" + name] = benchmark::Counter(secs);
  }
  state.counters["probes"] = benchmark::Counter(static_cast<double>(r.probes.size()));
  state.counters["phi"] = benchmark::Counter(static_cast<double>(r.phi));
  state.counters["labels_computed"] =
      benchmark::Counter(static_cast<double>(r.stats.node_updates));
  state.counters["nodes_skipped"] =
      benchmark::Counter(static_cast<double>(r.stats.nodes_skipped));
  state.counters["dirty_rounds"] =
      benchmark::Counter(static_cast<double>(r.stats.dirty_rounds));
  state.counters["flow_seconds"] = benchmark::Counter(r.seconds);
  for (const char* counter : {"retime_configs", "retime_solves", "retime_bf_rounds"}) {
    std::int64_t total = 0;
    for (const StageMetric& s : r.stage_metrics.stages) total += s.counter(counter);
    state.counters[counter] = benchmark::Counter(static_cast<double>(total));
  }
}

void BM_FlowTurboMap(benchmark::State& state) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[2]);
  FlowOptions opt;
  FlowResult r;
  for (auto _ : state) {
    r = run_turbomap(c, opt);
    benchmark::DoNotOptimize(r);
  }
  set_flow_counters(state, r);
}
BENCHMARK(BM_FlowTurboMap)->Unit(benchmark::kMillisecond);

void BM_FlowTurboSyn(benchmark::State& state) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[0]);
  FlowOptions opt;
  FlowResult r;
  for (auto _ : state) {
    r = run_turbosyn(c, opt);
    benchmark::DoNotOptimize(r);
  }
  set_flow_counters(state, r);
}
BENCHMARK(BM_FlowTurboSyn)->Unit(benchmark::kMillisecond);

void BM_FlowFlowSynS(benchmark::State& state) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[2]);
  FlowOptions opt;
  FlowResult r;
  for (auto _ : state) {
    r = run_flowsyn_s(c, opt);
    benchmark::DoNotOptimize(r);
  }
  set_flow_counters(state, r);
}
BENCHMARK(BM_FlowFlowSynS)->Unit(benchmark::kMillisecond);

void BM_FlowTurboMapPeriod(benchmark::State& state) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[2]);
  FlowOptions opt;
  FlowResult r;
  for (auto _ : state) {
    r = run_turbomap_period(c, opt);
    benchmark::DoNotOptimize(r);
  }
  set_flow_counters(state, r);
}
BENCHMARK(BM_FlowTurboMapPeriod)->Unit(benchmark::kMillisecond);

// Pipelining + retiming of the TurboMap-mapped scf (one W/D table serves the
// fallback search and every (target, depth) configuration). The counters
// are deterministic: the result, the configurations tried, the constraint
// solves and their Bellman–Ford relaxation rounds. Emit machine-readable
// results with
//   micro_bench --benchmark_filter=BM_PipelineRetime --benchmark_out=BENCH_retime.json
//               --benchmark_out_format=json
void BM_PipelineRetime(benchmark::State& state) {
  const auto specs = table1_suite();
  const auto scf = std::find_if(specs.begin(), specs.end(),
                                [](const BenchmarkSpec& s) { return s.name == "scf"; });
  TS_CHECK(scf != specs.end(), "scf missing from the Table-1 suite");
  FlowOptions opt;
  opt.num_threads = 1;
  opt.pipeline = false;
  const Circuit mapped = run_turbomap(generate_fsm_circuit(*scf), opt).mapped;
  PipelineResult p;
  for (auto _ : state) {
    Circuit c = mapped;
    p = pipeline_and_retime(c);
    benchmark::DoNotOptimize(c);
  }
  state.counters["period"] = benchmark::Counter(static_cast<double>(p.period));
  state.counters["stages"] = benchmark::Counter(p.stages);
  state.counters["configs"] = benchmark::Counter(static_cast<double>(p.configs_tried));
  state.counters["solves"] = benchmark::Counter(static_cast<double>(p.solves));
  state.counters["bf_rounds"] = benchmark::Counter(static_cast<double>(p.bf_rounds));
}
BENCHMARK(BM_PipelineRetime)->Unit(benchmark::kMillisecond);

// Portfolio race over the registry engines, sequential (Arg 0: engines run
// in list order, dominated engines are skipped) vs concurrent (Arg 1: lanes
// race over the shared pool with first-to-certificate cancellation). Emit
// machine-readable results with
//   micro_bench --benchmark_filter=BM_Portfolio
//               --benchmark_out=BENCH_portfolio.json --benchmark_out_format=json
// The sequential variant's cancelled_engines / probes counters are
// deterministic replays and feed the bench gate; the concurrent variant
// emits only winner-side counters (which losers got far enough to record
// probes is scheduler-dependent).
void BM_Portfolio(benchmark::State& state) {
  const bool concurrent = state.range(0) == 1;
  const Circuit c = generate_fsm_circuit(tiny_suite()[2]);
  std::vector<const EngineSpec*> engines;
  const std::string invalid = parse_portfolio("turbomap,turbosyn,flowsyn_s", engines);
  TS_CHECK(invalid.empty(), invalid);
  FlowOptions opt;
  PortfolioOptions popt;
  popt.concurrent = concurrent;
  FlowResult r;
  for (auto _ : state) {
    r = run_portfolio(engines, c, opt, popt);
    benchmark::DoNotOptimize(r);
  }
  state.counters["phi"] = benchmark::Counter(static_cast<double>(r.phi));
  const EngineSpec* winner = find_engine(r.engine);
  state.counters["winner_strength"] =
      benchmark::Counter(winner != nullptr ? static_cast<double>(winner->strength) : -1.0);
  if (!concurrent) {
    double cancelled = 0.0;
    for (const EngineRun& row : r.portfolio) cancelled += row.cancelled ? 1.0 : 0.0;
    state.counters["cancelled_engines"] = benchmark::Counter(cancelled);
    state.counters["probes"] = benchmark::Counter(static_cast<double>(r.probes.size()));
  }
  state.counters["flow_seconds"] = benchmark::Counter(r.seconds);
}
BENCHMARK(BM_Portfolio)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

// Batch multi-circuit scheduler, cold (Arg 0: every iteration starts from an
// empty artifact cache and populates it) vs warm (Arg 1: the cache is
// pre-populated once, so every circuit replays its probe ledger). Emit
// machine-readable results with
//   micro_bench --benchmark_filter=BM_Batch --benchmark_out=BENCH_batch.json
//               --benchmark_out_format=json
void BM_BatchFlow(benchmark::State& state) {
  namespace fs = std::filesystem;
  const bool warm = state.range(0) == 1;
  const fs::path dir = fs::temp_directory_path() / "turbosyn_bench_batch";
  fs::create_directories(dir);
  std::vector<BatchJob> jobs;
  for (const BenchmarkSpec& spec : tiny_suite()) {
    const Circuit c = generate_fsm_circuit(spec);
    const fs::path path = dir / (spec.name + ".blif");
    write_blif_file(c, path.string(), spec.name);
    BatchJob job;
    job.name = spec.name;
    job.path = path.string();
    jobs.push_back(job);
  }
  const fs::path cache_dir = dir / (warm ? "cache_warm" : "cache_cold");
  BatchOptions options;
  options.num_workers = 1;  // deterministic single-lane schedule
  std::optional<FlowCache> cache;  // outlives the loop so counters are readable
  BatchSummary summary;
  if (warm) {
    fs::remove_all(cache_dir);
    cache.emplace(cache_dir.string());
    options.cache = &*cache;
    (void)run_batch(jobs, options);  // populate once; iterations all hit
    for (auto _ : state) {
      summary = run_batch(jobs, options);
      benchmark::DoNotOptimize(summary);
    }
  } else {
    for (auto _ : state) {
      state.PauseTiming();
      fs::remove_all(cache_dir);
      cache.emplace(cache_dir.string());
      options.cache = &*cache;
      state.ResumeTiming();
      summary = run_batch(jobs, options);
      benchmark::DoNotOptimize(summary);
    }
  }
  state.counters["cache_hits"] = benchmark::Counter(static_cast<double>(summary.cache_hits));
  state.counters["completed"] = benchmark::Counter(static_cast<double>(summary.completed));
  // Fault-tolerance counters (DESIGN.md §13): all deterministically zero on a
  // healthy run, so the bench gate flags any retry/quarantine/recovery churn
  // sneaking into the hot path.
  state.counters["retries"] = benchmark::Counter(static_cast<double>(summary.retries));
  state.counters["quarantined"] = benchmark::Counter(static_cast<double>(summary.quarantined));
  state.counters["recovered_entries"] =
      benchmark::Counter(cache ? static_cast<double>(cache->recovered_entries()) : 0.0);
  state.counters["store_retries"] =
      benchmark::Counter(cache ? static_cast<double>(cache->retries()) : 0.0);
}
BENCHMARK(BM_BatchFlow)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_SequentialSimulation(benchmark::State& state) {
  const Circuit c = generate_fsm_circuit(table1_suite()[0]);
  Rng rng(7);
  const auto stimulus = random_stimulus(rng, c.num_pis(), 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_sequence(c, stimulus));
  }
}
BENCHMARK(BM_SequentialSimulation);

}  // namespace
}  // namespace turbosyn

BENCHMARK_MAIN();
