// perfbench: the repository benchmark. Runs one workload of the paper's flows
// as a closed loop (one caller; the next job starts when the previous one
// returns), checks every output, and prints one JSON line of metrics.
//
//   perfbench --workload turbosyn_fsm|map_baselines|cache_replay
//             [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
//             [--work-dir DIR] [--quick] [--shift-circuits] [--list-inputs]
//
// Every workload runs the Table-1 and scaling specs at their own generator
// seeds (README.md says why). In cache_replay the seed draws the one-gate
// edits. With --shift-circuits, map_baselines derives new generator seeds
// from any seed other than 1, keeping every size. --trace 1 replays every
// job's layers with one span per call, prints the per-layer metrics instead
// of the end-to-end ones, and writes the spans to --spans. --quick shrinks
// map_baselines and cache_replay to a smoke-test size.
// --list-inputs prints each input circuit's canonical hash and exits.
//
// Exit code: 0 when every check passed, 1 on any correctness failure, 2 on a
// usage error.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cache/cached_flow.hpp"
#include "cache/flow_cache.hpp"
#include "core/probe_ledger.hpp"
#include "netlist/blif.hpp"
#include "netlist/canonical.hpp"
#include "perfbench.hpp"
#include "verify/audit.hpp"
#include "workloads/generator.hpp"

namespace perfbench {
namespace {

using namespace turbosyn;
namespace fs = std::filesystem;

constexpr std::uint64_t kDefaultSeed = 1;
// Set-up runs in batches: one before each timed pass and one after the
// last. A batch repeats the set-up until kSetupBatchSeconds have been spent
// on it, at least once and at most kSetupBatchRepeats times.
constexpr int kSetupBatchRepeats = 25;
constexpr double kSetupBatchSeconds = 0.4;
constexpr int kCacheEdits = 3;
constexpr int kCacheRepeats = 2;
constexpr int kSmallGates = 300;  // "Table-1 circuits of at most 300 gates"

enum class Workload { kTurboSynFsm, kMapBaselines, kCacheReplay };

struct Args {
  Workload workload = Workload::kTurboSynFsm;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  std::string work_dir = ".bench_build/work";
  bool quick = false;
  bool shift_circuits = false;
  bool list_inputs = false;
};

// φ at the default seed, per flow and circuit, as this code produces it.
// A job pinned here fails when it reaches any other φ. The pins hold at
// every seed for every circuit no seed changes: all of them except the
// cache_replay edits and the circuits of map_baselines --shift-circuits.
const std::map<std::string, int>& pinned_phi() {
  static const std::map<std::string, int> pins = {
      {"turbosyn/bbara", 3},
      {"turbomap/bbara", 6},      {"flowsyn_s/bbara", 2},   {"turbomap/bbsse", 5},
      {"flowsyn_s/bbsse", 4},     {"turbomap/cse", 10},     {"flowsyn_s/cse", 8},
      {"turbomap/dk16", 7},       {"turbomap/keyb", 9},     {"flowsyn_s/keyb", 11},
      {"turbomap/kirkman", 10},   {"flowsyn_s/kirkman", 7}, {"turbomap/planet", 7},
      {"turbomap/pma", 8},        {"flowsyn_s/pma", 8},     {"turbomap/s1", 8},
      {"turbomap/sand", 7},       {"turbomap/scf", 9},      {"turbomap/styr", 10},
      {"turbomap/s298", 6},       {"flowsyn_s/s298", 4},    {"turbomap/s400", 6},
      {"flowsyn_s/s400", 5},      {"turbomap/s526", 7},     {"flowsyn_s/s526", 5},
      {"turbomap/s953", 7},       {"turbomap/scale1000", 7}, {"turbomap/scale2000", 13},
      {"turbomap/scale4000", 11},
      // cache_replay: the cold miss of each base circuit (after its BLIF
      // round trip).
      {"cached/turbomap/bbara", 6},   {"cached/turbomap/bbsse", 5},
      {"cached/turbomap/cse", 10},    {"cached/turbomap/keyb", 9},
      {"cached/turbomap/kirkman", 10}, {"cached/turbomap/pma", 8},
      {"cached/turbomap/s298", 6},    {"cached/turbomap/s400", 6},
      {"cached/turbomap/s526", 7},
  };
  return pins;
}

/// The pinned φ of a job, if any. `shifted` is true when the benchmark seed
/// changed the circuit (a new generator seed or an edit), so no pin applies.
std::optional<int> pin_for(FlowKind kind, const std::string& circuit, bool cached,
                           bool shifted) {
  if (shifted) return std::nullopt;
  const std::string key =
      std::string(cached ? "cached/" : "") + flow_kind_name(kind) + "/" + circuit;
  const auto it = pinned_phi().find(key);
  if (it == pinned_phi().end()) return std::nullopt;
  return it->second;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The generator seed a spec runs under at benchmark seed `seed`.
std::uint64_t generator_seed(const BenchmarkSpec& spec, std::uint64_t seed) {
  if (seed == kDefaultSeed) return spec.seed;
  return splitmix64(spec.seed ^ splitmix64(seed));
}

/// Complements one gate's function by flipping the output column of its
/// cover in BLIF text. Only gates with two or more inputs are candidates, so
/// the output aliases the writer emits are never edited. `pick` selects the
/// candidate; returns the edited text and the edited gate's name.
std::pair<std::string, std::string> edit_one_gate(const std::string& text,
                                                  std::uint64_t pick) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    std::istringstream tok(lines[i]);
    std::vector<std::string> words;
    for (std::string w; tok >> w;) words.push_back(w);
    if (words.size() >= 4 && words[0] == ".names" && !lines[i + 1].empty() &&
        lines[i + 1][0] != '.') {
      candidates.push_back(i);
    }
  }
  if (candidates.empty()) throw std::runtime_error("no editable gate in the circuit");
  const std::size_t at = candidates[pick % candidates.size()];
  for (std::size_t i = at + 1; i < lines.size() && !lines[i].empty() && lines[i][0] != '.';
       ++i) {
    char& bit = lines[i].back();
    bit = bit == '1' ? '0' : '1';
  }
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  const std::string& names = lines[at];
  return {out, names.substr(names.rfind(' ') + 1)};
}

struct Setup {
  std::vector<Circuit> circuits;
  std::vector<std::string> circuit_names;
  std::vector<Job> jobs;
  double generate_s = 0.0;
  double blif_read_s = 0.0;
  double blif_write_s = 0.0;
};

Circuit generate(Setup& s, SpanRecorder* rec, const BenchmarkSpec& spec) {
  const auto start = Clock::now();
  Circuit c;
  {
    ScopedSpan span(rec, -1, "workloads", "generate_fsm_circuit");
    c = generate_fsm_circuit(spec);
  }
  s.generate_s += seconds_since(start);
  return c;
}

std::string timed_write(Setup& s, SpanRecorder* rec, const Circuit& c, const std::string& name) {
  const auto start = Clock::now();
  ScopedSpan span(rec, -1, "netlist", "write_blif_string");
  std::string text = write_blif_string(c, name);
  s.blif_write_s += seconds_since(start);
  return text;
}

Circuit timed_read(Setup& s, SpanRecorder* rec, const std::string& text, const std::string& name) {
  const auto start = Clock::now();
  ScopedSpan span(rec, -1, "netlist", "read_blif_string");
  Circuit c = read_blif_string(text, name);
  s.blif_read_s += seconds_since(start);
  return c;
}

std::vector<BenchmarkSpec> specs_for(const Args& args) {
  std::vector<BenchmarkSpec> out;
  const std::vector<BenchmarkSpec> table1 = table1_suite();
  switch (args.workload) {
    case Workload::kTurboSynFsm:
      // Fixed at the Table-1 generator seed for every benchmark seed. One
      // short circuit, so that a run holds several passes to take the median
      // of.
      for (const BenchmarkSpec& s : table1) {
        if (s.name == "bbara") out.push_back(s);
      }
      return out;
    case Workload::kMapBaselines: {
      for (const BenchmarkSpec& s : table1) {
        if (!args.quick || s.num_gates <= 160) out.push_back(s);
      }
      if (!args.quick) {
        for (const BenchmarkSpec& s : scaling_suite()) {
          if (s.num_gates <= 4000) out.push_back(s);
        }
      }
      break;
    }
    case Workload::kCacheReplay:
      // Fixed base circuits; the seed draws the one-gate edits.
      for (const BenchmarkSpec& s : table1) {
        if (s.num_gates <= (args.quick ? 160 : kSmallGates)) out.push_back(s);
      }
      break;
  }
  if (args.workload == Workload::kMapBaselines && args.shift_circuits) {
    for (BenchmarkSpec& s : out) s.seed = generator_seed(s, args.seed);
  }
  return out;
}

/// Generates every input and the job list; for cache_replay also the
/// one-gate edits and a fresh store directory.
Setup build_setup(const Args& args, SpanRecorder* rec, const std::string& cache_dir) {
  Setup s;
  const bool shifted = args.shift_circuits && args.seed != kDefaultSeed;  // map_baselines only
  for (const BenchmarkSpec& spec : specs_for(args)) {
    const int index = static_cast<int>(s.circuits.size());
    switch (args.workload) {
      case Workload::kTurboSynFsm: {
        s.circuits.push_back(generate(s, rec, spec));
        s.circuit_names.push_back(spec.name);
        s.jobs.push_back({spec.name, FlowKind::kTurboSyn, index,
                          pin_for(FlowKind::kTurboSyn, spec.name, false, false)});
        break;
      }
      case Workload::kMapBaselines: {
        s.circuits.push_back(generate(s, rec, spec));
        s.circuit_names.push_back(spec.name);
        s.jobs.push_back({spec.name, FlowKind::kTurboMap, index,
                          pin_for(FlowKind::kTurboMap, spec.name, false, shifted)});
        if (spec.num_gates <= kSmallGates && spec.name.rfind("scale", 0) != 0) {
          s.jobs.push_back({spec.name, FlowKind::kFlowSynS, index,
                            pin_for(FlowKind::kFlowSynS, spec.name, false, shifted)});
        }
        break;
      }
      case Workload::kCacheReplay: {
        // The base circuit takes the same BLIF round trip as its edits, so
        // each edit differs from it in exactly one gate function.
        const std::string text = timed_write(s, rec, generate(s, rec, spec), spec.name);
        s.circuits.push_back(timed_read(s, rec, text, spec.name));
        s.circuit_names.push_back(spec.name);
        std::vector<std::string> edited_gates;
        for (std::uint64_t k = 0; edited_gates.size() < kCacheEdits; ++k) {
          auto [edited, gate] =
              edit_one_gate(text, splitmix64(splitmix64(args.seed) ^ (spec.seed * 31 + k)));
          if (std::find(edited_gates.begin(), edited_gates.end(), gate) != edited_gates.end()) {
            continue;
          }
          edited_gates.push_back(gate);
          s.circuits.push_back(timed_read(s, rec, edited, spec.name));
          s.circuit_names.push_back(spec.name + "~e" + std::to_string(edited_gates.size()));
        }
        break;
      }
    }
  }
  if (args.workload == Workload::kCacheReplay) {
    // Cold misses and near-miss edits first, grouped per circuit, then exact
    // repeats of all of them as hits.
    for (int round = 0; round <= kCacheRepeats; ++round) {
      for (int i = 0; i < static_cast<int>(s.circuits.size()); ++i) {
        const std::string& name = s.circuit_names[static_cast<std::size_t>(i)];
        const bool edited = name.find('~') != std::string::npos;
        s.jobs.push_back({name, FlowKind::kTurboMap, i,
                          pin_for(FlowKind::kTurboMap, name, true, edited)});
      }
    }
    ScopedSpan span(rec, -1, "cache", "create_store_dir");
    fs::remove_all(cache_dir);
    fs::create_directories(cache_dir);
  }
  return s;
}

FlowOptions workload_options() {
  FlowOptions opt;
  // Artifacts let audit_flow re-check labels and cuts and let the traced
  // replay re-map from the winning labels; they are copies, not extra work.
  opt.collect_artifacts = true;
  // One thread everywhere: the host's few cores are shared, and parallel
  // sections that wait for their slowest thread time the scheduler.
  opt.num_threads = 1;
  return opt;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Sums of the per-layer counters over one pass, read from the result
/// structs the flows return.
struct LayerTotals {
  double plain_probe_s = 0, decomp_probe_s = 0;
  double probes = 0, node_updates = 0, plain_node_updates = 0, sweeps = 0, nodes_skipped = 0;
  double decomp_attempts = 0, decomp_successes = 0, decomp_memo_hits = 0;
  double cut_tests = 0, flow_augmentations = 0;
  double mapgen_luts = 0, final_luts = 0;
  double retime_configs = 0;
  std::map<std::string, double> stage_s;
};

LayerTotals layer_totals(const std::vector<JobRun>& runs) {
  LayerTotals t;
  for (const JobRun& run : runs) {
    const FlowResult& r = run.result;
    for (const ProbeRecord& p : r.probes) {
      if (p.imported || p.seed_only) continue;
      t.probes += 1;
      t.node_updates += static_cast<double>(p.stats.node_updates);
      t.sweeps += static_cast<double>(p.stats.sweeps);
      t.nodes_skipped += static_cast<double>(p.stats.nodes_skipped);
      if (p.mode == LabelMode::kDecomp) {
        t.decomp_probe_s += p.seconds;
      } else {
        t.plain_probe_s += p.seconds;
        t.plain_node_updates += static_cast<double>(p.stats.node_updates);
      }
    }
    t.decomp_attempts += static_cast<double>(r.stats.decomp_attempts);
    t.decomp_successes += static_cast<double>(r.stats.decomp_successes);
    t.decomp_memo_hits += static_cast<double>(r.stats.cache_hits);
    t.cut_tests += static_cast<double>(r.stats.cut_tests);
    t.flow_augmentations += static_cast<double>(r.stats.flow_augmentations);
    double mapped_luts = 0;
    for (const StageMetric& stage : r.stage_metrics.stages) {
      t.stage_s[stage.name] += stage.seconds;
      if (stage.name == "mapgen" || stage.name == "flowsyn-map") {
        mapped_luts = static_cast<double>(stage.counter("luts"));
      }
      t.retime_configs += static_cast<double>(stage.counter("retime_configs"));
    }
    t.mapgen_luts += mapped_luts;
    t.final_luts += r.luts;
  }
  return t;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kTurboSynFsm: return "turbosyn_fsm";
    case Workload::kMapBaselines: return "map_baselines";
    case Workload::kCacheReplay: return "cache_replay";
  }
  return "?";
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload turbosyn_fsm|map_baselines|cache_replay [--seed N]"
               " [--seconds S] [--trace 0|1] [--spans PATH] [--work-dir DIR] [--quick]"
               " [--shift-circuits] [--list-inputs]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(flag + " needs a value");
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        const std::string w = value();
        have_workload = true;
        if (w == "turbosyn_fsm") a.workload = Workload::kTurboSynFsm;
        else if (w == "map_baselines") a.workload = Workload::kMapBaselines;
        else if (w == "cache_replay") a.workload = Workload::kCacheReplay;
        else usage("unknown workload '" + w + "'");
      } else if (flag == "--seed") {
        a.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value());
      } else if (flag == "--trace") {
        a.trace = std::stoi(value()) != 0;
      } else if (flag == "--spans") {
        a.spans_path = value();
      } else if (flag == "--work-dir") {
        a.work_dir = value();
      } else if (flag == "--quick") {
        a.quick = true;
      } else if (flag == "--shift-circuits") {
        a.shift_circuits = true;
      } else if (flag == "--list-inputs") {
        a.list_inputs = true;
      } else {
        usage("unknown flag '" + flag + "'");
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

void print_json(bool correct, long long attempted, long long failed,
                const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int run(const Args& args) {
  const FlowOptions options = workload_options();
  const bool cached = args.workload == Workload::kCacheReplay;
  std::unique_ptr<SpanRecorder> recorder;
  if (args.trace) recorder = std::make_unique<SpanRecorder>();
  SpanRecorder* rec = recorder.get();
  const fs::path work = fs::path(args.work_dir) / workload_name(args.workload);

  // The reported set-up time is the median over all batches. The host's
  // speed drifts within seconds, so set-ups timed only before the first pass
  // would see another host than the passes do. The passes use the first
  // set-up; the later ones are only measured.
  std::vector<double> setup_s, generate_s, read_s, write_s;
  const std::string setup_store = (work / "setup-store").string();
  const auto setup_batch = [&] {
    Setup last;
    const auto start = Clock::now();
    for (int i = 0;
         i < kSetupBatchRepeats && (i == 0 || seconds_since(start) < kSetupBatchSeconds); ++i) {
      const double cpu_start = process_cpu_seconds();
      last = build_setup(args, rec, setup_store);
      setup_s.push_back(process_cpu_seconds() - cpu_start);
      generate_s.push_back(last.generate_s);
      read_s.push_back(last.blif_read_s);
      write_s.push_back(last.blif_write_s);
    }
    return last;
  };
  const Setup setup = setup_batch();
  if (args.list_inputs) {
    for (std::size_t i = 0; i < setup.circuits.size(); ++i) {
      std::printf("%s %016llx\n", setup.circuit_names[i].c_str(),
                  static_cast<unsigned long long>(
                      canonical_circuit_form(setup.circuits[i]).hash));
    }
    fs::remove_all(work);
    return 0;
  }

  // Timed passes. Another pass starts only while it can be expected to end
  // within --seconds; the first pass always runs. A traced run reports only
  // per-layer figures of the first pass, so it runs that pass alone.
  std::vector<JobRun> first;
  std::vector<std::string> first_fp;
  std::vector<double> pass_s, pass_cpu_s, job_s, hit_job_s, miss_job_s;
  std::unique_ptr<FlowCache> first_cache;
  double cache_hits = 0, cache_hot_hits = 0, cache_stores = 0;  // first pass
  long long attempted = 0, failed = 0;
  std::vector<std::string> failures;
  double elapsed = 0.0;
  double peak_rss_mb = 0.0;
  for (int pass = 0; pass == 0 || (!args.trace && elapsed + median(pass_s) <= args.seconds);
       ++pass) {
    if (pass > 0) {
      const auto start = Clock::now();
      setup_batch();
      elapsed += seconds_since(start);
    }
    std::unique_ptr<FlowCache> cache;
    if (cached) {
      const fs::path dir = work / ("store" + std::to_string(pass));
      fs::remove_all(dir);
      fs::create_directories(dir);
      cache = std::make_unique<FlowCache>(dir.string());
      cache->enable_hot_tier(std::size_t{64} << 20);  // the daemon's default
    }
    std::vector<JobRun> runs(setup.jobs.size());
    const auto pass_start = Clock::now();
    const double pass_cpu_start = process_cpu_seconds();
    for (std::size_t j = 0; j < setup.jobs.size(); ++j) {
      const Job& job = setup.jobs[j];
      const Circuit& input = setup.circuits[static_cast<std::size_t>(job.circuit)];
      const auto start = Clock::now();
      runs[j].result = cached
                           ? run_flow_cached(job.kind, input, options, cache.get(), &runs[j].info)
                           : run_flow(job.kind, input, options);
      runs[j].seconds = seconds_since(start);
    }
    pass_cpu_s.push_back(process_cpu_seconds() - pass_cpu_start);
    pass_s.push_back(seconds_since(pass_start));
    elapsed += pass_s.back();
    std::fprintf(stderr, "perfbench: pass %d %.4f s wall, %.4f s CPU\n", pass, pass_s.back(),
                 pass_cpu_s.back());
    for (const JobRun& r : runs) {
      job_s.push_back(r.seconds);
      if (cached) (r.info.hit ? hit_job_s : miss_job_s).push_back(r.seconds);
    }
    attempted += static_cast<long long>(runs.size());
    if (pass == 0) {
      // Read after the first pass, so the figure does not depend on how
      // many passes fit in --seconds.
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
      first = std::move(runs);
      first_cache = std::move(cache);
      if (first_cache) {
        cache_hits = static_cast<double>(first_cache->hits());
        cache_hot_hits = static_cast<double>(first_cache->hot_hits());
        cache_stores = static_cast<double>(first_cache->stores());
      }
      for (const JobRun& r : first) first_fp.push_back(fingerprint(r.result));
      continue;
    }
    for (std::size_t j = 0; j < runs.size(); ++j) {
      if (fingerprint(runs[j].result) != first_fp[j]) {
        ++failed;
        failures.push_back(setup.jobs[j].name + ": pass " + std::to_string(pass) +
                           " result differs from pass 0");
      }
    }
  }
  setup_batch();
  std::fprintf(stderr, "perfbench: set-up %.6f CPU s (median of %zu)\n", median(setup_s),
               setup_s.size());
  // Correctness of the first pass, outside the timed region: status, pinned
  // φ, audit, the cold-run fingerprint (cache_replay) and, when tracing, the
  // layer replay.
  double audit_s = 0.0;
  std::unique_ptr<FlowCache> replay_store;  // takes the replayed stores
  if (rec != nullptr && cached) {
    const fs::path dir = work / "replay-store";
    fs::create_directories(dir);
    replay_store = std::make_unique<FlowCache>(dir.string());
  }
  std::map<int, std::string> cold_fp;  // circuit -> uncached cold fingerprint
  for (std::size_t j = 0; j < first.size(); ++j) {
    const Job& job = setup.jobs[j];
    const Circuit& input = setup.circuits[static_cast<std::size_t>(job.circuit)];
    const FlowResult& r = first[j].result;
    std::vector<std::string> errors;
    if (r.status != Status::kOk) errors.push_back(std::string("status ") + status_name(r.status));
    if (job.pinned_phi && r.phi != *job.pinned_phi) {
      errors.push_back("phi " + std::to_string(r.phi) + ", pinned " +
                       std::to_string(*job.pinned_phi));
    }
    if (cached) {
      auto it = cold_fp.find(job.circuit);
      if (it == cold_fp.end()) {
        FlowOptions cold = options;
        cold.incremental = false;
        it = cold_fp.emplace(job.circuit, fingerprint(run_flow(job.kind, input, cold))).first;
      }
      if (first_fp[j] != it->second) errors.push_back("fingerprint differs from a cold run");
    }
    {
      ScopedSpan root(rec, static_cast<int>(j), "job", workload_name(args.workload));
      if (rec != nullptr) {
        rec->at(root.index()).job_wall_s = first[j].seconds;
        rec->at(root.index()).job_name = job.name + "/" + flow_kind_name(job.kind);
        const std::vector<std::string> replay =
            replay_job(*rec, static_cast<int>(j), job, input, options, first[j],
                       first_cache.get(), replay_store.get());
        errors.insert(errors.end(), replay.begin(), replay.end());
      }
      const auto start = Clock::now();
      ScopedSpan span(rec, static_cast<int>(j), "verify", "audit_flow");
      const AuditReport report = audit_flow(input, r, options);
      audit_s += seconds_since(start);
      if (!report.passed()) errors.push_back("audit failed:\n" + report.breakdown());
    }
    const char* cache_outcome = !cached              ? ""
                                : first[j].info.hit       ? " hit"
                                : first[j].info.near_miss ? " near-miss"
                                                          : " miss";
    std::fprintf(stderr, "perfbench: job %-12s %-9s phi %3d luts %5d period %3lld %8.4f s%s\n",
                 job.name.c_str(), flow_kind_name(job.kind), r.phi, r.luts,
                 static_cast<long long>(r.period), first[j].seconds, cache_outcome);
    if (!errors.empty()) {
      ++failed;
      for (const std::string& e : errors) {
        failures.push_back(job.name + " (" + flow_kind_name(job.kind) + "): " + e);
      }
    }
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    double log_phi = 0, log_period = 0, luts = 0, ffs = 0;
    for (const JobRun& run : first) {
      log_phi += std::log(std::max(1, run.result.phi));
      log_period += std::log(static_cast<double>(std::max<std::int64_t>(1, run.result.period)));
      luts += run.result.luts;
      ffs += static_cast<double>(run.result.ffs);
    }
    const double n = static_cast<double>(first.size());
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"cpu_s", median(pass_cpu_s), "s"},
        {"phi_geomean", std::exp(log_phi / n), "phi"},
        {"period_geomean", std::exp(log_period / n), "cycles"},
        {"luts_total", luts, "count"},
        {"ffs_total", ffs, "count"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"success_ratio", 1.0 - ratio(static_cast<double>(failed), static_cast<double>(attempted)),
         "ratio"},
    };
  } else {
    const LayerTotals t = layer_totals(first);
    std::map<std::string, double> span_s;  // "layer.name" -> seconds, job spans
    for (const Span& s : rec->spans()) {
      if (s.job >= 0) span_s[s.layer + "." + s.name] += s.end - s.start;
    }
    const auto stage = [&](const char* name) {
      const auto it = t.stage_s.find(name);
      return it == t.stage_s.end() ? 0.0 : it->second;
    };
    double near = 0, misses = 0;
    for (const JobRun& run : first) {
      if (cached && !run.info.hit) {
        misses += 1;
        near += run.info.near_miss ? 1 : 0;
      }
    }
    metrics = {
        {"decomp.attempts", t.decomp_attempts, "count"},
        {"decomp.success_ratio", ratio(t.decomp_successes, t.decomp_attempts), "ratio"},
        {"decomp.memo_hit_ratio",
         ratio(t.decomp_memo_hits, t.decomp_memo_hits + t.decomp_attempts), "ratio"},
        {"decomp.ms_per_attempt", 1e3 * ratio(t.decomp_probe_s, t.decomp_attempts), "ms"},
        {"decomp.probe_s", t.decomp_probe_s, "s"},
        {"core.probe_s", t.plain_probe_s, "s"},
        {"core.probes", t.probes, "count"},
        {"core.node_updates", t.node_updates, "count"},
        {"core.sweeps", t.sweeps, "count"},
        {"core.skip_ratio", ratio(t.nodes_skipped, t.node_updates + t.nodes_skipped), "ratio"},
        {"core.us_per_node_update", 1e6 * ratio(t.plain_probe_s, t.plain_node_updates), "us"},
        {"graph.cut_tests", t.cut_tests, "count"},
        {"graph.flow_augmentations", t.flow_augmentations, "count"},
        {"core.mapgen_s", stage("mapgen"), "s"},
        {"core.mapgen_luts", t.mapgen_luts, "count"},
        {"mapping.dedupe_s", span_s["mapping.dedupe_luts"], "s"},
        {"mapping.pack_s", span_s["mapping.pack_luts"], "s"},
        {"mapping.luts_removed", t.mapgen_luts - t.final_luts, "count"},
        {"retime.pipeline_retime_s", stage("pipeline-retime"), "s"},
        {"retime.configs_tried", t.retime_configs, "count"},
        {"retime.s_per_config", ratio(stage("pipeline-retime"), t.retime_configs), "s"},
        {"retime.mdr_s", span_s["retime.circuit_mdr"], "s"},
        {"cache.hit_ratio", ratio(cache_hits, static_cast<double>(first.size())), "ratio"},
        {"cache.near_miss_ratio", ratio(near, misses), "ratio"},
        {"cache.hot_hit_ratio",
         ratio(cache_hot_hits, cache_hits), "ratio"},
        {"cache.stores", cache_stores, "count"},
        {"cache.hit_job_s_p50", percentile(hit_job_s, 0.5), "s"},
        {"cache.miss_job_s_p50", percentile(miss_job_s, 0.5), "s"},
        {"netlist.blif_read_s", median(read_s) + span_s["netlist.read_blif_string"], "s"},
        {"netlist.blif_write_s", median(write_s) + span_s["netlist.write_blif_string"], "s"},
        {"verify.audit_s", audit_s, "s"},
        {"workloads.generate_s", median(generate_s), "s"},
        {"stage.ub_probe_s", stage("ub-probe"), "s"},
        {"stage.label_s", stage("label"), "s"},
        {"stage.phi_search_s", stage("phi-search"), "s"},
        {"stage.flowsyn_map_s", stage("flowsyn-map"), "s"},
        {"stage.cached_search_s", stage("cached-search"), "s"},
        {"stage.pack_s", stage("pack"), "s"},
        {"wall_s", median(pass_s), "s"},
        {"job_s_p50", percentile(job_s, 0.5), "s"},
        {"job_s_p90", percentile(job_s, 0.9), "s"},
        {"job_samples", static_cast<double>(job_s.size()), "count"},
        {"failed_ratio", ratio(static_cast<double>(failed), static_cast<double>(attempted)),
         "ratio"},
    };
    if (!args.spans_path.empty()) rec->write_jsonl(args.spans_path);
  }
  first_cache.reset();
  fs::remove_all(work);

  for (const std::string& f : failures) std::cerr << "perfbench: FAIL " << f << "\n";
  print_json(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
