#pragma once
// Shared types of the end-to-end benchmark (main.cpp) and its traced layer
// replay (replay.cpp). Everything here calls the library only through its
// public headers; no tracing hook inside the library is used.

#include <chrono>
#include <cstdint>
#include <ctime>
#include <optional>
#include <string>
#include <vector>

#include "cache/cached_flow.hpp"
#include "core/flows.hpp"
#include "netlist/circuit.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU seconds used so far by all threads of this process. On a virtual
/// machine with steal-time accounting this leaves out the time the host ran
/// other guests, which wall time counts.
inline double process_cpu_seconds() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

/// One timed call into a layer. Spans of one job share `job`; `parent` is
/// the index of the enclosing span in the recorder (-1 for a root).
struct Span {
  int job = -1;  // -1: set-up work, not tied to a job
  int parent = -1;
  std::string layer;
  std::string name;
  double start = 0.0;  // seconds since the recorder was created
  double end = 0.0;
  double job_wall_s = 0.0;  // root spans only: the job's untraced wall time
  std::string job_name;     // root spans only
};

/// In-memory span store, written out once when the benchmark ends.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  int open(int job, std::string layer, std::string name);
  void close(int index);
  Span& at(int index) { return spans_[static_cast<std::size_t>(index)]; }
  const std::vector<Span>& spans() const { return spans_; }
  /// One JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open spans, for parent links
};

/// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, int job, std::string layer, std::string name)
      : rec_(rec), index_(rec ? rec->open(job, std::move(layer), std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  SpanRecorder* rec_;
  int index_;
};

/// One request of a workload pass.
struct Job {
  std::string name;  // circuit name, "~eN" suffix for the Nth one-gate edit
  turbosyn::FlowKind kind = turbosyn::FlowKind::kTurboMap;
  int circuit = 0;  // index into Setup::circuits
  std::optional<int> pinned_phi;  // the φ this job must reach, when pinned
};

/// What one pass produced for one job.
struct JobRun {
  double seconds = 0.0;
  turbosyn::FlowResult result;
  turbosyn::CacheRunInfo info;
};

/// phi|period|stages|mapped BLIF: two runs with equal fingerprints produced
/// the same mapped network and the same figures.
std::string fingerprint(const turbosyn::FlowResult& r);

/// Replays one finished job's layers through their public functions, one
/// span per call, and checks that the replay agrees with the job. For a
/// cached job, `cache` is the store the job ran against and `scratch_store`
/// a separate store that takes the replayed writes. Returns the
/// disagreements (empty when the replay matches).
std::vector<std::string> replay_job(SpanRecorder& rec, int job_index, const Job& job,
                                    const turbosyn::Circuit& input,
                                    const turbosyn::FlowOptions& options, const JobRun& run,
                                    const turbosyn::FlowCache* cache,
                                    turbosyn::FlowCache* scratch_store);

}  // namespace perfbench
