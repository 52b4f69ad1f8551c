// tsd — the always-on mapping daemon.
//
//   $ ./tsd --socket /tmp/tsd.sock [--tcp-port N] [--workers N]
//           [--cache-dir PATH] [--hot-mb N] [--hot-entries N]
//           [--max-queue N] [--per-client N]
//           [--budget-ms N] [--per-request-ms N]
//           [--jsonl PATH] [--max-attempts N]
//           [--failpoints SPEC] [--trace-json PATH]
//           [--http-port N] [--trace-ring N]
//
// Serves the line-delimited JSON mapping protocol (service/mapping_server.hpp)
// over a Unix-domain socket, optionally also on TCP loopback (--tcp-port 0
// picks an ephemeral port and prints it). SIGTERM/SIGINT drain gracefully:
// running requests wind down to best-so-far, queued requests report
// cancelled, every admitted request still lands in the JSONL stream. A
// second signal terminates hard, as usual.
//
// --http-port N (0 = ephemeral, printed at startup as http:127.0.0.1:PORT)
// opens the observability endpoint: GET /metrics (Prometheus text
// exposition), GET /healthz (200 while serving, 503 during the drain), and
// GET /trace/<seq> for per-request trace JSON when --trace-ring N keeps the
// last N requests' span trees in memory.
//
// Every numeric flag goes through parse_int_strict: a malformed value is a
// usage error (exit 2), never a silent zero.

#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "base/check.hpp"
#include "base/failpoint.hpp"
#include "base/flow_cli.hpp"
#include "base/run_budget.hpp"
#include "base/trace.hpp"
#include "cache/flow_cache.hpp"
#include "service/mapping_server.hpp"

namespace {

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "error: " << message << '\n'
            << "usage: tsd --socket PATH [--tcp-port N] [--workers N]\n"
               "           [--cache-dir PATH] [--hot-mb N] [--hot-entries N]\n"
               "           [--max-queue N] [--per-client N]\n"
               "           [--budget-ms N] [--per-request-ms N]\n"
               "           [--jsonl PATH] [--max-attempts N]\n"
               "           [--failpoints SPEC] [--trace-json PATH]\n"
               "           [--http-port N] [--trace-ring N]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace turbosyn;
  std::string socket_path;
  std::string cache_dir;
  std::string jsonl_path;
  std::string trace_path;
  std::string failpoints;
  int tcp_port = -1;
  int http_port = -1;
  int workers = 2;
  int per_client = 1;
  int max_attempts = 2;
  long long hot_mb = 64;
  long long hot_entries = 0;
  long long trace_ring = 0;
  long long max_queue = 256;
  long long budget_ms = 0;
  long long per_request_ms = 0;

  const auto int_flag = [&](const char* name, int i, long long lo, long long hi,
                            long long* out) {
    if (i + 1 >= argc) usage_error(std::string(name) + " needs a value");
    if (!parse_int_strict(argv[i + 1], lo, hi, *out)) {
      usage_error(std::string(name) + " expects an integer in [" + std::to_string(lo) +
                  ", " + std::to_string(hi) + "], got '" + argv[i + 1] + "'");
    }
  };

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    long long value = 0;
    if (a == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (a == "--cache-dir" && i + 1 < argc) {
      cache_dir = argv[++i];
    } else if (a == "--jsonl" && i + 1 < argc) {
      jsonl_path = argv[++i];
    } else if (a == "--trace-json" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (a == "--failpoints" && i + 1 < argc) {
      failpoints = argv[++i];
    } else if (a == "--tcp-port") {
      int_flag("--tcp-port", i, 0, 65535, &value);
      tcp_port = static_cast<int>(value);
      ++i;
    } else if (a == "--http-port") {
      int_flag("--http-port", i, 0, 65535, &value);
      http_port = static_cast<int>(value);
      ++i;
    } else if (a == "--trace-ring") {
      int_flag("--trace-ring", i, 0, 1 << 20, &trace_ring);
      ++i;
    } else if (a == "--workers") {
      int_flag("--workers", i, 1, 1 << 10, &value);
      workers = static_cast<int>(value);
      ++i;
    } else if (a == "--per-client") {
      int_flag("--per-client", i, 1, 1 << 10, &value);
      per_client = static_cast<int>(value);
      ++i;
    } else if (a == "--max-attempts") {
      int_flag("--max-attempts", i, 1, 100, &value);
      max_attempts = static_cast<int>(value);
      ++i;
    } else if (a == "--hot-mb") {
      int_flag("--hot-mb", i, 0, 1 << 20, &hot_mb);
      ++i;
    } else if (a == "--hot-entries") {
      int_flag("--hot-entries", i, 0, 1 << 30, &hot_entries);
      ++i;
    } else if (a == "--max-queue") {
      int_flag("--max-queue", i, 1, 1 << 20, &max_queue);
      ++i;
    } else if (a == "--budget-ms") {
      int_flag("--budget-ms", i, 0, 1LL << 40, &budget_ms);
      ++i;
    } else if (a == "--per-request-ms") {
      int_flag("--per-request-ms", i, 0, 1LL << 40, &per_request_ms);
      ++i;
    } else {
      usage_error("unknown flag '" + a + "'");
    }
  }
  if (socket_path.empty() && tcp_port < 0) {
    usage_error("--socket PATH (or --tcp-port N) is required");
  }

  try {
    if (!failpoint::configure_from_env()) return 2;
    if (!failpoints.empty()) {
      std::string error;
      if (!failpoint::configure(failpoints, &error)) usage_error("--failpoints: " + error);
    }

    std::unique_ptr<FlowCache> cache;
    if (!cache_dir.empty()) {
      cache = std::make_unique<FlowCache>(cache_dir);
      const FlowCache::RecoveryStats recovered = cache->recover();
      if (recovered.total() > 0) {
        std::cerr << "tsd: cache recovery removed " << recovered.total()
                  << " damaged file(s)\n";
      }
      if (hot_mb > 0) {
        cache->enable_hot_tier(static_cast<std::size_t>(hot_mb) << 20,
                               static_cast<std::size_t>(hot_entries));
      }
    }
    std::unique_ptr<std::ofstream> jsonl;
    if (!jsonl_path.empty()) {
      jsonl = std::make_unique<std::ofstream>(jsonl_path, std::ios::app);
      TS_CHECK(jsonl->good(), "cannot open --jsonl file '" << jsonl_path << "'");
    }
    std::unique_ptr<TraceSink> trace;
    if (!trace_path.empty()) trace = std::make_unique<TraceSink>();

    // SIGTERM/SIGINT cancel the global token; the server's monitor thread
    // turns that into a graceful drain. A second signal kills, as usual.
    install_sigint_cancellation();
    install_sigterm_cancellation();

    MappingServerOptions options;
    options.socket_path = socket_path;
    options.tcp_port = tcp_port;
    options.workers = workers;
    options.max_queue = static_cast<std::size_t>(max_queue);
    options.per_client_in_flight = per_client;
    options.global_budget_ms = budget_ms;
    options.per_request_deadline_ms = per_request_ms;
    options.cache = cache.get();
    options.flow.trace = trace.get();
    options.max_attempts = max_attempts;
    options.jsonl = jsonl.get();
    options.external_shutdown = &global_cancel_token();
    options.http_port = http_port;
    options.trace_ring_entries = static_cast<std::size_t>(trace_ring);

    MappingServer server(std::move(options));
    server.start();
    std::cout << "tsd: serving";
    if (!socket_path.empty()) std::cout << " unix:" << socket_path;
    if (server.port() >= 0) std::cout << " tcp:127.0.0.1:" << server.port();
    if (server.http_port() >= 0) std::cout << " http:127.0.0.1:" << server.http_port();
    std::cout << " (workers=" << workers << ")" << std::endl;

    server.wait();
    std::cout << "tsd: drained — admitted=" << server.admitted()
              << " completed=" << server.completed() << " failed=" << server.failed()
              << " cancelled=" << server.cancelled()
              << " poison_blocked=" << server.poison_blocked()
              << " jsonl_faults=" << server.jsonl_faults() << std::endl;
    if (trace != nullptr && !trace->write_json_file(trace_path)) {
      std::cerr << "tsd: cannot write trace to " << trace_path << '\n';
    }
  } catch (const std::exception& e) {
    std::cerr << "tsd: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
