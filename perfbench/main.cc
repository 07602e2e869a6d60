// Repository benchmark: runs one named workload against the TYCOS library
// and prints, as its last stdout line, one JSON object
//
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {name: value}}
//
// with the end-to-end metrics (--trace 0) or the per-layer metrics the
// workload reaches (--trace 1). Names and units are BENCHMARK.json's;
// run.py attaches the units and checks the names. A provenance line
// precedes the result. The correctness gate exits 1 after printing a
// result with "correct": false.
//
// Usage: perfbench --workload discover|wide|serve --seed N --seconds S
//                  --trace 0|1 [--scratch DIR] [--commit ID] [--corrupt]
//                  [--rate R]
// Normally driven by run.py, which builds this binary first.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "audit/audit.h"
#include "common/simd.h"
#include "harness.h"
#include "obs/trace.h"

namespace {

using perfbench::Options;
using perfbench::Report;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "discover|wide|serve --seed N --seconds S --trace 0|1 "
               "[--scratch DIR] [--commit ID] [--corrupt] [--rate R]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options opts;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      opts.workload = value();
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opts.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      opts.trace = v == "1";
    } else if (arg == "--scratch") {
      opts.scratch = value();
    } else if (arg == "--commit") {
      opts.commit = value();
    } else if (arg == "--rate") {
      opts.rate = std::atof(value().c_str());
    } else if (arg == "--corrupt") {
      opts.corrupt = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (opts.workload != "discover" && opts.workload != "wide" &&
      opts.workload != "serve") {
    Usage("--workload must be discover, wide or serve");
  }
  if (!have_seed) Usage("--seed is required");
  if (!(opts.seconds > 0.0)) Usage("--seconds must be positive");
  opts.nproc = static_cast<int>(std::thread::hardware_concurrency());
  if (opts.nproc < 1) opts.nproc = 1;
  return opts;
}

// Timings from a debug, sanitizer or auditing build say nothing about the
// library users run, so the harness refuses to report them.
void CheckBuild() {
  const bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
  if (!release || PERFBENCH_SANITIZED || TYCOS_AUDIT_ENABLED ||
      TYCOS_OBS_ENABLED) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a %s build "
                 "(sanitized=%d audit=%d trace-spans=%d); build Release "
                 "with the default options\n",
                 PERFBENCH_BUILD_TYPE, PERFBENCH_SANITIZED,
                 TYCOS_AUDIT_ENABLED, TYCOS_OBS_ENABLED);
    std::exit(3);
  }
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    if (static_cast<unsigned char>(c) >= 0x20) std::putchar(c);
  }
  std::putchar('"');
}

void PrintProvenance(const Options& opts, const Report& report) {
  std::printf("{\"provenance\": {\"workload\": ");
  PrintJsonString(opts.workload);
  std::printf(", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
              "\"nproc\": %d, \"engine_threads\": %d, "
              "\"loadgen_threads\": %d, \"simd\": ",
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0, opts.nproc, report.engine_threads,
              report.loadgen_threads);
  PrintJsonString(tycos::simd::InstructionSet());
  std::printf(", \"build_type\": ");
  PrintJsonString(PERFBENCH_BUILD_TYPE);
  std::printf(", \"compiler\": ");
  PrintJsonString(PERFBENCH_COMPILER);
  std::printf(", \"commit\": ");
  PrintJsonString(opts.commit);
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = ParseArgs(argc, argv);
  CheckBuild();

  Report report;
  if (opts.workload == "discover") {
    report = perfbench::RunDiscover(opts);
  } else if (opts.workload == "wide") {
    report = perfbench::RunWide(opts);
  } else {
    report = perfbench::RunServe(opts);
  }

  perfbench::Gate& gate = perfbench::TheGate();
  if (!opts.trace) {
    report.metrics["peak_rss_mb"] = perfbench::PeakRssMb();
    report.metrics["ok_share"] =
        1.0 - perfbench::Ratio(static_cast<double>(report.failed),
                               static_cast<double>(report.attempted));
  }
  for (const auto& [name, value] : report.metrics) {
    gate.Check(std::isfinite(value), "metric is not finite: " + name);
  }
  gate.Check(report.attempted >= 1, "no operation attempted");

  PrintProvenance(opts, report);
  for (const std::string& f : gate.failures()) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              gate.ok() ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  bool first = true;
  for (const auto& [name, value] : report.metrics) {
    std::printf("%s", first ? "" : ", ");
    PrintJsonString(name);
    std::printf(": %.12g", std::isfinite(value) ? value : 0.0);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return gate.ok() ? 0 : 1;
}
