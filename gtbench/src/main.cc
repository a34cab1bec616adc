// gt_perfbench: the repository benchmark program. Runs one workload against
// an in-process GraphTrek cluster through its public APIs, checks every
// answer, and prints a human-readable report followed by one JSON line:
//
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones (and a Chrome trace is written under --out-dir).
//
//   gt_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                [--out-dir DIR] [--commit SHA] [--smoke] [--corrupt-oracle]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "gt_perfbench: %s\nusage: gt_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--commit SHA] [--smoke] "
               "[--corrupt-oracle]\nworkloads:",
               why);
  for (const char* w : gtb::kWorkloads) std::fprintf(stderr, " %s", w);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

void PrintMetrics(const char* title, const std::vector<gtb::Metric>& metrics) {
  std::printf("# %s\n", title);
  for (const gtb::Metric& m : metrics) {
    std::printf("#   %-34s %14.4f %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  gtb::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      opt.trace = value() != "0";
    } else if (arg == "--out-dir") {
      opt.out_dir = value();
    } else if (arg == "--commit") {
      opt.commit = value();
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--corrupt-oracle") {
      opt.corrupt_oracle = true;
    } else {
      Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (opt.seconds <= 0) Usage("--seconds must be positive");

  gtb::Tracer tracer(false);
  gtb::Report report;
  if (!gtb::RunWorkload(opt, &report, &tracer)) Usage("unknown workload");

  std::printf("# workload %s seed %llu: %llu operations attempted, %llu failed, %s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.correct ? "all answers correct" : "CORRECTNESS GATE FAILED");
  std::string env = "{";
  for (const auto& [k, v] : report.env) {
    env += (env.size() > 1 ? ", \"" : "\"") + k + "\": " + v;
  }
  env += "}";
  std::printf("# env %s\n", env.c_str());
  PrintMetrics("end-to-end", report.end_to_end);
  if (opt.trace) PrintMetrics("per-layer (traced half)", report.per_layer);

  const auto& metrics = opt.trace ? report.per_layer : report.end_to_end;
  std::string json = "{\"correct\": " + std::string(report.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            gtb::Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
