// perfbench — the pcnna repo benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// Untraced (--trace 0): runs the workload's timed loop and prints every
// end-to-end metric. Traced (--trace 1): runs the loop with span recording,
// then the per-layer profile, writes the spans as a Chrome trace into
// --out-dir, and prints every per-layer metric. Either way the last stdout
// line is one JSON object {correct, attempted, failed, metrics}; the exit
// code is 1 when any call threw or any correctness check failed, 2 on bad
// arguments. README.md describes the workloads and metrics.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_core.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Self-tests of the benchmark's own estimators and failure accounting,
/// run at the start of every run and counted like any other check.
void self_tests(Checks& checks) {
  // The paired-ratio estimator must recover an injected 15 % overhead (and
  // report none when none is injected) from pairs of varying size and
  // independent per-call jitter.
  Rng rng(12345);
  std::vector<std::pair<double, double>> slow, same;
  for (int i = 0; i < 41; ++i) {
    const double base = 0.05 * (1.0 + rng.uniform());
    const auto jitter = [&] { return 1.0 + 0.04 * (rng.uniform() - 0.5); };
    slow.emplace_back(1.15 * base * jitter(), base * jitter());
    same.emplace_back(base * jitter(), base * jitter());
  }
  const double slow_ratio = median_paired_ratio(slow);
  const double same_ratio = median_paired_ratio(same);
  checks.expect(std::abs(slow_ratio - 1.15) < 0.02,
                "self-test: overhead estimator missed an injected 15 %");
  checks.expect(std::abs(same_ratio - 1.0) < 0.02,
                "self-test: overhead estimator reports overhead from none");

  // A corrupted output and a non-conserving report must each count as one
  // failure; an intact output and report must not.
  Checks probe(/*verbose=*/false);
  nn::Tensor good(nn::Shape4{1, 2, 2, 2});
  for (std::size_t i = 0; i < good.size(); ++i) good[i] = 0.25 * i;
  nn::Tensor corrupt = good;
  corrupt[3] = std::nextafter(corrupt[3], 1e9);
  check_same_output(probe, good, good, "intact output");
  check_same_output(probe, good, corrupt, "corrupted output (expected)");
  runtime::OpenLoopReport report;
  report.requests = 10;
  report.served_requests = 8;
  report.shed_requests = 1;
  report.failed_requests = 1;
  check_conservation(probe, report, 10, "conserving report");
  report.served_requests = 7;
  check_conservation(probe, report, 10, "non-conserving report (expected)");
  checks.expect(probe.attempted() == 4 && probe.failed() == 2,
                "self-test: failure accounting missed a corrupted output or "
                "a non-conserving report");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

void print_table(const char* title, const MetricTable& table) {
  std::cout << "== " << title << "\n";
  for (const Metric& m : table.all()) {
    std::printf("%-52s %.17g %s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

void print_result(const Checks& checks, const MetricTable& table) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              checks.failed() == 0 ? "true" : "false", checks.attempted(),
              checks.failed());
  bool first = true;
  for (const Metric& m : table.all()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

bool parse_args(int argc, char** argv, RunOptions& options) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return false;
    }
  }
  if (argc % 2 == 0 || !have_workload) return false;
  for (const std::string& name : workload_names()) {
    if (name == options.workload) return options.seconds > 0.0;
  }
  return false;
}

int run(const RunOptions& options) {
  Checks checks;
  MetricTable e2e, layer;
  Tracer tracer;
  Tracer* const spans = options.trace ? &tracer : nullptr;

  self_tests(checks);
  try {
    run_workload(options, checks, e2e, spans, layer);
    e2e.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
    if (spans) run_layer_profile(options, checks, tracer, layer);
  } catch (const std::exception& e) {
    checks.fail_call(options.workload, e.what());
  }

  if (spans) {
    const std::string path = options.out_dir + "/spans-" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".json";
    std::ofstream out(path);
    tracer.write_chrome_trace(out);
    checks.expect(static_cast<bool>(out), "writing span file " + path);
    std::cout << "spans: " << tracer.spans().size() << " written to " << path
              << "\n";
  }
  print_table("end-to-end", e2e);
  if (spans) print_table("per-layer", layer);
  std::printf("%-52s %.9g fraction (n=%zu)\n", "error_rate",
              static_cast<double>(checks.failed()) /
                  static_cast<double>(checks.attempted()),
              checks.attempted());
  print_result(checks, spans ? layer : e2e);
  return checks.failed() == 0 ? 0 : 1;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool ok = false;
  try {
    ok = perfbench::parse_args(argc, argv, options);
  } catch (const std::exception&) {
    ok = false;
  }
  if (!ok) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\nworkloads:";
    for (const std::string& name : perfbench::workload_names()) {
      std::cerr << " " << name;
    }
    std::cerr << "\n";
    return 2;
  }
  return perfbench::run(options);
}
