// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// perfbench: runs one workload of the repository benchmark and prints its
// result as one JSON line (the last line of stdout). Normally started by
// run.py, which builds this binary first:
//
//   perfbench --workload crawl_full --seed 1 --seconds 10 --trace 0
//             --work-dir DIR --serve-binary PATH [--pinned-digest HEX]
//   perfbench --list-metrics
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (see README.md).

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::cerr << "usage: perfbench --workload crawl_full|template_skew|"
               "serve_ingest --seed N --seconds S --trace 0|1 --work-dir DIR "
               "--serve-binary PATH [--pinned-digest HEX]\n"
               "       perfbench --list-metrics\n";
  return 2;
}

bool ParseUnsigned(const std::string& text, uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos ||
      text.size() > 19) {
    return false;
  }
  *out = std::stoull(text);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using perfbench::RunConfig;
  RunConfig config;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      for (const auto& metric : perfbench::EndToEndMetrics()) {
        std::cout << "end_to_end " << metric.name << " " << metric.unit << " "
                  << metric.better << "\n";
      }
      for (const auto& metric : perfbench::PerLayerMetrics()) {
        std::cout << "per_layer " << metric.name << " " << metric.unit << " "
                  << metric.better << "\n";
      }
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    uint64_t number = 0;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed" && ParseUnsigned(value, &number)) {
      config.seed = number;
    } else if (arg == "--seconds" && ParseUnsigned(value, &number) &&
               number >= 1 && number <= 600) {
      config.seconds = static_cast<double>(number);
    } else if (arg == "--trace" && (value == "0" || value == "1")) {
      config.trace = value == "1";
      have_trace = true;
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else if (arg == "--serve-binary") {
      config.serve_binary = value;
    } else if (arg == "--pinned-digest") {
      config.pinned_digest = value;
    } else {
      return Usage();
    }
  }
  if (!have_trace || config.work_dir.empty() || config.serve_binary.empty()) {
    return Usage();
  }
  std::error_code error;
  std::filesystem::create_directories(config.work_dir, error);
  if (error) {
    std::cerr << "perfbench: cannot create " << config.work_dir << "\n";
    return 1;
  }

  perfbench::RunResult result;
  if (config.workload == "crawl_full") {
    result = perfbench::RunCrawlFull(config);
  } else if (config.workload == "template_skew") {
    result = perfbench::RunTemplateSkew(config);
  } else if (config.workload == "serve_ingest") {
    result = perfbench::RunServeIngest(config);
  } else {
    return Usage();
  }
  if (result.attempted == 0) result.Fail("nothing was attempted");

  std::vector<perfbench::Metric> metrics;
  for (const auto& spec : config.trace ? perfbench::PerLayerMetrics()
                                       : perfbench::EndToEndMetrics()) {
    auto it = result.values.find(spec.name);
    metrics.push_back(perfbench::Metric{
        spec.name, it == result.values.end() ? 0.0 : it->second, spec.unit});
  }
  std::cout << perfbench::RenderResultJson(result.correct,
                                           std::max<uint64_t>(result.attempted, 1),
                                           result.failed, metrics)
            << std::endl;
  return 0;
}
