// repo_bench: the repository benchmark program. One process runs one
// workload for a fixed time and prints two JSON lines: a report (every
// metric with its unit, spread and sample count, plus provenance, checks
// and per-layer self times) and, last, the result line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). See METHOD.md for what each workload and metric is for.
//
//   repo_bench --workload fig06_serial --seed 7 --seconds 10 --trace 0
//              --workdir DIR [--git-sha SHA] [--tiny]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"
#include "exp/jsonish.hpp"

namespace {

using namespace perfbench;

void usage() {
  std::cerr << "usage: repo_bench --workload fig06_serial|xl_lanes|serve_churn --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--git-sha SHA] [--tiny]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() == "1";
    } else if (a == "--workdir") {
      o.workdir = value();
    } else if (a == "--git-sha") {
      o.git_sha = value();
    } else if (a == "--tiny") {
      o.tiny = true;
    } else {
      usage();
    }
  }
  if (o.workload.empty() || o.workdir.empty() || !(o.seconds > 0.0)) usage();
  return o;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string q(const std::string& s) { return smartexp3::exp::json_quote(s); }

/// Layers a workload's own flow does not reach still get a number in its
/// traced run: the standalone kernels everywhere, and the service layer —
/// a small serve_churn — on the static workloads.
void traced_probes(const Options& opt, Result& out) {
  measure_kernels(opt.seed, opt.tiny ? 0.03 : 1.5, out);
  if (opt.workload == "serve_churn") return;
  Options probe = opt;
  probe.workload = "serve_churn";
  probe.tiny = true;
  probe.workdir = opt.workdir + "/serve-probe";
  Result serve;
  serve_churn(probe, serve);
  for (const auto& [name, m] : serve.metrics) {
    if (name.rfind("serve.", 0) == 0) out.metrics[name] = m;
  }
  out.checks += serve.checks;
  out.checks_failed += serve.checks_failed;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Result out;
  try {
    std::filesystem::create_directories(opt.workdir);
    if (opt.workload == "fig06_serial") {
      fig06_serial(opt, out);
    } else if (opt.workload == "xl_lanes") {
      xl_lanes(opt, out);
    } else if (opt.workload == "serve_churn") {
      serve_churn(opt, out);
    } else {
      std::cerr << "unknown workload '" << opt.workload << "'\n";
      return 2;
    }
    if (opt.trace) traced_probes(opt, out);
  } catch (const std::exception& e) {
    std::cerr << "repo_bench: " << opt.workload << " failed: " << e.what() << '\n';
    return 1;
  }

  const long failed = out.failed + out.checks_failed;
  const long attempted = std::max(out.attempted, 1L);
  const double error_rate = static_cast<double>(failed) / static_cast<double>(attempted);
  if (opt.trace) {
    out.put("error_rate", error_rate, "ratio");
  } else {
    out.put("peak_rss_mb", peak_rss_mb(), "MB");
  }

  std::string metrics, report;
  for (const auto& [name, m] : out.metrics) {
    metrics += (metrics.empty() ? "" : ", ") + q(name) + ": {\"value\": " + num(m.value) +
               ", \"unit\": " + q(m.unit) + "}";
    report += (report.empty() ? "" : ", ") + q(name) + ": {\"value\": " + num(m.value) +
              ", \"unit\": " + q(m.unit) + ", \"spread\": " + num(m.spread) +
              ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  std::string notes;
  for (const auto& [name, v] : out.notes) {
    notes += (notes.empty() ? "" : ", ") + q(name) + ": " + num(v);
  }
  std::string digests;
  for (const auto& d : out.digests) digests += (digests.empty() ? "" : ", ") + q(d);

  std::cout << "{\"report\": {\"workload\": " << q(opt.workload)
            << ", \"seed\": " << opt.seed << ", \"trace\": " << (opt.trace ? 1 : 0)
            << ", \"tiny\": " << (opt.tiny ? "true" : "false")
            << ", \"seconds\": " << num(opt.seconds) << ", \"git_sha\": " << q(opt.git_sha)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"checks\": " << out.checks << ", \"checks_failed\": " << out.checks_failed
            << ", \"error_rate\": " << num(error_rate) << ", \"metrics\": {" << report
            << "}, \"notes\": {" << notes << "}, \"digests\": [" << digests << "]}}\n";
  std::cout << "{\"correct\": " << (out.checks_failed == 0 && out.checks > 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << metrics << "}}" << std::endl;
  return 0;
}
