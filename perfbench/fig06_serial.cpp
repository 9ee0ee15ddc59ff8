// fig06_serial: the paper's Fig 6 point (scalability setting, 3 networks,
// 100 devices, the 8640-slot paper horizon), run as figure batches of
// Smart EXP3 and EXP3 runs back to back on one lane with the recorder on —
// a closed loop, one batch after the other. The policy kernels,
// World::step and the recorder do nearly all the work; set-up, lanes and
// checkpoint I/O are close to nothing. A kernel or recorder change should
// move this workload; a lanes or shards change should not.
#include <cstdio>

#include "common.hpp"
#include "exp/aggregate.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "host_probe.hpp"

namespace perfbench {

namespace ex = smartexp3::exp;

namespace {

// One figure batch: three Smart EXP3 runs and two EXP3 runs. The uneven mix
// keeps the run-latency median inside the Smart EXP3 cluster and the p90
// inside the EXP3 cluster instead of on the boundary between them.
constexpr const char* kBatch[] = {"smart_exp3", "exp3", "smart_exp3", "exp3", "smart_exp3"};

// Every timing below is in reference-host seconds: its wall time scaled by
// kHostProbeReferenceS / (host probe), the probe taken just before the
// batch's set-up samples and just after its aggregates (see host_probe_s).
struct Phase {
  std::vector<double> batch_s;       // each batch
  std::vector<double> batch_dsps;    // device-slots/sec of each batch
  std::vector<double> run_s;         // each run (a job, closed loop)
  std::vector<double> step_self_s;   // traced: every step net of the recorder (wall)
  std::vector<double> setup_s;       // config resolve + build_world
  std::vector<double> probe_s;       // host probe around each batch (wall)
  std::vector<double> raw_dsps;      // device-slots/sec of each batch (wall)
  long runs = 0;
  long device_slots = 0;
  double wall_s = 0.0;               // sum of the batch cycles, probes left out
  double raw_wall_s = 0.0;           // the same in wall time
};

ex::ExperimentConfig fig06_config(const std::string& policy, bool tiny) {
  ex::SettingParams params;
  params.policy = policy;
  params.devices = tiny ? 20 : 100;
  params.horizon = tiny ? 300 : 8640;
  params.networks = 3;
  auto cfg = ex::make_setting("scalability", params);
  cfg.world.threads = 1;
  cfg.recorder.track_distance = false;  // as the Fig 6 bench records it
  cfg.recorder.track_stability = true;
  return cfg;
}

void run_batches(const Options& opt, Gen& gen, Tracer& tracer, double seconds, Phase& ph,
                 Result& out) {
  host_probe_s();  // allocates and touches the probe's buffers
  const auto start = Clock::now();
  // Stop before a batch that would end past the time budget (at least one).
  double last_cycle = 0.0;
  while (ph.batch_s.empty() || seconds_between(start, Clock::now()) + last_cycle <= seconds) {
    const double probe_before = host_probe_s();
    const auto c0 = Clock::now();
    // Set-up samples (config resolve + build_world, the world then dropped)
    // are spread over the run so that setup_s sees the same machine as the
    // batches do.
    std::vector<double> setup;
    for (int i = 0; i < 10; ++i) {
      const auto t0 = Clock::now();
      const auto cfg = fig06_config(kBatch[i % 2], opt.tiny);
      auto world = ex::build_world(cfg, gen.next());
      setup.push_back(seconds_between(t0, Clock::now()));
    }
    if (tracer.on()) tracer.begin("exp.batch");
    const auto b0 = Clock::now();
    long batch_slots = 0;
    std::vector<double> run_s;
    std::vector<smartexp3::metrics::RunResult> smart, exp3;
    for (const char* policy : kBatch) {
      const auto cfg = fig06_config(policy, opt.tiny);
      const std::uint64_t seed = gen.next();
      const auto r0 = Clock::now();
      DirectRun run = run_direct(cfg, seed, tracer, out, &ph.step_self_s);
      run_s.push_back(seconds_between(r0, Clock::now()));
      batch_slots += run.device_slots;
      ++out.attempted;
      char digest[64];
      std::snprintf(digest, sizeof digest, "%s:%llu:%016llx", policy,
                    static_cast<unsigned long long>(seed),
                    static_cast<unsigned long long>(result_digest(run.result)));
      out.digests.emplace_back(digest);
      (policy[0] == 's' ? smart : exp3).push_back(std::move(run.result));
    }
    {
      Span agg(tracer, "exp.aggregate");
      const auto s = ex::stability_summary(smart);
      const auto e = ex::stability_summary(exp3);
      const auto sw = ex::switch_summary(exp3);
      out.check(s.stable_fraction >= 0.0 && e.stable_fraction >= 0.0 && sw.mean > 0.0,
                "fig06 batch aggregates are well formed");
    }
    const double wall = seconds_between(b0, Clock::now());
    if (tracer.on()) tracer.end();
    const double cycle = seconds_between(c0, Clock::now());
    const double probe = 0.5 * (probe_before + host_probe_s());
    last_cycle = seconds_between(c0, Clock::now()) + probe_before;

    const double scale = kHostProbeReferenceS / probe;
    for (const double v : setup) ph.setup_s.push_back(v * scale);
    for (const double v : run_s) ph.run_s.push_back(v * scale);
    ph.batch_s.push_back(wall * scale);
    ph.batch_dsps.push_back(static_cast<double>(batch_slots) / (wall * scale));
    ph.raw_dsps.push_back(static_cast<double>(batch_slots) / wall);
    ph.probe_s.push_back(probe);
    ph.wall_s += cycle * scale;
    ph.raw_wall_s += cycle;
    ph.runs += static_cast<long>(std::size(kBatch));
    ph.device_slots += batch_slots;
  }
}

}  // namespace

void fig06_serial(const Options& opt, Result& out) {
  Gen gen(opt.seed);
  Tracer off(false);

  const double seconds = opt.tiny ? 0.0 : opt.seconds;
  Phase plain;
  run_batches(opt, gen, off, opt.trace ? seconds / 3 : seconds, plain, out);

  // The slot-by-slot loop must agree with the library's own run entry point.
  {
    const auto cfg = fig06_config("exp3", opt.tiny);
    const std::uint64_t seed = gen.next();
    const auto lib = ex::run_once(cfg, seed);
    const auto mine = run_direct(cfg, seed, off, out);
    out.check(result_digest(lib) == result_digest(mine.result),
              "fig06 slot-by-slot run matches exp::run_once");
  }

  if (!opt.trace) {
    out.put_median("setup_s", plain.setup_s, "s");
    out.put_median("device_slots_per_sec", plain.batch_dsps, "1/s");
    out.put_median("run_wall_s", plain.batch_s, "s");
    out.put("job_latency_p50_s", quantile(plain.run_s, 0.5), "s", iqr_share(plain.run_s),
            static_cast<long>(plain.run_s.size()));
    out.put("job_latency_p90_s", quantile(plain.run_s, 0.9), "s", 0.0,
            static_cast<long>(plain.run_s.size()));
    out.put("jobs_per_sec", static_cast<double>(plain.runs) / plain.wall_s, "1/s");
    out.notes["host.probe_ms"] = 1e3 * median(plain.probe_s);
    out.notes["wall.device_slots_per_sec"] = median(plain.raw_dsps);
    return;
  }

  Tracer tracer(true);
  Phase traced;
  tracer.begin("bench.phase");
  run_batches(opt, gen, tracer, 2 * seconds / 3, traced, out);
  tracer.end();
  put_traced_layers(tracer, traced.raw_wall_s, traced.runs, traced.device_slots,
                    traced.step_self_s, out);
  out.put("trace.overhead_share", 1.0 - median(traced.batch_dsps) / median(plain.batch_dsps),
          "ratio");
  finish_trace(tracer, opt, out);

  // Layers this workload does not lean on, measured on its own world shape.
  const auto cfg = fig06_config("smart_exp3", opt.tiny);
  measure_lanes(cfg, opt.seed, 4, opt.tiny ? 20 : 500, out);
  probe_checkpoint(cfg, opt.seed, cfg.world.horizon / 2, opt.workdir + "/ckpt-fig06", out);
}

}  // namespace perfbench
