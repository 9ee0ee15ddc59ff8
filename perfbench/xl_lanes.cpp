// xl_lanes: scalability_xl at 2x10^5 devices, 5 networks,
// smart_exp3_noreset, 4 in-world lanes and the default (auto) shard count.
// Each run is a short horizon with one mid-run checkpoint write, then a
// restore into a freshly built world, then the rest of the horizon — the
// crash-resume shape. build_world, the sharded multi-lane step, its
// barriers, memory and one huge checkpoint dominate; it is the only
// workload where the unattributed harness cost and the shards-vs-lanes
// question can show, and it drives the checkpoint layer in the opposite
// shape to serve_churn (one huge write and one read, not many small ones).
#include <filesystem>

#include "common.hpp"
#include "exp/checkpoint.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "exp/spec_io.hpp"

namespace perfbench {

namespace ex = smartexp3::exp;
namespace ns = smartexp3::netsim;
using smartexp3::Slot;

namespace {

constexpr int kLanes = 4;

ex::ExperimentConfig xl_config(bool tiny) {
  ex::SettingParams params;
  params.policy = "smart_exp3_noreset";
  params.devices = tiny ? 2000 : 200000;
  params.horizon = tiny ? 8 : 16;
  params.networks = 5;
  auto cfg = ex::make_setting("scalability_xl", params);
  cfg.world.threads = kLanes;
  return cfg;
}

struct Phase {
  std::vector<double> setup_s;   // config resolve + build_world, both builds
  std::vector<double> run_s;     // wall of each run
  std::vector<double> dsps;      // device-slots / (run wall - first set-up)
  std::vector<double> step_self_s;
  std::vector<double> ckpt_bytes;
  long runs = 0;
  long device_slots = 0;
  double wall_s = 0.0;
  // The last run's outcome, for the uninterrupted-trajectory check.
  std::uint64_t last_seed = 0;
  std::vector<std::uint64_t> last_words;
  std::uint64_t last_digest = 0;
};

/// Steps `world` to `until` (traced: recording each step's self time).
void step_until(ns::World& world, Slot until, Tracer& tracer, Phase& ph) {
  while (world.now() < until) {
    if (tracer.on()) tracer.begin("netsim.step");
    world.step();
    if (tracer.on()) {
      tracer.end();
      ph.step_self_s.push_back(tracer.last_self_s());
    }
  }
}

void one_run(const Options& opt, std::uint64_t seed, Tracer& tracer, Phase& ph,
             Result& out) {
  const std::string path = ex::checkpoint_path(opt.workdir + "/ckpt-xl", 0, 0);
  const auto r0 = Clock::now();
  if (tracer.on()) tracer.begin("exp.run");
  long slots = 0, bad_slots = 0;
  ex::ExperimentConfig cfg = xl_config(opt.tiny);
  std::unique_ptr<ns::World> world;
  {
    Span b(tracer, "exp.build_world");
    world = ex::build_world(cfg, seed);
  }
  const double first_setup = seconds_between(r0, Clock::now());
  ph.setup_s.push_back(first_setup);
  {
    smartexp3::metrics::RunRecorder rec(cfg.recorder);
    SlotObserver obs(rec, tracer);
    world->set_observer(&obs);
    step_until(*world, cfg.world.horizon / 2, tracer, ph);
    {
      Span w(tracer, "exp.checkpoint_write");
      write_checkpoint(*world, rec, seed, ex::fnv1a64(ex::to_spec_text(cfg)), path);
    }
    slots += obs.device_slots();
    bad_slots += obs.bad_slots();
  }
  ph.ckpt_bytes.push_back(static_cast<double>(std::filesystem::file_size(path)));
  world.reset();  // the writer is gone: what follows is a fresh process's restore

  const auto b0 = Clock::now();
  cfg = xl_config(opt.tiny);
  {
    Span b(tracer, "exp.build_world");
    world = ex::build_world(cfg, seed);
  }
  ph.setup_s.push_back(seconds_between(b0, Clock::now()));
  smartexp3::metrics::RunRecorder rec(cfg.recorder);
  {
    Span l(tracer, "exp.checkpoint_load");
    load_checkpoint(path, *world, rec);
  }
  SlotObserver obs(rec, tracer);
  world->set_observer(&obs);
  step_until(*world, cfg.world.horizon, tracer, ph);
  obs.on_run_end(*world);
  slots += obs.device_slots();
  bad_slots += obs.bad_slots();
  ph.last_seed = seed;
  ph.last_words = snapshot_words(*world);
  ph.last_digest = result_digest(rec.result());
  world.reset();
  std::filesystem::remove(path);
  if (tracer.on()) tracer.end();
  const double wall = seconds_between(r0, Clock::now());
  out.check(bad_slots == 0, "xl: per-network counts sum to the active device count");
  ph.run_s.push_back(wall);
  ph.dsps.push_back(static_cast<double>(slots) / (wall - first_setup));
  ph.device_slots += slots;
  ++ph.runs;
  ++out.attempted;
}

void run_phase(const Options& opt, Gen& gen, Tracer& tracer, double seconds, Phase& ph,
               Result& out) {
  const auto start = Clock::now();
  // Stop before a run that would end past the time budget (at least one).
  while (ph.runs == 0 || seconds_between(start, Clock::now()) + ph.run_s.back() <= seconds) {
    one_run(opt, gen.next(), tracer, ph, out);
  }
  ph.wall_s = seconds_between(start, Clock::now());
}

/// The last run, once more without the checkpoint: its final world state
/// and recorded result must equal the restored run's bit for bit.
void check_uninterrupted(const Options& opt, const Phase& ph, Result& out) {
  const auto cfg = xl_config(opt.tiny);
  auto world = ex::build_world(cfg, ph.last_seed);
  smartexp3::metrics::RunRecorder rec(cfg.recorder);
  world->set_observer(&rec);
  world->run();
  out.check(snapshot_words(*world) == ph.last_words,
            "xl world after checkpoint -> restore matches the uninterrupted world");
  out.check(result_digest(rec.result()) == ph.last_digest,
            "xl recorder after checkpoint -> restore matches the uninterrupted run");
}

}  // namespace

void xl_lanes(const Options& opt, Result& out) {
  Gen gen(opt.seed);
  Tracer off(false);
  const double seconds = opt.tiny ? 0.0 : opt.seconds;
  Phase plain;
  run_phase(opt, gen, off, opt.trace ? seconds / 3 : seconds, plain, out);
  check_uninterrupted(opt, plain, out);

  if (!opt.trace) {
    // A few slots at 1 lane against 4 lanes (the timings are a traced-run
    // metric; here only the bit-identity check counts).
    Result lanes;
    measure_lanes(xl_config(opt.tiny), gen.next(), kLanes, 2, lanes);
    out.checks += lanes.checks;
    out.checks_failed += lanes.checks_failed;

    out.put_median("setup_s", plain.setup_s, "s");
    out.put_median("device_slots_per_sec", plain.dsps, "1/s");
    out.put_median("run_wall_s", plain.run_s, "s");
    // A job is one run here, as in fig06_serial; a run is long, so a
    // process sees one or two and both percentiles sit on them.
    out.put("job_latency_p50_s", quantile(plain.run_s, 0.5), "s", iqr_share(plain.run_s),
            plain.runs);
    out.put("job_latency_p90_s", quantile(plain.run_s, 0.9), "s", 0.0, plain.runs);
    out.put("jobs_per_sec", static_cast<double>(plain.runs) / plain.wall_s, "1/s");
    return;
  }

  Tracer tracer(true);
  Phase traced;
  tracer.begin("bench.phase");
  run_phase(opt, gen, tracer, 2 * seconds / 3, traced, out);
  tracer.end();
  put_traced_layers(tracer, traced.wall_s, traced.runs, traced.device_slots,
                    traced.step_self_s, out);
  out.put("exp.checkpoint_write_ms",
          1e3 * tracer.total_s("exp.checkpoint_write") / tracer.count("exp.checkpoint_write"),
          "ms", 0.0, tracer.count("exp.checkpoint_write"));
  out.put("exp.checkpoint_load_ms",
          1e3 * tracer.total_s("exp.checkpoint_load") / tracer.count("exp.checkpoint_load"),
          "ms", 0.0, tracer.count("exp.checkpoint_load"));
  out.put_median("exp.checkpoint_bytes", traced.ckpt_bytes, "bytes");
  out.put("trace.overhead_share", 1.0 - median(traced.dsps) / median(plain.dsps), "ratio");
  finish_trace(tracer, opt, out);
  measure_lanes(xl_config(opt.tiny), gen.next(), kLanes, opt.tiny ? 2 : 4, out);
}

}  // namespace perfbench
