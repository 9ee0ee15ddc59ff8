#include "common.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/factory.hpp"
#include "core/snapshot.hpp"
#include "exp/checkpoint.hpp"
#include "exp/runner.hpp"
#include "exp/spec_io.hpp"
#include "netsim/delay_model.hpp"
#include "stats/rng.hpp"
#include "host_probe.hpp"

namespace perfbench {

namespace ex = smartexp3::exp;
namespace ns = smartexp3::netsim;
namespace core = smartexp3::core;
using smartexp3::Slot;

// ---- Result -----------------------------------------------------------------

void Result::put(const std::string& name, double value, const std::string& unit,
                 double spread, long samples) {
  metrics[name] = Metric{value, unit, spread, samples};
}

void Result::put_median(const std::string& name, const std::vector<double>& samples,
                        const std::string& unit, double scale) {
  std::vector<double> scaled(samples);
  for (double& v : scaled) v *= scale;
  put(name, median(scaled), unit, iqr_share(scaled), static_cast<long>(scaled.size()));
}

bool Result::check(bool ok, const std::string& what) {
  ++checks;
  if (!ok) {
    ++checks_failed;
    std::cerr << "CHECK FAILED: " << what << '\n';
  }
  return ok;
}

// ---- order statistics -------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double iqr_share(const std::vector<double>& v) {
  const double m = median(v);
  if (m == 0.0) return 0.0;
  return (quantile(v, 0.75) - quantile(v, 0.25)) / m;
}

std::uint64_t Gen::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---- Tracer -----------------------------------------------------------------

void Tracer::begin(const char* name) {
  const auto now = Clock::now();
  stack_.push_back(Open{name, retain(name, now), now, 0.0});
}

double Tracer::end() {
  const auto stop = Clock::now();
  const Open o = stack_.back();
  stack_.pop_back();
  const double dur = seconds_between(o.start, stop);
  last_self_s_ = dur - o.child_s;
  account(o.name, dur, last_self_s_);
  if (!stack_.empty()) stack_.back().child_s += dur;
  if (o.id >= 0) spans_[static_cast<std::size_t>(o.id)].end_s = seconds_between(origin_, stop);
  return dur;
}

void Tracer::add(const char* name, Clock::time_point start, Clock::time_point end) {
  if (!on_) return;
  const double dur = seconds_between(start, end);
  account(name, dur, dur);
  const int id = retain(name, start);
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end_s = seconds_between(origin_, end);
}

int Tracer::retain(const char* name, Clock::time_point start) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  const int parent = stack_.empty() ? -1 : stack_.back().id;
  spans_.push_back(Record{name, parent, seconds_between(origin_, start), 0.0});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::account(const char* name, double dur, double self) {
  Total* t = nullptr;
  for (auto& [n, p] : cache_) {
    if (n == name) {
      t = p;
      break;
    }
  }
  if (t == nullptr) {
    t = &totals_[name];
    cache_.emplace_back(name, t);
  }
  ++t->count;
  t->total_s += dur;
  t->self_s += self;
}

double Tracer::total_s(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second.total_s;
}

double Tracer::self_s(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second.self_s;
}

long Tracer::count(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0 : it->second.count;
}

void Tracer::write(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& s = spans_[i];
    f << "{\"id\": " << i << ", \"name\": \"" << s.name << "\", \"parent\": " << s.parent
      << ", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s << "}\n";
  }
}

// ---- shared workload pieces -------------------------------------------------

namespace {

std::uint64_t fnv_mix(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

void SlotObserver::on_slot_end(Slot t, const ns::World& world) {
  {
    Span s(tracer_, "metrics.on_slot_end");
    rec_.on_slot_end(t, world);
  }
  long sum = 0;
  for (const int c : world.counts()) sum += c;
  if (sum != world.active_device_count()) ++bad_slots_;
  device_slots_ += world.active_device_count();
}

void SlotObserver::on_run_end(const ns::World& world) {
  Span s(tracer_, "metrics.on_run_end");
  rec_.on_run_end(world);
}

std::vector<std::uint64_t> snapshot_words(const ns::World& world) {
  std::vector<std::uint64_t> words;
  core::StateWriter w(words);
  world.snapshot_into(w);
  return words;
}

void write_checkpoint(const ns::World& world, const smartexp3::metrics::RunRecorder& rec,
                      std::uint64_t seed, std::uint64_t fingerprint, const std::string& path) {
  ex::Checkpoint c;
  c.seed = seed;
  c.slot = world.now();
  c.spec_fingerprint = fingerprint;
  core::StateWriter w(c.world_words);
  world.snapshot_into(w);
  c.has_recorder = true;
  core::StateWriter rw(c.recorder_words);
  rec.snapshot_into(rw);
  ex::save_checkpoint_file(c, path);
}

void load_checkpoint(const std::string& path, ns::World& world,
                     smartexp3::metrics::RunRecorder& rec) {
  const ex::Checkpoint c = ex::load_checkpoint_file(path);
  core::StateReader w(c.world_words);
  world.restore_from(w);
  core::StateReader r(c.recorder_words);
  rec.restore_from(r, world);
}

std::uint64_t result_digest(const smartexp3::metrics::RunResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv_mix(h, &r.total_download_mb, sizeof(double));
  h = fnv_mix(h, &r.unused_mb, sizeof(double));
  h = fnv_mix(h, &r.at_nash_fraction, sizeof(double));
  h = fnv_mix(h, &r.eps_fraction, sizeof(double));
  h = fnv_mix(h, &r.stability.stable_slot, sizeof(int));
  h = fnv_mix(h, r.downloads_mb.data(), r.downloads_mb.size() * sizeof(double));
  h = fnv_mix(h, r.switches.data(), r.switches.size() * sizeof(int));
  h = fnv_mix(h, r.resets.data(), r.resets.size() * sizeof(int));
  for (const auto& series : r.group_distance) {
    h = fnv_mix(h, series.data(), series.size() * sizeof(double));
  }
  return h;
}

DirectRun run_direct(const ex::ExperimentConfig& cfg, std::uint64_t seed, Tracer& tracer,
                     Result& out, std::vector<double>* step_self_s) {
  DirectRun run;
  long bad_slots = 0;
  {
    Span whole(tracer, "exp.run");
    std::unique_ptr<ns::World> world;
    {
      Span b(tracer, "exp.build_world");
      world = ex::build_world(cfg, seed);
    }
    smartexp3::metrics::RunRecorder rec(cfg.recorder);
    SlotObserver obs(rec, tracer);
    world->set_observer(&obs);
    if (!tracer.on()) {
      world->run();  // notifies on_run_end itself
    } else {
      while (!world->done()) {
        tracer.begin("netsim.step");
        world->step();
        tracer.end();
        if (step_self_s != nullptr) step_self_s->push_back(tracer.last_self_s());
      }
      obs.on_run_end(*world);
    }
    run.result = rec.take_result();
    run.device_slots = obs.device_slots();
    bad_slots = obs.bad_slots();
  }
  out.check(bad_slots == 0, cfg.name + ": per-network counts sum to the active device "
                                       "count on every slot");
  return run;
}

void measure_lanes(ex::ExperimentConfig cfg, std::uint64_t seed, int lanes, int slots,
                   Result& out) {
  cfg.world.horizon = std::max<Slot>(cfg.world.horizon, slots + 1);
  std::vector<double> ms[2];
  std::vector<std::uint64_t> words[2];
  for (int k = 0; k < 2; ++k) {
    cfg.world.threads = k == 0 ? 1 : lanes;
    auto world = ex::build_world(cfg, seed);
    world->step();  // warm-up: first touch of every device's state
    for (int s = 0; s < slots; ++s) {
      const auto t0 = Clock::now();
      world->step();
      ms[k].push_back(1e3 * seconds_between(t0, Clock::now()));
    }
    words[k] = snapshot_words(*world);
  }
  out.check(words[0] == words[1], cfg.name + ": " + std::to_string(slots + 1) +
                                      " slots at 1 lane match " + std::to_string(lanes) +
                                      " lanes bit for bit");
  const double serial = median(ms[0]);
  const double parallel = median(ms[1]);
  out.put("netsim.step_serial_ms", serial, "ms", iqr_share(ms[0]), slots);
  out.put("netsim.parallel_efficiency", serial / (lanes * parallel), "ratio", 0.0, slots);
}

void probe_checkpoint(const ex::ExperimentConfig& cfg, std::uint64_t seed, Slot at,
                      const std::string& dir, Result& out) {
  std::vector<double> write_ms, load_ms, bytes;
  const std::uint64_t fingerprint = ex::fnv1a64(ex::to_spec_text(cfg));
  for (int rep = 0; rep < 3; ++rep) {
    auto world = ex::build_world(cfg, seed + rep);
    smartexp3::metrics::RunRecorder rec(cfg.recorder);
    world->set_observer(&rec);
    while (world->now() < at && !world->done()) world->step();

    const std::string path = ex::checkpoint_path(dir, rep, world->now());
    auto t0 = Clock::now();
    write_checkpoint(*world, rec, seed + rep, fingerprint, path);
    write_ms.push_back(1e3 * seconds_between(t0, Clock::now()));
    bytes.push_back(static_cast<double>(std::filesystem::file_size(path)));

    auto fresh = ex::build_world(cfg, seed + rep);
    smartexp3::metrics::RunRecorder fresh_rec(cfg.recorder);
    t0 = Clock::now();
    load_checkpoint(path, *fresh, fresh_rec);
    load_ms.push_back(1e3 * seconds_between(t0, Clock::now()));
    out.check(snapshot_words(*fresh) == snapshot_words(*world),
              cfg.name + ": checkpoint round trip restores the world bit for bit");
    std::filesystem::remove(path);
  }
  out.put_median("exp.checkpoint_write_ms", write_ms, "ms");
  out.put_median("exp.checkpoint_bytes", bytes, "bytes");
  out.put_median("exp.checkpoint_load_ms", load_ms, "ms");
}

namespace {

/// ns per choose+observe pair for a population of `name` policies on three
/// equal 11 Mbps networks, with equal-share feedback computed from the
/// population's own picks (the fig06 shape without the world around it).
double choose_observe_ns(const std::string& name, std::uint64_t seed, double seconds) {
  constexpr int kDevices = 100;
  constexpr int kSlotsPerRound = 200;
  constexpr double kCapacity = 11.0;
  const std::vector<smartexp3::NetworkId> nets{0, 1, 2};
  Gen gen(seed);
  std::vector<std::unique_ptr<core::Policy>> pop;
  for (int i = 0; i < kDevices; ++i) {
    pop.push_back(core::make_policy(name, gen.next()));
    pop.back()->set_networks(nets);
  }
  std::vector<int> pick(kDevices, 0), prev(kDevices, -1);
  int counts[3];
  core::SlotFeedback fb;
  std::vector<double> per_round;
  Slot t = 0;
  const auto start = Clock::now();
  while (seconds_between(start, Clock::now()) < seconds || per_round.size() < 5) {
    const auto t0 = Clock::now();
    for (int s = 0; s < kSlotsPerRound; ++s, ++t) {
      counts[0] = counts[1] = counts[2] = 0;
      for (int i = 0; i < kDevices; ++i) {
        pick[i] = pop[i]->choose(t);
        ++counts[pick[i]];
      }
      for (int i = 0; i < kDevices; ++i) {
        const double rate = kCapacity / counts[pick[i]];
        fb.bit_rate_mbps = rate;
        fb.gain = rate / kCapacity;
        fb.switched = pick[i] != prev[i];
        fb.delay_s = fb.switched ? 2.0 : 0.0;
        fb.goodput_mb = rate * (smartexp3::kDefaultSlotSeconds - fb.delay_s) / 8.0;
        pop[i]->observe(t, fb);
        prev[i] = pick[i];
      }
    }
    per_round.push_back(1e9 * seconds_between(t0, Clock::now()) /
                        (kSlotsPerRound * kDevices));
  }
  return median(per_round);
}

}  // namespace

void measure_kernels(std::uint64_t seed, double seconds, Result& out) {
  for (const char* policy : {"smart_exp3", "exp3"}) {
    out.put(std::string("core.choose_observe_ns.") + policy,
            choose_observe_ns(policy, seed, seconds / 3), "ns");
  }
  const ns::DistributionDelayModel model;
  const ns::Network wifi = ns::make_wifi(0, 11.0);
  const ns::Network cell = ns::make_cellular(1, 11.0);
  smartexp3::stats::Rng rng(seed);
  constexpr int kPerRound = 20000;
  std::vector<double> per_round;
  double sink = 0.0;
  const auto start = Clock::now();
  while (seconds_between(start, Clock::now()) < seconds / 3 || per_round.size() < 5) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kPerRound; ++i) sink += model.sample(i & 1 ? cell : wifi, rng);
    per_round.push_back(1e9 * seconds_between(t0, Clock::now()) / kPerRound);
  }
  out.check(sink > 0.0, "delay samples are positive");
  out.put_median("stats.delay_sample_ns", per_round, "ns");
}

void put_traced_layers(const Tracer& tracer, double wall_s, long runs, long device_slots,
                       const std::vector<double>& step_self_s, Result& out) {
  const double slots = static_cast<double>(std::max(device_slots, 1L));
  out.put("exp.build_world_s",
          tracer.total_s("exp.build_world") / std::max(tracer.count("exp.build_world"), 1L),
          "s", 0.0, tracer.count("exp.build_world"));
  const double layers = tracer.total_s("exp.build_world") + tracer.total_s("netsim.step") +
                        tracer.total_s("metrics.on_run_end") +
                        tracer.total_s("exp.checkpoint_write") +
                        tracer.total_s("exp.checkpoint_load");
  const double runs_wall = tracer.total_s("exp.run") + tracer.self_s("exp.batch") +
                           tracer.total_s("exp.aggregate");
  out.put("exp.harness_other_s", (runs_wall - layers) / std::max(runs, 1L), "s", 0.0, runs);
  out.put("netsim.step_ns_per_device_slot", 1e9 * tracer.self_s("netsim.step") / slots, "ns");
  out.put("netsim.step_p99_us", 1e6 * quantile(step_self_s, 0.99), "us", 0.0,
          static_cast<long>(step_self_s.size()));
  out.put("netsim.device_slots", slots, "count");
  out.put("metrics.recorder_ns_per_device_slot",
          1e9 * tracer.total_s("metrics.on_slot_end") / slots, "ns");
  out.put("metrics.run_end_ms",
          1e3 * tracer.total_s("metrics.on_run_end") /
              std::max(tracer.count("metrics.on_run_end"), 1L),
          "ms", 0.0, tracer.count("metrics.on_run_end"));
  out.put("trace.unattributed_share",
          (wall_s - layers - tracer.total_s("exp.aggregate")) / wall_s, "ratio");
}

void finish_trace(const Tracer& tracer, const Options& opt, Result& out) {
  tracer.write(opt.workdir + "/spans-" + opt.workload + ".jsonl");
  out.notes["trace.spans_dropped"] = static_cast<double>(tracer.dropped());
  for (const auto& [name, t] : tracer.totals()) out.notes["self_s." + name] = t.self_s;
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss keeps the peak of the image this
  // process replaced at exec (the forked caller), VmHWM only this image's.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0 - host_probe_resident_mb();
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

}  // namespace perfbench
