// serve_churn: an in-process JobService (no state dir, 2 executors, 4 total
// lanes) fed by an open-loop generator: small dynamic jobs (a seeded mix of
// mobility / join / leave / controlled) from two tenants at a fixed rate, a
// seeded share of them at a higher priority so the preemption path runs,
// deadlines far beyond any run. Admission, queueing, dispatch and the
// scheduler dominate while the engine does little; scenario events, the noisy-share prepare_slot and
// policy-group rebuilds run here and in neither static workload. Each job is
// timed from when it was due, not from when it was sent, so a stall in the
// service shows in every later job.
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "exp/jsonish.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace ex = smartexp3::exp;
namespace sv = smartexp3::serve;
using smartexp3::Slot;

namespace {

struct JobSpec {
  std::string id;
  std::string setting;
  Slot horizon = 0;
  int runs = 1;
  std::uint64_t seed = 0;
  std::string tenant;
  int priority = 0;
  double due_s = 0.0;  // offset from the stream start

  std::string line() const {
    return "{\"type\": \"submit\", \"id\": \"" + id + "\", \"setting\": \"" + setting +
           "\", \"runs\": " + std::to_string(runs) +
           ", \"horizon\": " + std::to_string(horizon) + ", \"seed\": " + std::to_string(seed) +
           ", \"tenant\": \"" + tenant + "\", \"priority\": " + std::to_string(priority) +
           ", \"deadline_s\": 600}";
  }
  /// The config the service builds for this submission.
  ex::ExperimentConfig config() const {
    ex::SettingParams params;
    params.horizon = horizon;
    auto cfg = ex::make_setting(setting, params);
    cfg.base_seed = seed;
    cfg.world.shards = ex::world_shards(cfg.world.shards);
    return cfg;
  }
};

/// The seeded job stream. Every 48 jobs are every job shape once (4
/// settings x 1-4 runs x 3 horizons) in a seeded order, 10 of them at
/// priority 5; horizons run past each setting's scenario events (moves at
/// 400 and 800, joins at 400, leaves after 599 or 799). After every third
/// such block comes a burst that drives the preemption path: two 8-run
/// mobility jobs due together, which take both executors, and a priority-5
/// job due 5 ms later. Bursts are kept to ~2% of the jobs so that they do
/// not decide the p90. The seed changes order, run seeds and tenants but not
/// the mix, so the latency percentiles do not move with it.
std::vector<JobSpec> make_stream(std::uint64_t seed, int jobs, double rate) {
  struct Kind {
    const char* setting;
    Slot base;
  };
  constexpr Kind kKinds[] = {{"mobility", 840}, {"join", 840}, {"leave", 640}, {"controlled", 440}};
  constexpr int kShapes = 4 * 4 * 3;
  constexpr int kPeriod = 3 * kShapes + 3;  // three shuffled blocks, one burst
  constexpr int kHighPriority = 10;         // per block, ~20%
  Gen gen(seed);
  std::vector<int> block(kShapes), priority(kShapes);
  std::vector<JobSpec> out;
  for (int i = 0; i < jobs; ++i) {
    const int pos = i % kPeriod;
    if (pos < 3 * kShapes && pos % kShapes == 0) {
      for (int k = 0; k < kShapes; ++k) {
        block[k] = k;
        priority[k] = k < kHighPriority ? 5 : 0;
      }
      for (int k = kShapes - 1; k > 0; --k) {
        std::swap(block[k], block[gen.below(k + 1)]);
        std::swap(priority[k], priority[gen.below(k + 1)]);
      }
    }
    JobSpec j;
    char id[16];
    std::snprintf(id, sizeof id, "j%04d", i);
    j.id = id;
    j.due_s = i / rate;
    if (pos < 3 * kShapes) {
      const int shape = block[pos % kShapes];
      j.setting = kKinds[shape % 4].setting;
      j.runs = 1 + (shape / 4) % 4;
      j.horizon = kKinds[shape % 4].base + 40 * (shape / 16);
      j.priority = priority[pos % kShapes];
    } else if (pos < 3 * kShapes + 2) {
      j.setting = "mobility";
      j.runs = 8;
      j.horizon = 920;
      if (pos == 3 * kShapes + 1) j.due_s = out.back().due_s;
    } else {
      j.setting = "join";
      j.horizon = 840;
      j.priority = 5;
      j.due_s = out.back().due_s + 0.005;
    }
    j.seed = gen.next() % 1000000007ULL;
    j.tenant = gen.below(2) == 0 ? "alpha" : "beta";
    out.push_back(std::move(j));
  }
  return out;
}

struct Event {
  Clock::time_point at;
  std::string line;
};

/// Collects every event line with its arrival time. The service's threads
/// hold `this` through the sink, so the log is neither copied nor moved.
class EventLog {
 public:
  EventLog() = default;
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  sv::JobService::Sink sink() {
    return [this](const std::string& line) {
      const auto now = Clock::now();
      const std::lock_guard<std::mutex> lock(mutex_);
      events_.push_back(Event{now, line});
    };
  }
  std::vector<Event> take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::move(events_);
  }

 private:
  std::mutex mutex_;
  std::vector<Event> events_;
};

std::string field(const ex::JsonValue& doc, const std::string& key) {
  for (const auto& [k, v] : doc.object) {
    if (k == key) return v.type == ex::JsonValue::Type::kString ? v.str : std::string();
  }
  return {};
}

double number(const ex::JsonValue& doc, const std::string& key) {
  for (const auto& [k, v] : doc.object) {
    if (k == key && v.type == ex::JsonValue::Type::kNumber) return v.number;
  }
  return 0.0;
}

/// The raw text of the "summary" object inside a completed event, exactly
/// as the service wrote it (compared byte for byte).
std::string raw_summary(const std::string& line) {
  const std::string key = "\"summary\": ";
  const auto at = line.find(key);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + key.size();
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = begin; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}' && --depth == 0) {
      return line.substr(begin, i - begin + 1);
    }
  }
  return {};
}

struct JobOutcome {
  int terminals = 0;
  bool completed = false;
  bool rejected = false;
  bool shed = false;
  double latency_s = 0.0;   // due -> completed
  double run_s = 0.0;       // started -> preempted/completed, summed
  int checkpoints = 0;
  std::string summary;
  Clock::time_point completed_at{};
};

struct Stream {
  std::vector<double> admit_s;
  std::vector<double> lag_s;
  std::vector<JobOutcome> jobs;
  Clock::time_point start{};
  double retries = 0;
  int preempted = 0;
};

/// The service under test. It keeps no state dir: every job file and
/// checkpoint would be disk I/O on the job path, and on the reference VM
/// (ext4 on a shared virtio disk) that I/O swings ~3x over minutes — with a
/// state dir and the default 200-slot checkpoint cadence the job latency p50
/// ranged 10-28 ms over ten runs (spread 0.63; p90 0.84), and with the state
/// dir alone admission still took 0.3-2.6 ms. The checkpoint layer is
/// measured per layer at the service cadence instead.
sv::ServiceConfig service_config() {
  sv::ServiceConfig sc;
  sc.executors = 2;
  sc.lanes = 4;
  return sc;
}

/// Drive one service through `specs` as an open loop and collect every
/// job's outcome from the event stream.
Stream run_stream(const std::vector<JobSpec>& specs, Tracer& tracer,
                  std::vector<double>& setup_s, int setups) {
  EventLog log;
  std::unique_ptr<sv::JobService> svc;
  // Set-up (construct + start) is repeated; the last service started is the
  // one that takes the stream.
  for (int k = 0; k < setups; ++k) {
    if (svc) svc->drain();
    svc.reset();
    const auto t0 = Clock::now();
    svc = std::make_unique<sv::JobService>(service_config(), log.sink());
    svc->start();
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  log.take();  // banners and drain reports of the set-up services

  Stream s;
  s.start = Clock::now();
  std::vector<Clock::time_point> due;
  for (const auto& spec : specs) {
    const auto when = s.start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(spec.due_s));
    due.push_back(when);
    std::this_thread::sleep_until(when);
    const auto sent = Clock::now();
    svc->handle_line(spec.line());
    const auto admitted = Clock::now();
    tracer.add("serve.admit", sent, admitted);
    s.admit_s.push_back(seconds_between(sent, admitted));
    s.lag_s.push_back(seconds_between(when, sent));
  }
  svc->wait_idle();
  svc->handle_line(R"({"type": "stats"})");
  svc->drain();
  svc.reset();

  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < specs.size(); ++i) index[specs[i].id] = i;
  s.jobs.resize(specs.size());
  std::vector<Clock::time_point> started(specs.size()), first_started(specs.size());
  for (const Event& e : log.take()) {
    const ex::JsonValue doc = ex::parse_json(e.line);
    const std::string event = field(doc, "event");
    if (event == "stats") {
      s.retries = number(doc, "retries_total");
      continue;
    }
    const auto it = index.find(field(doc, "job"));
    if (it == index.end()) continue;
    const std::size_t i = it->second;
    JobOutcome& j = s.jobs[i];
    if (event == "started") {
      started[i] = e.at;
      if (first_started[i] == Clock::time_point{}) first_started[i] = e.at;
    } else if (event == "preempted") {
      j.run_s += seconds_between(started[i], e.at);
      tracer.add("serve.run", started[i], e.at);
      ++s.preempted;
    } else if (event == "checkpointed") {
      ++j.checkpoints;
    } else if (event == "completed") {
      ++j.terminals;
      j.completed = true;
      j.run_s += seconds_between(started[i], e.at);
      tracer.add("serve.run", started[i], e.at);
      j.latency_s = seconds_between(due[i], e.at);
      j.completed_at = e.at;
      j.summary = raw_summary(e.line);
    } else if (event == "failed") {
      ++j.terminals;
      j.shed = field(doc, "reason") == "deadline";
    } else if (event == "rejected") {
      ++j.terminals;
      j.rejected = true;
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (first_started[i] != Clock::time_point{}) {
      tracer.add("serve.queue_wait", due[i], first_started[i]);
    }
  }
  return s;
}

/// Every completed job once more, directly through the batch runner with
/// checkpoints off: the summaries must match the service's byte for byte.
/// Returns each job's direct engine seconds (0 for jobs that did not
/// complete).
std::vector<double> replay(const std::vector<JobSpec>& specs, const Stream& s, Result& out) {
  std::vector<double> engine_s(specs.size(), 0.0);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const JobOutcome& j = s.jobs[i];
    out.check(j.terminals == 1, specs[i].id + " has exactly one terminal event (has " +
                                    std::to_string(j.terminals) + ")");
    if (!j.completed) continue;
    const auto cfg = specs[i].config();
    const auto t0 = Clock::now();
    const auto batch = ex::run_many_result(cfg, specs[i].runs, std::min(2, specs[i].runs));
    engine_s[i] = seconds_between(t0, Clock::now());
    std::vector<smartexp3::metrics::RunResult> results;
    for (std::size_t r = 0; r < batch.results.size(); ++r) {
      if (batch.completed[r]) results.push_back(batch.results[r]);
    }
    out.check(j.summary == sv::summary_json(cfg, results),
              specs[i].id + " completed summary equals the direct run_many_result summary");
  }
  return engine_s;
}

void count_failures(const Stream& s, Result& out) {
  for (const JobOutcome& j : s.jobs) {
    ++out.attempted;
    if (!j.completed) ++out.failed;
  }
}

}  // namespace

void serve_churn(const Options& opt, Result& out) {
  const double rate = opt.tiny ? 20.0 : 40.0;  // jobs per second, open loop
  const int setups = opt.tiny ? 2 : 20;
  Tracer off(false);
  std::vector<double> setup_s;

  if (!opt.trace) {
    const int jobs = opt.tiny ? 8 : std::max(100, static_cast<int>(rate * opt.seconds));
    const auto specs = make_stream(opt.seed, jobs, rate);
    const Stream s = run_stream(specs, off, setup_s, setups);
    count_failures(s, out);
    replay(specs, s, out);

    std::vector<double> latency;
    long completed = 0;
    double device_slots = 0.0;
    Clock::time_point last = s.start;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const JobOutcome& j = s.jobs[i];
      if (!j.completed) continue;
      ++completed;
      latency.push_back(j.latency_s);
      device_slots += static_cast<double>(specs[i].config().devices.size()) *
                      specs[i].horizon * specs[i].runs;
      last = std::max(last, j.completed_at);
    }
    const double span = seconds_between(s.start, last);
    out.put_median("setup_s", setup_s, "s");
    out.put("device_slots_per_sec", device_slots / span, "1/s");
    out.put("run_wall_s", span, "s");
    out.put("job_latency_p50_s", quantile(latency, 0.5), "s", iqr_share(latency),
            static_cast<long>(latency.size()));
    out.put("job_latency_p90_s", quantile(latency, 0.9), "s", 0.0,
            static_cast<long>(latency.size()));
    out.put("jobs_per_sec", static_cast<double>(completed) / span, "1/s");
    out.notes["generator_lag_max_s"] = quantile(s.lag_s, 1.0);
    return;
  }

  // Traced: half the stream without spans, half with, so the difference in
  // job latency is the tracing overhead.
  const int half = opt.tiny ? 6 : std::max(50, static_cast<int>(rate * opt.seconds / 2));
  const auto plain_specs = make_stream(opt.seed, half, rate);
  const Stream plain = run_stream(plain_specs, off, setup_s, 1);
  count_failures(plain, out);
  replay(plain_specs, plain, out);

  Tracer tracer(true);
  const auto& specs = plain_specs;  // the same stream, so the halves compare
  const Stream s = run_stream(specs, tracer, setup_s, 1);
  count_failures(s, out);
  const std::vector<double> engine_s = replay(specs, s, out);

  std::vector<double> latency, plain_latency, run_ms, wait_ms;
  double engine = 0.0, run = 0.0, checkpoints = 0.0;
  long completed = 0, rejected = 0, shed = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const JobOutcome& j = s.jobs[i];
    rejected += j.rejected;
    shed += j.shed;
    if (!j.completed) continue;
    ++completed;
    latency.push_back(j.latency_s);
    run_ms.push_back(1e3 * j.run_s);
    wait_ms.push_back(1e3 * (j.latency_s - j.run_s));
    engine += engine_s[i];
    run += j.run_s;
    checkpoints += j.checkpoints;
  }
  for (const JobOutcome& j : plain.jobs) {
    if (j.completed) plain_latency.push_back(j.latency_s);
  }
  out.put_median("serve.admit_us", s.admit_s, "us", 1e6);
  out.put_median("serve.queue_wait_ms", wait_ms, "ms");
  out.put_median("serve.run_ms", run_ms, "ms");
  out.put("serve.engine_share", run > 0.0 ? engine / run : 0.0, "ratio");
  out.put("serve.checkpoints_per_job", completed > 0 ? checkpoints / completed : 0.0, "count");
  out.put("serve.preempted", s.preempted, "count");
  out.put("serve.retries", s.retries, "count");
  out.put("serve.rejected", static_cast<double>(rejected), "count");
  out.put("serve.shed", static_cast<double>(shed), "count");
  out.put_median("serve.generator_lag_ms", s.lag_s, "ms", 1e3);
  out.put("trace.overhead_share", median(latency) / median(plain_latency) - 1.0, "ratio");

  // The engine layers under the service, on the same job mix: every traced
  // job's runs stepped directly with spans, as the service's executors
  // would (without its checkpoints).
  Tracer engine_tracer(true);
  std::vector<double> step_self_s;
  long runs = 0, device_slots = 0;
  const auto e0 = Clock::now();
  engine_tracer.begin("bench.phase");
  for (const JobSpec& spec : specs) {
    const auto cfg = spec.config();
    for (int r = 0; r < spec.runs; ++r, ++runs) {
      device_slots +=
          run_direct(cfg, cfg.base_seed + r, engine_tracer, out, &step_self_s).device_slots;
    }
  }
  engine_tracer.end();
  put_traced_layers(engine_tracer, seconds_between(e0, Clock::now()), runs, device_slots,
                    step_self_s, out);
  finish_trace(engine_tracer, opt, out);
  tracer.write(opt.workdir + "/spans-serve_churn-service.jsonl");
  for (const auto& [name, t] : tracer.totals()) out.notes["self_s." + name] = t.self_s;

  // Many small checkpoints at the service's default cadence (200 slots), on
  // a mobility job.
  JobSpec ck;
  ck.setting = "mobility";
  ck.horizon = 440;
  ck.seed = opt.seed;
  probe_checkpoint(ck.config(), ck.seed, 200, opt.workdir + "/ckpt-serve", out);
  measure_lanes(ck.config(), ck.seed, 4, opt.tiny ? 20 : 200, out);
}

}  // namespace perfbench
