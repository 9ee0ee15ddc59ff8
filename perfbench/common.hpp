// Shared pieces of the repository benchmark program: options, the result
// every workload fills in, the in-memory span tracer, seeded generation and
// order statistics. The program links libsmartexp3 and only ever calls the
// library's public functions; every span is taken in this directory's code,
// around those calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/config.hpp"
#include "metrics/recorder.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed phase
  bool trace = false;     ///< per-layer run (spans on) instead of end-to-end
  bool tiny = false;      ///< self-check size: every path runs, nothing is timed long
  std::string workdir;    ///< work space inside the checkout (checkpoints, spans)
  std::string git_sha = "unknown";
};

/// One reported number: the median of `samples` repeats, with the spread
/// (interquartile range over median) across them.
struct Metric {
  double value = 0.0;
  std::string unit;
  double spread = 0.0;
  long samples = 1;
};

/// What one workload run produced.
struct Result {
  std::map<std::string, Metric> metrics;
  long attempted = 0;       ///< operations the workload tried (runs, jobs)
  long failed = 0;          ///< operations that failed, were rejected or shed
  long checks = 0;          ///< correctness checks made
  long checks_failed = 0;
  std::vector<std::string> digests;  ///< per-run RunResult digests (fig06_serial)
  std::map<std::string, double> notes;  ///< extra figures for the report line

  void put(const std::string& name, double value, const std::string& unit,
           double spread = 0.0, long samples = 1);
  /// Median of `samples` (times `scale`) with its spread.
  void put_median(const std::string& name, const std::vector<double>& samples,
                  const std::string& unit, double scale = 1.0);
  /// Count a correctness check; a failing one is printed on stderr.
  bool check(bool ok, const std::string& what);
};

// ---- order statistics -------------------------------------------------------

/// Linear-interpolation quantile (q in [0,1]) of a copy of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
/// (q3 - q1) / median, 0 when the median is 0.
double iqr_share(const std::vector<double>& v);

// ---- seeded generation ------------------------------------------------------

/// SplitMix64: the workload generator's own stream, independent of the
/// library's RNGs so that the library only ever receives generated inputs.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [0, n).
  int below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }

 private:
  std::uint64_t state_;
};

// ---- spans ------------------------------------------------------------------

/// In-memory span recorder. A span has a name, start, end and parent (the
/// span open on the same thread when it began); per-name totals and self
/// time (duration minus the time covered by child spans) are kept for every
/// span, while individual spans are retained up to a cap and written out
/// when the run ends. Off, every call returns at once.
class Tracer {
 public:
  struct Total {
    long count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  /// Open a span on the calling thread's stack (single-threaded use).
  void begin(const char* name);
  /// Close the innermost open span; returns its duration in seconds.
  double end();
  /// Self time of the span end() closed last.
  double last_self_s() const { return last_self_s_; }
  /// Record a finished span measured elsewhere (e.g. from service events);
  /// its parent is the innermost open span.
  void add(const char* name, Clock::time_point start, Clock::time_point end);

  const std::map<std::string, Total>& totals() const { return totals_; }
  double total_s(const std::string& name) const;
  double self_s(const std::string& name) const;
  long count(const std::string& name) const;
  long dropped() const { return dropped_; }

  /// Write every retained span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    int id;  // index into spans_, -1 when not retained
    Clock::time_point start;
    double child_s;
  };
  struct Record {
    const char* name;
    int parent;
    double start_s;
    double end_s;
  };
  static constexpr std::size_t kMaxSpans = 200000;
  /// Keep a span (end filled in later); -1 once the cap is reached.
  int retain(const char* name, Clock::time_point start);
  void account(const char* name, double dur, double self);

  bool on_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Open> stack_;
  std::vector<Record> spans_;
  double last_self_s_ = 0.0;
  long dropped_ = 0;
  std::map<std::string, Total> totals_;
  // Name pointers are string literals: a small pointer-keyed cache keeps
  // the per-slot path off the string map.
  std::vector<std::pair<const char*, Total*>> cache_;
};

/// RAII span; does nothing when the tracer is off.
class Span {
 public:
  Span(Tracer& t, const char* name) : t_(t) {
    if (t_.on()) t_.begin(name);
  }
  ~Span() {
    if (t_.on()) t_.end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
};

// ---- shared workload pieces -------------------------------------------------

/// A short stable digest of a RunResult (FNV-1a over its headline numbers
/// and per-device accounting), printed per run so two builds can be diffed.
std::uint64_t result_digest(const smartexp3::metrics::RunResult& r);

/// Forwards a world's slot notifications to a RunRecorder inside the
/// metrics.on_slot_end / metrics.on_run_end spans, counts device-slots, and
/// checks after every slot that the per-network counts sum to the active
/// device count.
class SlotObserver final : public smartexp3::netsim::WorldObserver {
 public:
  SlotObserver(smartexp3::metrics::RunRecorder& rec, Tracer& tracer)
      : rec_(rec), tracer_(tracer) {}
  // The world keeps this observer's address.
  SlotObserver(const SlotObserver&) = delete;
  SlotObserver& operator=(const SlotObserver&) = delete;
  void on_slot_end(smartexp3::Slot t, const smartexp3::netsim::World& world) override;
  void on_run_end(const smartexp3::netsim::World& world) override;

  long bad_slots() const { return bad_slots_; }
  long device_slots() const { return device_slots_; }

 private:
  smartexp3::metrics::RunRecorder& rec_;
  Tracer& tracer_;
  long bad_slots_ = 0;
  long device_slots_ = 0;
};

/// The world's snapshot words (the bit-identity checks compare these).
std::vector<std::uint64_t> snapshot_words(const smartexp3::netsim::World& world);

/// World + recorder snapshot into a durable checkpoint file, as the run
/// harness writes it: snapshot_into for both, then save_checkpoint_file.
void write_checkpoint(const smartexp3::netsim::World& world,
                      const smartexp3::metrics::RunRecorder& rec, std::uint64_t seed,
                      std::uint64_t fingerprint, const std::string& path);

/// load_checkpoint_file, then restore the world and the recorder from it.
void load_checkpoint(const std::string& path, smartexp3::netsim::World& world,
                     smartexp3::metrics::RunRecorder& rec);

/// One slot-by-slot run of `cfg` under a SlotObserver: spans around
/// build_world and (traced) every World::step(); untraced, World::run().
/// `step_self_s` (traced only) receives each step's time net of the
/// recorder.
struct DirectRun {
  smartexp3::metrics::RunResult result;
  long device_slots = 0;
};
DirectRun run_direct(const smartexp3::exp::ExperimentConfig& cfg, std::uint64_t seed,
                     Tracer& tracer, Result& out,
                     std::vector<double>* step_self_s = nullptr);

/// Step a fresh world of `cfg` at 1 lane and at `lanes` lanes for `slots`
/// slots each (after one warm-up slot), check the two trajectories agree
/// bit for bit, and report netsim.step_serial_ms and
/// netsim.parallel_efficiency = serial / (lanes x parallel).
void measure_lanes(smartexp3::exp::ExperimentConfig cfg, std::uint64_t seed, int lanes,
                   int slots, Result& out);

/// Write a checkpoint of a world of `cfg` stepped to `at` slots, load it into
/// a fresh world, check the restored snapshot matches, and report
/// exp.checkpoint_write_ms / exp.checkpoint_bytes / exp.checkpoint_load_ms.
/// Used by workloads whose own flow writes no checkpoints.
void probe_checkpoint(const smartexp3::exp::ExperimentConfig& cfg, std::uint64_t seed,
                      smartexp3::Slot at, const std::string& dir, Result& out);

/// Standalone layer kernels: core.choose_observe_ns.{smart_exp3,exp3} and
/// stats.delay_sample_ns.
void measure_kernels(std::uint64_t seed, double seconds, Result& out);

/// The per-layer metrics every traced direct-run flow reports, from its
/// spans: build, harness remainder, step, recorder, run end, and the share of
/// the phase wall time no layer span covers.
void put_traced_layers(const Tracer& tracer, double wall_s, long runs, long device_slots,
                       const std::vector<double>& step_self_s, Result& out);

/// Write the retained spans to the work dir and copy each layer's self time
/// into the report notes.
void finish_trace(const Tracer& tracer, const Options& opt, Result& out);

/// Peak resident set of this process in MB, net of the host probe's buffers.
double peak_rss_mb();

// ---- workloads --------------------------------------------------------------

void fig06_serial(const Options& opt, Result& out);
void xl_lanes(const Options& opt, Result& out);
void serve_churn(const Options& opt, Result& out);

}  // namespace perfbench
