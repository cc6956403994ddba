// The workload interface the perfbench round loop drives.
//
// A workload owns an ordered input list built from the seed in setup().
// The loop runs the inputs in rounds of round_size() units, wrapping around
// the list, until the time budget is spent and at least the digest prefix
// (the first digest_inputs() inputs) has run.  Each unit reports its host
// latency, a hash of its simulated outputs, and the outcome of its output
// checks.  In the traced run every round runs twice, dark and then with a
// SpanRecorder, over the same inputs.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "machine/system.h"
#include "sim/counters.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Self-test sizes: a handful of small units per workload.
  bool tiny = false;
  std::string root = ".";      // repository checkout (goldens live here)
  std::string work_dir = ".";  // scratch files (serve caches, span dumps)
};

enum class UnitKind : std::uint8_t {
  kUnit,   // the workload's unit of work (unit_ms_*)
  kHit,    // served from a result cache (serve_mixed only)
  kApp,    // one Fig. 10 estimate_runtime call (latency_sweep): counts in the
           // round's wall_s / cpu_s, not in unit_ms_*
};

struct UnitResult {
  UnitKind kind = UnitKind::kUnit;
  double ms = 0.0;         // host latency of the unit's timed call
  std::uint64_t hash = 0;  // digest of the unit's simulated outputs
  bool ok = true;
  std::string error;       // first failed check, when !ok
};

// Exact simulated counts summed over the traced rounds' measured sections.
struct SimTally {
  hsw::CounterSet::Snapshot counters{};
  std::array<std::uint64_t, 7> sources{};  // indexed by hsw::ServiceSource

  void add(const hsw::CounterSet::Snapshot& delta) {
    for (std::size_t i = 0; i < counters.size(); ++i) counters[i] += delta[i];
  }
  void add_sources(const std::array<std::uint64_t, 7>& by_source) {
    for (std::size_t i = 0; i < sources.size(); ++i) sources[i] += by_source[i];
  }
};

// What a workload adds to the run's report.
struct WorkloadReport {
  // Human-readable lines printed before the result (input-property shares,
  // calibration cells, workload-specific latencies).
  std::vector<std::string> lines;
  // Per-layer metric values the span totals cannot give (by metric name).
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the inputs from the options' seed.  Called several times (the
  // setup_s median); every call must leave the same state.  `spans` is
  // non-null in the traced run.
  virtual void setup(SpanRecorder* spans) = 0;
  [[nodiscard]] virtual std::size_t input_count() const = 0;
  [[nodiscard]] virtual std::size_t round_size() const { return input_count(); }
  [[nodiscard]] virtual std::size_t digest_inputs() const {
    return input_count();
  }

  // The tail percentile is chosen on the samples of the first
  // tail_rounds() rounds (a fixed count), so it does not change with how
  // many rounds fit in the time budget; its value then comes from every
  // round.  Every run completes at least this many rounds.
  [[nodiscard]] virtual std::size_t tail_rounds() const { return 2; }

  virtual void begin_round(SpanRecorder* /*spans*/) {}
  virtual UnitResult run_unit(std::size_t input, SpanRecorder* spans) = 0;
  // Round-level checks; a non-empty message counts as one failure.
  virtual std::string end_round(SpanRecorder* /*spans*/) { return {}; }

  // Called once after the last round.  `traced_rounds` is 0 in the
  // untraced run.
  virtual WorkloadReport report(std::size_t traced_rounds) = 0;

  // Counts from traced rounds (coh.* / mem.* per-layer metrics).
  SimTally tally;
};

std::unique_ptr<Workload> make_latency_sweep(const Options& options);
std::unique_ptr<Workload> make_bandwidth_sim(const Options& options);
std::unique_ptr<Workload> make_contention(const Options& options);
std::unique_ptr<Workload> make_serve_mixed(const Options& options);
// The two halves of latency_sweep.
std::unique_ptr<Workload> make_sweep_points(const Options& options);
std::unique_ptr<Workload> make_fig10_apps(const Options& options);

// A System built and torn down under machine.construct / machine.destroy
// spans, one alive at a time.  The destroy span's aux carries the minor
// faults over the System's whole life (its pages are touched by placement
// and accesses, not by the constructor).
class SpannedSystem {
 public:
  SpannedSystem(SpanRecorder* spans, const hsw::SystemConfig& config)
      : spans_(spans), minflt_(usage_now().minflt) {
    ScopedSpan span(spans, "machine.construct");
    system_.emplace(config);
  }
  ~SpannedSystem() {
    ScopedSpan span(spans_, "machine.destroy");
    system_.reset();
    span.set_aux(usage_now().minflt - minflt_);
  }
  SpannedSystem(const SpannedSystem&) = delete;
  SpannedSystem& operator=(const SpannedSystem&) = delete;

  hsw::System& operator*() { return *system_; }
  hsw::System* operator->() { return &*system_; }

 private:
  SpanRecorder* spans_;
  std::uint64_t minflt_;
  std::optional<hsw::System> system_;
};

// Times `fn` on the host, returning milliseconds.
template <typename Fn>
double time_ms(Fn&& fn) {
  const double start = now_s();
  fn();
  return (now_s() - start) * 1e3;
}

// A failed check: records the first message and marks the unit failed.
inline void fail(UnitResult& r, const std::string& message) {
  if (r.ok) r.error = message;
  r.ok = false;
}

}  // namespace perfbench
