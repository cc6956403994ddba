// bandwidth_sim: Table VII / Fig. 8 memory-bandwidth core scaling on the
// event-driven engine.
//
// 1-12 concurrent streams (five core counts) x {read, store} x {local,
// remote memory} x {source, home snoop}, each point on a fresh System with
// BandwidthEngine::kSimulated.  The closed loop is about a third of the
// measure time here and grows with the stream count, and the store streams
// drive the coherence write path that latency_sweep never measures.
//
// Checks: every point stays within validate_bw_model's 10% of the analytic
// engine (computed once per point), and the Fig. 8 / Table VII paper cells
// stay within the bands of tests/core/bandwidth_test.cpp and
// tests/bw/model_test.cpp.
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/bandwidth.h"
#include "core/experiment.h"
#include "machine/system.h"
#include "util/units.h"
#include "workload.h"

namespace perfbench {
namespace {

// validate_bw_model's gate: simulated vs analytic total bandwidth.
constexpr double kEngineTolerance = 0.10;

struct Input {
  std::string name;
  hsw::SnoopMode mode = hsw::SnoopMode::kSourceSnoop;
  int cores = 1;
  int node = 0;
  bool write = false;
  // Paper cell (GB/s) and relative tolerance; 0 = not a paper cell.
  double paper_gbps = 0.0;
  double tolerance = 0.0;
  const char* source = "";
};

struct Outcome {
  double total_gbps = 0.0;
  std::uint64_t hash = 0;
  hsw::CounterSet::Snapshot counters{};
};

class BandwidthSim final : public Workload {
 public:
  explicit BandwidthSim(const Options& options) : options_(options) {}

  void setup(SpanRecorder* /*spans*/) override {
    inputs_.clear();
    // Core counts: both ends of Table VII, the store peak (5) and points
    // between; every stream adds a full placement and probe.  Five counts
    // of eight points each put the median unit inside the 5-stream class,
    // not on the edge between two classes.
    const std::vector<int> core_counts =
        options_.tiny ? std::vector<int>{1, 2}
                      : std::vector<int>{1, 2, 5, 8, 12};
    for (const hsw::SnoopMode mode :
         {hsw::SnoopMode::kSourceSnoop, hsw::SnoopMode::kHomeSnoop}) {
      for (const int node : {0, 1}) {
        for (const bool write : {false, true}) {
          for (const int cores : core_counts) {
            Input in;
            in.name = std::string(hsw::snoop_mode_token(mode)) + " " +
                      (node == 0 ? "local " : "remote ") +
                      (write ? "write x" : "read x") + std::to_string(cores);
            in.mode = mode;
            in.cores = cores;
            in.node = node;
            in.write = write;
            inputs_.push_back(in);
          }
        }
      }
    }
    // Paper cells with the bands the unit tests hold the model to
    // (|sim - paper| <= |test centre - paper| + test tolerance).
    auto paper = [&](hsw::SnoopMode mode, int node, bool write, int cores,
                     double gbps, double tolerance, const char* source) {
      for (Input& in : inputs_) {
        if (in.mode == mode && in.node == node && in.write == write &&
            in.cores == cores) {
          in.paper_gbps = gbps;
          in.tolerance = tolerance;
          in.source = source;
        }
      }
    };
    const auto src = hsw::SnoopMode::kSourceSnoop;
    const auto home = hsw::SnoopMode::kHomeSnoop;
    // Fig. 8: single-stream local / remote memory (bandwidth_test holds the
    // local stream to 10.6 +- 1.2; no test pins the remote one, so it gets
    // the same relative band).
    paper(src, 0, false, 1, 10.3, 0.15, "Fig. 8 local memory");
    paper(src, 1, false, 1, 8.0, 0.15, "Fig. 8 remote memory");
    // Table VII single-core store (bandwidth_test 7.7 +- 0.2).
    paper(src, 0, true, 1, 7.7, 0.03, "Table VII local write, 1 core");
    if (!options_.tiny) {
      // Table VII (bandwidth_test / model_test bands).
      paper(src, 0, false, 12, 63.0, 0.03, "Table VII local read, 12 cores");
      paper(home, 0, false, 12, 63.0, 0.03,
            "Table VII local read home snoop, 12 cores");
      paper(src, 0, true, 5, 26.5, 0.04, "Table VII local write peak, 5 cores");
      paper(src, 0, true, 12, 25.8, 0.04, "Table VII local write, 12 cores");
      paper(src, 1, false, 12, 16.8, 0.042,
            "Table VII remote read source snoop, 12 cores");
      paper(home, 1, false, 12, 30.6, 0.036,
            "Table VII remote read home snoop, 12 cores");
    }
    analytic_.assign(inputs_.size(), std::nullopt);
    simulated_.assign(inputs_.size(), 0.0);
  }

  [[nodiscard]] std::size_t input_count() const override {
    return inputs_.size();
  }
  [[nodiscard]] std::size_t tail_rounds() const override {
    return options_.tiny ? 1 : 3;
  }

  UnitResult run_unit(std::size_t index, SpanRecorder* spans) override {
    const Input& in = inputs_[index];
    UnitResult r;
    Outcome sim;
    if (spans == nullptr) {
      r.ms = time_ms([&] {
        hsw::System system(hsw::SystemConfig::for_mode(in.mode));
        sim = measure(system, in, hsw::BandwidthEngine::kSimulated);
      });
      if (!analytic_[index]) {
        hsw::System system(hsw::SystemConfig::for_mode(in.mode));
        analytic_[index] =
            measure(system, in, hsw::BandwidthEngine::kAnalytic).total_gbps;
      }
    } else {
      ScopedSpan unit(spans, "bench.unit", static_cast<std::int64_t>(index));
      // Same point under both engines: the difference is the closed loop.
      // The analytic run is extra work the untraced unit does not do.
      std::optional<ScopedSpan> extra(std::in_place, spans, "bench.extra");
      double analytic_ms = 0.0;
      const Outcome analytic =
          traced(in, hsw::BandwidthEngine::kAnalytic, spans,
                 "core.measure_bandwidth_analytic", analytic_ms);
      extra.reset();
      double simulated_ms = 0.0;
      sim = traced(in, hsw::BandwidthEngine::kSimulated, spans,
                   "core.measure_bandwidth", simulated_ms);
      closed_loop_ms_.push_back(simulated_ms - analytic_ms);
      ScopedSpan check(spans, "bench.check");
      if (analytic_[index] && analytic.total_gbps != *analytic_[index]) {
        fail(r, in.name + ": analytic engine result changed between runs");
      }
      tally.add(sim.counters);
    }
    simulated_[index] = sim.total_gbps;
    r.hash = sim.hash;
    const double reference = *analytic_[index];
    const double divergence = sim.total_gbps / reference - 1.0;
    if (std::abs(divergence) > kEngineTolerance) {
      char msg[160];
      std::snprintf(msg, sizeof msg,
                    "%s: simulated %.2f GB/s vs analytic %.2f GB/s (%+.1f%%)",
                    in.name.c_str(), sim.total_gbps, reference,
                    divergence * 100.0);
      fail(r, msg);
    }
    if (in.paper_gbps > 0.0) {
      const double err =
          std::abs(sim.total_gbps - in.paper_gbps) / in.paper_gbps;
      if (err > in.tolerance) {
        char msg[160];
        std::snprintf(msg, sizeof msg,
                      "%s: %.2f GB/s vs paper %.2f GB/s (tolerance %.1f%%)",
                      in.source, sim.total_gbps, in.paper_gbps,
                      in.tolerance * 100.0);
        fail(r, msg);
      }
    }
    return r;
  }

  WorkloadReport report(std::size_t /*traced_rounds*/) override {
    WorkloadReport wr;
    double err_sum = 0.0;
    int cells = 0;
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      if (inputs_[i].paper_gbps <= 0.0 || !analytic_[i]) continue;
      const double paper = inputs_[i].paper_gbps;
      const double err = std::abs(simulated_[i] - paper) / paper;
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "paper cell %s: %.2f GB/s (paper %.2f, %+.1f%%)",
                    inputs_[i].source, simulated_[i], paper,
                    (simulated_[i] / paper - 1.0) * 100.0);
      wr.lines.push_back(buf);
      err_sum += err;
      ++cells;
    }
    const double paper_err = cells ? err_sum / cells * 100.0 : 0.0;
    wr.layer["calib.paper_err_pct"] = paper_err;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "paper_err_pct %.3f over %d Fig. 8 / Table VII cells "
                  "(calibration error)",
                  paper_err, cells);
    wr.lines.push_back(buf);
    if (!closed_loop_ms_.empty()) {
      double sum = 0.0;
      for (const double ms : closed_loop_ms_) sum += ms;
      wr.layer["exec.closed_loop_ms"] =
          sum / static_cast<double>(closed_loop_ms_.size());
    }
    return wr;
  }

 private:
  [[nodiscard]] hsw::BandwidthConfig config_for(
      const Input& in, hsw::BandwidthEngine engine) const {
    hsw::BandwidthConfig bc;
    for (int c = 0; c < in.cores; ++c) {
      hsw::StreamConfig stream;
      stream.core = c;
      stream.write = in.write;
      stream.placement.owner_core = c;
      stream.placement.memory_node = in.node;
      stream.placement.state = hsw::Mesif::kModified;
      stream.placement.level = hsw::CacheLevel::kMemory;
      bc.streams.push_back(stream);
    }
    bc.buffer_bytes = hsw::mib(1);
    bc.seed = options_.seed;
    bc.engine = engine;
    return bc;
  }

  Outcome measure(hsw::System& system, const Input& in,
                  hsw::BandwidthEngine engine) const {
    const hsw::CounterSet::Snapshot before = system.counters().snapshot();
    const hsw::BandwidthResult result =
        hsw::measure_bandwidth(system, config_for(in, engine));
    Outcome out;
    out.total_gbps = result.total_gbps;
    out.counters = system.counters().diff(before);
    Digest d;
    d.f64(result.total_gbps);
    for (const hsw::StreamResult& s : result.streams) {
      d.f64(s.gbps).f64(s.probe_latency_ns).f64(s.queue_ns);
      d.u64(static_cast<std::uint64_t>(s.source))
          .u64(static_cast<std::uint64_t>(s.source_node))
          .u64(s.stale_directory ? 1 : 0)
          .str(s.bottleneck);
    }
    out.hash = d.value();
    return out;
  }

  // One engine on a fresh System; `ms` receives the measure_bandwidth time.
  Outcome traced(const Input& in, hsw::BandwidthEngine engine,
                 SpanRecorder* spans, const char* span_name, double& ms) const {
    SpannedSystem system(spans, hsw::SystemConfig::for_mode(in.mode));
    Outcome out;
    ms = time_ms([&] {
      ScopedSpan span(spans, span_name);
      span.set_count(static_cast<std::uint64_t>(in.cores));
      out = measure(*system, in, engine);
    });
    return out;
  }

  Options options_;
  std::vector<Input> inputs_;
  std::vector<std::optional<double>> analytic_;
  std::vector<double> simulated_;
  std::vector<double> closed_loop_ms_;
};

}  // namespace

std::unique_ptr<Workload> make_bandwidth_sim(const Options& options) {
  return std::make_unique<BandwidthSim>(options);
}

}  // namespace perfbench
