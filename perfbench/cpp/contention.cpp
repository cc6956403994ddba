// contention: the mailbox ping-pong, contended-lock and false-sharing traces
// under MESIF, MESI, MOESI and Dragon, interleaved through
// replay_concurrent.
//
// Each (protocol, pattern) cell replays its trace twice on fresh Systems:
// once detached (the timed unit) and once with tracer + metrics + linestats
// attached, followed by the hub merge and report serialization.  There is
// no placement and little construction, so System reuse and bulk placement
// must not move this workload; writes and invalidations dominate, and it is
// the only workload with observers attached.
//
// Checks: the observed replay does exactly the detached replay's simulated
// work (identical stats and engine counters), and the flight recorder
// classifies each trace the way bench/sharing_patterns asserts (on the
// serial replay that bench uses; the concurrent classification is
// printed).  The traced run also replays with each observer alone to price
// it.
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "coh/timing.h"
#include "machine/system.h"
#include "metrics/hub.h"
#include "metrics/report.h"
#include "obs/line_stats.h"
#include "trace/sink.h"
#include "workload.h"
#include "workload/trace.h"

namespace perfbench {
namespace {

using hsw::obs::SharingPattern;

constexpr hsw::Protocol kProtocols[] = {hsw::Protocol::kMesif,
                                        hsw::Protocol::kMesi,
                                        hsw::Protocol::kMoesi,
                                        hsw::Protocol::kDragon};

struct Pattern {
  const char* name;
  SharingPattern expected;
  hsw::Trace trace;
};

// Span trees the observed replay's tracer keeps (the rest are counted as
// dropped): enough for a realistic export without serializing every access.
constexpr std::size_t kTraceCapacity = 512;

// Observers attached to one replay.
enum Observers : unsigned {
  kNone = 0,
  kTracer = 1,
  kMetrics = 2,
  kLineStats = 4,
};

struct Replay {
  hsw::exec::ProgramExecStats stats;
  std::optional<hsw::trace::Tracer> tracer;
  std::optional<hsw::metrics::MetricsRegistry> registry;
  std::optional<hsw::obs::LineStatsRecorder> recorder;
};

SharingPattern hottest_pattern(hsw::obs::LineStatsRecorder&& recorder) {
  hsw::obs::LineStatsHub hub;
  hub.absorb(std::move(recorder));
  const hsw::obs::MergedLineStats merged = hub.merged();
  return merged.top_lines.empty() ? SharingPattern::kPrivate
                                  : merged.top_lines.front().pattern;
}

std::uint64_t hash_of(const hsw::exec::ProgramExecStats& s) {
  Digest d;
  d.f64(s.makespan_ns).u64(s.accesses).u64(s.flushes).f64(s.access_ns)
      .f64(s.queue_ns).u64s(s.by_source).u64s(s.counters);
  for (const hsw::exec::CoreExecStats& c : s.per_core) {
    d.u64(static_cast<std::uint64_t>(c.core)).u64(c.accesses)
        .f64(c.access_ns).f64(c.queue_ns).f64(c.finish_ns);
  }
  return d.value();
}

class Contention final : public Workload {
 public:
  explicit Contention(const Options& options) : options_(options) {}

  void setup(SpanRecorder* spans) override {
    // The generators only allocate addresses (a pure function of the
    // allocation order), so one System builds every trace and each replay
    // gets a fresh machine.
    const int rounds = options_.tiny ? 200 : 2000;
    std::optional<SpannedSystem> system(std::in_place, spans,
                                        hsw::SystemConfig::source_snoop());
    const int far = (*system)->core_count() / 2;
    // Cross-socket sharing set (bench/sharing_patterns): every handoff
    // crosses QPI.
    const std::vector<int> cores = {0, 1, 2, 3, far, far + 1, far + 2, far + 3};
    patterns_.clear();
    auto make = [&](const char* name, SharingPattern expected,
                    auto&& generate) {
      ScopedSpan span(spans, "workload.make_trace");
      patterns_.push_back({name, expected, generate()});
    };
    make("pingpong", SharingPattern::kPingPong,
         [&] { return hsw::make_pingpong_trace(**system, 0, far, rounds); });
    make("lock", SharingPattern::kMigratory, [&] {
      return hsw::make_lock_trace(**system, cores, 4, rounds, options_.seed);
    });
    make("false_sharing", SharingPattern::kFalseShared, [&] {
      return hsw::make_false_sharing_trace(**system, cores, rounds,
                                           /*padded=*/false);
    });
    system.reset();
    replay_ms_.fill(0.0);
    serial_.assign(input_count(), std::nullopt);
    concurrent_.assign(input_count(), std::nullopt);
  }

  [[nodiscard]] std::size_t input_count() const override {
    return std::size(kProtocols) * patterns_.size();
  }
  [[nodiscard]] std::size_t tail_rounds() const override {
    return options_.tiny ? 1 : 10;
  }

  UnitResult run_unit(std::size_t index, SpanRecorder* spans) override {
    const hsw::Protocol protocol = kProtocols[index / patterns_.size()];
    const Pattern& pattern = patterns_[index % patterns_.size()];
    const std::string cell = cell_name(index);
    UnitResult r;
    ScopedSpan unit(spans, "bench.unit", static_cast<std::int64_t>(index));

    Replay dark;
    r.ms = replay(protocol, pattern, kNone, "exec.replay_concurrent", spans,
                  dark);
    r.hash = hash_of(dark.stats);
    if (spans != nullptr) {
      tally.add(dark.stats.counters);
      tally.add_sources(dark.stats.by_source);
      replay_ms_[kNone] += r.ms;
      // Each observer alone, on the same trace, to price it.
      ScopedSpan extra(spans, "bench.extra");
      const std::pair<unsigned, const char*> alone[] = {
          {kTracer, "exec.replay_tracer"},
          {kMetrics, "exec.replay_metrics"},
          {kLineStats, "exec.replay_linestats"}};
      for (const auto& [observers, name] : alone) {
        Replay one;
        replay_ms_[observers] +=
            replay(protocol, pattern, observers, name, spans, one);
        check_same_work(r, cell, dark, one, spans);
      }
    }

    Replay observed;
    replay(protocol, pattern, kTracer | kMetrics | kLineStats,
           "exec.replay_observed", spans, observed);
    check_same_work(r, cell, dark, observed, spans);
    export_reports(protocol, observed, spans);

    concurrent_[index] = hottest_pattern(std::move(*observed.recorder));
    if (!serial_[index]) {
      // The classifier's contract is stated on the serial replay
      // (bench/sharing_patterns); checked once per cell, untimed.
      ScopedSpan check(spans, "bench.check");
      hsw::SystemConfig config = hsw::SystemConfig::source_snoop();
      config.protocol = protocol;
      hsw::System system(config);
      hsw::obs::LineStatsRecorder recorder(protocol, 0);
      hsw::InstrumentationScope scope;
      scope.linestats = &recorder;
      hsw::replay(system, pattern.trace, scope);
      serial_[index] = hottest_pattern(std::move(recorder));
    }
    if (*serial_[index] != pattern.expected) {
      fail(r, cell + ": hottest line classified " +
                  hsw::obs::to_string(*serial_[index]) + ", expected " +
                  hsw::obs::to_string(pattern.expected));
    }
    return r;
  }

  WorkloadReport report(std::size_t traced_rounds) override {
    WorkloadReport wr;
    if (traced_rounds > 0 && replay_ms_[kNone] > 0.0) {
      auto overhead = [&](unsigned observers) {
        return (replay_ms_[observers] / replay_ms_[kNone] - 1.0) * 100.0;
      };
      wr.layer["obs.tracer_overhead_pct"] = overhead(kTracer);
      wr.layer["obs.metrics_overhead_pct"] = overhead(kMetrics);
      wr.layer["obs.linestats_overhead_pct"] = overhead(kLineStats);
    }
    std::size_t events = 0;
    for (const Pattern& p : patterns_) events += p.trace.size();
    std::string seen = "hottest-line pattern, serial / concurrent replay:";
    for (std::size_t i = 0; i < input_count(); ++i) {
      if (!serial_[i]) continue;
      seen += " " + cell_name(i) + "=" + hsw::obs::to_string(*serial_[i]) +
              "/" + hsw::obs::to_string(*concurrent_[i]);
    }
    wr.lines.push_back(seen);
    wr.lines.push_back("input property: " + std::to_string(patterns_.size()) +
                       " traces, " + std::to_string(events) +
                       " events, replayed under " +
                       std::to_string(std::size(kProtocols)) + " protocols");
    return wr;
  }

 private:
  [[nodiscard]] std::string cell_name(std::size_t index) const {
    return std::string(hsw::to_string(kProtocols[index / patterns_.size()])) +
           "." + patterns_[index % patterns_.size()].name;
  }

  // One replay on a fresh System with the given observers; returns the
  // host milliseconds of the replay_concurrent call alone.
  double replay(hsw::Protocol protocol, const Pattern& pattern,
                unsigned observers, const char* span_name, SpanRecorder* spans,
                Replay& out) const {
    hsw::SystemConfig config = hsw::SystemConfig::source_snoop();
    config.protocol = protocol;
    SpannedSystem system(spans, config);
    hsw::ConcurrentReplayConfig rc;
    if (observers & kTracer) {
      out.tracer.emplace(hsw::trace::Tracer::Mode::kFull, 0, kTraceCapacity);
      rc.instrumentation.tracer = &*out.tracer;
    }
    if (observers & kMetrics) {
      out.registry.emplace(0);
      rc.instrumentation.metrics = &*out.registry;
    }
    if (observers & kLineStats) {
      out.recorder.emplace(protocol, 0);
      rc.instrumentation.linestats = &*out.recorder;
    }
    const double ms = time_ms([&] {
      ScopedSpan span(spans, span_name);
      out.stats = hsw::replay_concurrent(*system, pattern.trace, rc);
      span.set_count(out.stats.accesses);
    });
    return ms;
  }

  // Attaching observers must never change the simulated work.
  static void check_same_work(UnitResult& r, const std::string& cell,
                              const Replay& dark, const Replay& observed,
                              SpanRecorder* spans) {
    ScopedSpan check(spans, "bench.check");
    if (hash_of(observed.stats) != hash_of(dark.stats)) {
      fail(r, cell + ": observers changed the simulated work (stats or "
                     "engine counters differ from the detached replay)");
    }
  }

  // Hub merge + serialization of the observed replay: Chrome trace, metrics
  // report with the linestats section embedded.
  void export_reports(hsw::Protocol protocol, Replay& observed,
                      SpanRecorder* spans) const {
    ScopedSpan span(spans, "obs.export");
    hsw::trace::TraceSink sink;
    sink.absorb(std::move(*observed.tracer));
    hsw::metrics::MetricsHub metrics;
    metrics.absorb(std::move(*observed.registry));
    hsw::obs::LineStatsHub lines;
    // A copy: the recorder itself still feeds the classification check.
    lines.absorb(hsw::obs::LineStatsRecorder(*observed.recorder));
    hsw::metrics::ReportManifest manifest;
    manifest.tool = "hswsim_perfbench";
    manifest.config = "contention";
    manifest.protocol = std::string(hsw::to_string(protocol));
    manifest.timing_hash = hsw::timing_fingerprint(
        hsw::TimingParams::haswell_ep(), hsw::to_string(protocol));
    manifest.seed = options_.seed;
    manifest.git = "unknown";
    const std::string base = options_.work_dir + "/contention";
    const bool ok =
        sink.write_chrome_json(base + ".trace.json") &&
        hsw::metrics::write_report(
            base + ".metrics.json", manifest, metrics.merged(),
            hsw::obs::render_linestats_section(lines.merged()));
    if (!ok) throw std::runtime_error("cannot write reports under " + base);
  }

  Options options_;
  std::vector<Pattern> patterns_;
  // Hottest-line classification per cell: serial replay (the checked
  // contract) and the observed concurrent replay (reported).
  std::vector<std::optional<SharingPattern>> serial_;
  std::vector<std::optional<SharingPattern>> concurrent_;
  // Traced rounds: summed replay milliseconds per observer set.
  std::array<double, 8> replay_ms_{};
};

}  // namespace

std::unique_ptr<Workload> make_contention(const Options& options) {
  return std::make_unique<Contention>(options);
}

}  // namespace perfbench
