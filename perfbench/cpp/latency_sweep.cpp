// latency_sweep: the simulator's latency probes in one workload.  A round
// is a full sweep_points round (the Fig. 4/5/6 points and Table III cells)
// followed by one Fig. 10 application — three estimate_runtime calls,
// rotating through the 27 applications from round to round.
//
// Both halves construct a fresh System per probe and spend their host time
// in placement, so System reuse and bulk placement move both, while probe
// memoization moves only the application half (78 of 81 calls repeat one
// of 3 configs).  Running them as one workload gives each run the length
// that keeps its medians steady on a shared host.  The unit of unit_ms_*
// is a sweep point or Table III cell; the estimate_runtime calls count in
// wall_s and cpu_s and are printed as app_ms_p50.  The applications do not
// depend on the seed, so their outputs get a digest line of their own.
#include <optional>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {
namespace {

class LatencySweep final : public Workload {
 public:
  explicit LatencySweep(const Options& options)
      : sweep_(make_sweep_points(options)), apps_(make_fig10_apps(options)) {}

  void setup(SpanRecorder* spans) override {
    sweep_->setup(spans);
    apps_->setup(spans);
    sweep_hashes_.assign(sweep_->input_count(), std::nullopt);
    app_hashes_.assign(apps_->input_count(), std::nullopt);
  }

  // One cycle through the applications; the sweep runs whole every round.
  [[nodiscard]] std::size_t input_count() const override {
    return apps_->input_count() / apps_->round_size() * round_size();
  }
  [[nodiscard]] std::size_t round_size() const override {
    return sweep_->input_count() + apps_->round_size();
  }
  // As many rounds as the applications' digest prefix needs (two).
  [[nodiscard]] std::size_t digest_inputs() const override {
    return apps_->digest_inputs() / apps_->round_size() * round_size();
  }
  [[nodiscard]] std::size_t tail_rounds() const override {
    return sweep_->tail_rounds();
  }

  void begin_round(SpanRecorder* spans) override {
    sweep_->begin_round(spans);
    apps_->begin_round(spans);
  }

  UnitResult run_unit(std::size_t input, SpanRecorder* spans) override {
    const std::size_t round = input / round_size();
    const std::size_t k = input % round_size();
    if (k >= sweep_->input_count()) {
      const std::size_t app_input =
          round * apps_->round_size() + (k - sweep_->input_count());
      UnitResult r = apps_->run_unit(app_input, spans);
      if (r.ok && !app_hashes_[app_input]) app_hashes_[app_input] = r.hash;
      return r;
    }
    UnitResult r = sweep_->run_unit(k, spans);
    // The round loop compares reruns per input index, and a sweep input
    // recurs under a new index every round: compare those here.
    std::optional<std::uint64_t>& first = sweep_hashes_[k];
    if (r.ok && first && *first != r.hash) {
      fail(r, "sweep input " + std::to_string(k) +
                  " produced a different output hash on a rerun");
    }
    if (!first) first = r.hash;
    return r;
  }

  std::string end_round(SpanRecorder* spans) override {
    std::string error = sweep_->end_round(spans);
    const std::string apps_error = apps_->end_round(spans);
    return error.empty() ? apps_error : error;
  }

  WorkloadReport report(std::size_t traced_rounds) override {
    WorkloadReport wr = sweep_->report(traced_rounds);
    const WorkloadReport apps = apps_->report(traced_rounds);
    wr.lines.insert(wr.lines.end(), apps.lines.begin(), apps.lines.end());
    wr.layer.insert(apps.layer.begin(), apps.layer.end());
    Digest d;
    bool complete = true;
    for (std::size_t i = 0; i < apps_->digest_inputs(); ++i) {
      complete = complete && app_hashes_[i].has_value();
      d.u64(i).u64(app_hashes_[i].value_or(0));
    }
    wr.lines.push_back("digest_apps " +
                       (complete ? hex64(d.value()) : std::string("incomplete")) +
                       " (estimate_runtime calls 0.." +
                       std::to_string(apps_->digest_inputs()) +
                       ", seed-independent)");
    tally = sweep_->tally;
    tally.add(apps_->tally.counters);
    tally.add_sources(apps_->tally.sources);
    return wr;
  }

 private:
  std::unique_ptr<Workload> sweep_;
  std::unique_ptr<Workload> apps_;
  std::vector<std::optional<std::uint64_t>> sweep_hashes_;
  std::vector<std::optional<std::uint64_t>> app_hashes_;
};

}  // namespace

std::unique_ptr<Workload> make_latency_sweep(const Options& options) {
  return std::make_unique<LatencySweep>(options);
}

}  // namespace perfbench
