// fig10_apps: estimate_runtime for the 27 application models under the
// three coherence configurations, in Fig. 10 order (app by app, source ->
// home -> COD).  It runs as the second half of latency_sweep.
//
// The 81 calls share only 3 distinct machine configurations, so 78 of them
// repeat a configuration an earlier call already probed: this is the only
// input with the repeated-input property that probe memoization pays off
// on.  The inputs do not depend on the seed (probe seeds are fixed inside
// the library).
//
// A round is one application (three calls); after its COD call the
// home/COD ratios are compared with tests/golden/fig10_applications.csv
// through the golden comparer's cell rule.
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/golden.h"
#include "machine/system.h"
#include "util/table.h"
#include "workload.h"
#include "workload/apps.h"

namespace perfbench {
namespace {

constexpr std::size_t kModes = 3;  // source, home, COD

class Fig10Apps final : public Workload {
 public:
  explicit Fig10Apps(const Options& options) : options_(options) {}

  void setup(SpanRecorder* /*spans*/) override {
    apps_.clear();
    for (const auto* suite : {&hsw::spec_omp2012(), &hsw::spec_mpi2007()}) {
      for (const hsw::AppProfile& app : *suite) apps_.push_back(&app);
    }
    if (options_.tiny) apps_.resize(2);
    configs_ = {hsw::SystemConfig::source_snoop(),
                hsw::SystemConfig::home_snoop(),
                hsw::SystemConfig::cluster_on_die()};
    load_golden(options_.root + "/tests/golden/fig10_applications.csv");
    runtimes_.assign(apps_.size(), {});
  }

  [[nodiscard]] std::size_t input_count() const override {
    return apps_.size() * kModes;
  }
  [[nodiscard]] std::size_t round_size() const override { return kModes; }
  // Every run completes at least the first two applications.
  [[nodiscard]] std::size_t digest_inputs() const override {
    return std::min<std::size_t>(2 * kModes, input_count());
  }

  UnitResult run_unit(std::size_t index, SpanRecorder* spans) override {
    const std::size_t app = index / kModes;
    const std::size_t mode = index % kModes;
    UnitResult r;
    r.kind = UnitKind::kApp;
    hsw::AppRunResult result;
    {
      ScopedSpan span(spans, "workload.estimate_runtime",
                      static_cast<std::int64_t>(index));
      r.ms = time_ms([&] {
        result = hsw::estimate_runtime(*apps_[app], configs_[mode]);
      });
    }
    r.hash = Digest()
                 .f64(result.runtime)
                 .f64(result.memory_time)
                 .f64(result.sharing_time)
                 .value();
    runtimes_[app][mode] = result.runtime;
    if (spans != nullptr) {
      ++traced_calls_;
      traced_configs_.insert(configs_[mode].describe());
    }
    if (mode + 1 == kModes) {
      ScopedSpan check(spans, "bench.check");
      check_golden(app, r);
    }
    return r;
  }

  WorkloadReport report(std::size_t traced_rounds) override {
    WorkloadReport wr;
    // Input property: calls whose machine configuration an earlier call
    // in the figure already used.
    std::set<std::string> seen;
    std::size_t repeats = 0;
    for (std::size_t i = 0; i < input_count(); ++i) {
      if (!seen.insert(configs_[i % kModes].describe()).second) ++repeats;
    }
    const double share =
        static_cast<double>(repeats) / static_cast<double>(input_count());
    wr.layer["input.repeat_frac"] = share;
    wr.lines.push_back("input property: " + std::to_string(repeats) + "/" +
                       std::to_string(input_count()) +
                       " estimate_runtime calls repeat one of " +
                       std::to_string(seen.size()) + " distinct configs");
    if (traced_rounds > 0) {
      wr.layer["workload.calls"] = static_cast<double>(traced_calls_);
      wr.layer["workload.distinct_configs"] =
          static_cast<double>(traced_configs_.size());
    }
    return wr;
  }

 private:
  void load_golden(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read golden " + path);
    golden_.clear();
    std::string line;
    std::getline(in, line);  // header: suite,app,home_rel,cod_rel
    while (std::getline(in, line)) {
      const std::vector<std::string> cells = hsw::check::split_csv_record(line);
      if (cells.size() == 4) golden_[cells[1]] = {cells[2], cells[3]};
    }
  }

  // The bench's CSV cells (4 decimals) against the golden row, under the
  // golden comparer's default tolerance.
  void check_golden(std::size_t app, UnitResult& r) const {
    const std::string& name = apps_[app]->name;
    const auto it = golden_.find(name);
    if (it == golden_.end()) {
      fail(r, name + ": no row in the Fig. 10 golden");
      return;
    }
    const auto& rt = runtimes_[app];
    const std::string home = hsw::cell(rt[1] / rt[0], 4);
    const std::string cod = hsw::cell(rt[2] / rt[0], 4);
    const hsw::check::GoldenTolerance tolerance;
    if (!hsw::check::cells_match(it->second.first, home, tolerance) ||
        !hsw::check::cells_match(it->second.second, cod, tolerance)) {
      fail(r, name + ": home/COD ratios " + home + "/" + cod +
                  " differ from the golden " + it->second.first + "/" +
                  it->second.second);
    }
  }

  Options options_;
  std::vector<const hsw::AppProfile*> apps_;
  std::vector<hsw::SystemConfig> configs_;
  std::map<std::string, std::pair<std::string, std::string>> golden_;
  std::vector<std::array<double, kModes>> runtimes_;
  std::size_t traced_calls_ = 0;
  std::set<std::string> traced_configs_;
};

}  // namespace

std::unique_ptr<Workload> make_fig10_apps(const Options& options) {
  return std::make_unique<Fig10Apps>(options);
}

}  // namespace perfbench
