// sweep_points: the Fig. 4/5/6 read-latency series plus the Table III
// cells, one fresh System per unit.  It runs as the first half of
// latency_sweep.
//
// Sweep points go through latency_sweep_point (natural level by size, from
// L1 into L3); the Table III L3 and memory cells place explicitly at kL3 /
// kMemory, so DRAM is covered without 64 MiB points.  Host time here is
// dominated by System construction and line placement, which is what the
// System-reuse and bulk-placement work targets.
//
// The traced run replaces each composed call by its parts —
// alloc_on_node -> chase_order -> place_lines -> a System::read loop — and
// checks that the parts reproduce the composed result exactly.
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/latency.h"
#include "core/placement.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "machine/system.h"
#include "util/units.h"
#include "workload.h"

namespace perfbench {
namespace {

using hsw::CacheLevel;
using hsw::Mesif;
using hsw::SnoopMode;

struct Input {
  std::string name;
  hsw::SystemConfig system;
  int reader = 0;
  hsw::Placement placement;  // level kL1L2 = natural (a sweep point)
  std::uint64_t bytes = 0;
  std::uint64_t max_measured = 0;
  // Table III cells only: the paper's latency and the tolerance
  // tests/machine/calibration_test.cpp holds the model to.
  double paper_ns = 0.0;
  double tolerance = 0.0;
};

// The parts of a LatencyResult both paths compute identically.
struct Outcome {
  double mean_ns = 0.0;
  std::uint64_t lines = 0;
  std::array<std::uint64_t, 7> sources{};
  hsw::CounterSet::Snapshot counters{};

  [[nodiscard]] std::uint64_t hash() const {
    return Digest()
        .f64(mean_ns)
        .u64(lines)
        .u64s(sources)
        .u64s(counters)
        .value();
  }
  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const hsw::LatencyResult& r) {
  return {r.mean_ns, r.lines_measured, r.source_counts, r.counters};
}

hsw::Placement placement(int owner, int node, Mesif state,
                         std::vector<int> sharers,
                         CacheLevel level = CacheLevel::kL1L2) {
  return hsw::Placement{.owner_core = owner, .memory_node = node,
                        .state = state, .sharers = std::move(sharers),
                        .level = level};
}

class SweepPoints final : public Workload {
 public:
  explicit SweepPoints(const Options& options) : options_(options) {}

  void setup(SpanRecorder* /*spans*/) override {
    inputs_.clear();
    const std::vector<std::uint64_t> sizes =
        options_.tiny ? std::vector<std::uint64_t>{hsw::kib(16)}
                      : std::vector<std::uint64_t>{hsw::kib(16), hsw::kib(128),
                                                   hsw::mib(1)};
    struct Series {
      const char* name;
      int owner;
      int sharer;
      Mesif state;
    };
    const Series series[] = {
        {"local M", 0, -1, Mesif::kModified},
        {"local E", 0, -1, Mesif::kExclusive},
        {"node M", 1, -1, Mesif::kModified},
        {"node E", 1, -1, Mesif::kExclusive},
        {"node S", 1, 2, Mesif::kShared},
        {"socket2 M", 12, -1, Mesif::kModified},
        {"socket2 E", 12, -1, Mesif::kExclusive},
        {"socket2 S", 12, 13, Mesif::kShared},
    };
    const SnoopMode modes[] = {SnoopMode::kSourceSnoop, SnoopMode::kHomeSnoop,
                               SnoopMode::kCod};
    for (const SnoopMode mode : modes) {
      for (const Series& s : series) {
        if (options_.tiny && s.state == Mesif::kShared) continue;
        for (const std::uint64_t bytes : sizes) {
          Input in;
          in.name = std::string(hsw::snoop_mode_token(mode)) + " " + s.name +
                    " @ " + hsw::format_bytes(bytes);
          in.system = hsw::SystemConfig::for_mode(mode);
          in.placement = placement(
              s.owner, 0, s.state,
              s.sharer >= 0 ? std::vector<int>{s.sharer} : std::vector<int>{});
          in.bytes = bytes;
          in.max_measured = 4096;
          inputs_.push_back(std::move(in));
        }
      }
    }
    add_table3_cells();
    dark_.assign(inputs_.size(), std::nullopt);
  }

  [[nodiscard]] std::size_t input_count() const override {
    return inputs_.size();
  }
  // The four costliest units (Table III memory cells, about 40 ms) are
  // 4.2% of a round, so p95 sat on the edge between them and the next class
  // (about 25 ms) and moved by 1.6x between runs.  Eleven rounds (1045
  // samples) make the tail p99, inside that top class.
  [[nodiscard]] std::size_t tail_rounds() const override {
    return options_.tiny ? 1 : 11;
  }

  UnitResult run_unit(std::size_t index, SpanRecorder* spans) override {
    const Input& in = inputs_[index];
    UnitResult r;
    Outcome out;
    if (spans == nullptr) {
      r.ms = time_ms([&] { out = composed(in); });
    } else {
      ScopedSpan unit(spans, "bench.unit", static_cast<std::int64_t>(index));
      out = decomposed(in, spans);
      ScopedSpan check(spans, "bench.check");
      // The split must reproduce the composed call on every point.
      if (dark_[index] && !(*dark_[index] == out)) {
        fail(r, in.name + ": placement/read split differs from the composed "
                          "call");
      }
    }
    if (spans == nullptr) dark_[index] = out;
    r.hash = out.hash();
    if (in.paper_ns > 0.0) {
      const double err = std::abs(out.mean_ns - in.paper_ns) / in.paper_ns;
      if (err > in.tolerance) {
        char msg[160];
        std::snprintf(msg, sizeof msg,
                      "%s: %.1f ns vs paper %.1f ns (tolerance %.0f%%)",
                      in.name.c_str(), out.mean_ns, in.paper_ns,
                      in.tolerance * 100.0);
        fail(r, msg);
      }
    }
    if (spans != nullptr) {
      tally.add(out.counters);
      tally.add_sources(out.sources);
    }
    return r;
  }

  WorkloadReport report(std::size_t /*traced_rounds*/) override {
    WorkloadReport wr;
    // Serving level of each unit (its dominant service source).
    std::array<double, 4> levels{};
    double err_sum = 0.0;
    int cells = 0;
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      if (!dark_[i]) continue;
      const auto& src = dark_[i]->sources;
      std::size_t best = 0;
      for (std::size_t s = 1; s < src.size(); ++s) {
        if (src[s] > src[best]) best = s;
      }
      // L1, L2, L3 (incl. core and remote forwards), DRAM.
      const std::size_t level = best <= 1 ? best : best <= 4 ? 2 : 3;
      levels[level] += 1.0;
      if (inputs_[i].paper_ns > 0.0) {
        err_sum += std::abs(dark_[i]->mean_ns - inputs_[i].paper_ns) /
                   inputs_[i].paper_ns;
        ++cells;
      }
    }
    double total = 0.0;
    for (const double n : levels) total += n;
    const char* names[] = {"l1", "l2", "l3", "dram"};
    std::string line = "input property: units by serving level of " +
                       std::to_string(static_cast<int>(total)) + ":";
    for (std::size_t l = 0; l < levels.size(); ++l) {
      wr.layer[std::string("input.level_") + names[l] + "_frac"] =
          total > 0 ? levels[l] / total : 0.0;
      line += std::string(" ") + names[l] + " " +
              std::to_string(static_cast<int>(levels[l]));
    }
    wr.lines.push_back(line);
    const double paper_err = cells ? err_sum / cells * 100.0 : 0.0;
    wr.layer["calib.paper_err_pct"] = paper_err;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "paper_err_pct %.3f over %d Table III cells (calibration "
                  "error: the model is fitted to these numbers)",
                  paper_err, cells);
    wr.lines.push_back(buf);
    return wr;
  }

 private:
  // Table III L3 and memory rows across source / home / COD, with the
  // paper values and tolerances of tests/machine/calibration_test.cpp.
  void add_table3_cells() {
    auto cell = [&](const char* name, SnoopMode mode, int reader, int owner,
                    int node, Mesif state, CacheLevel level, double paper,
                    double tolerance) {
      Input in;
      in.name = std::string("Table III ") + hsw::snoop_mode_token(mode) + " " +
                name;
      in.system = hsw::SystemConfig::for_mode(mode);
      in.reader = reader;
      in.placement = placement(owner, node, state, {}, level);
      const bool memory = level == CacheLevel::kMemory;
      in.bytes = options_.tiny ? (memory ? hsw::mib(1) : hsw::kib(16))
                               : (memory ? hsw::mib(4) : hsw::kib(64));
      in.max_measured = 4096;
      in.paper_ns = paper;
      in.tolerance = tolerance;
      inputs_.push_back(std::move(in));
    };
    const SnoopMode src = SnoopMode::kSourceSnoop;
    const SnoopMode home = SnoopMode::kHomeSnoop;
    const SnoopMode cod = SnoopMode::kCod;
    const Mesif M = Mesif::kModified;
    const Mesif E = Mesif::kExclusive;
    const CacheLevel L3 = CacheLevel::kL3;
    const CacheLevel mem = CacheLevel::kMemory;
    cell("local L3", src, 0, 0, 0, M, L3, 21.2, 0.03);
    cell("memory node0", src, 0, 0, 0, M, mem, 96.4, 0.04);
    if (options_.tiny) return;
    cell("node E L3", src, 0, 2, 0, E, L3, 44.4, 0.03);
    cell("socket2 M L3", src, 0, 12, 1, M, L3, 86.0, 0.03);
    cell("socket2 E L3", src, 0, 12, 1, E, L3, 104.0, 0.03);
    cell("memory node1", src, 0, 0, 1, M, mem, 146.0, 0.04);
    cell("socket2 E L3", home, 0, 12, 1, E, L3, 115.0, 0.05);
    cell("memory node0", home, 0, 0, 0, M, mem, 108.0, 0.05);
    cell("memory node1", home, 0, 0, 1, M, mem, 148.0, 0.05);
    cell("local L3 node0", cod, 0, 1, 0, M, L3, 18.0, 0.06);
    cell("local L3 node1 ring0", cod, 6, 7, 1, M, L3, 20.0, 0.06);
    cell("local L3 node1 ring1", cod, 8, 9, 1, M, L3, 18.4, 0.06);
    // Owners are the first core of each node (6, 12, 18 in COD).
    cell("node1 M L3", cod, 0, 6, 1, M, L3, 57.2, 0.12);
    cell("node1 E L3", cod, 0, 6, 1, E, L3, 73.6, 0.12);
    cell("node2 M L3", cod, 0, 12, 2, M, L3, 90.0, 0.08);
    cell("node2 E L3", cod, 0, 12, 2, E, L3, 104.0, 0.10);
    cell("node3 M L3", cod, 0, 18, 3, M, L3, 96.0, 0.16);
    cell("node3 E L3", cod, 0, 18, 3, E, L3, 111.0, 0.16);
    cell("memory node0", cod, 0, 0, 0, M, mem, 89.6, 0.07);
    cell("memory node1", cod, 0, 0, 1, M, mem, 96.0, 0.07);
    cell("memory node2", cod, 0, 0, 2, M, mem, 141.0, 0.07);
    cell("memory node3", cod, 0, 0, 3, M, mem, 147.0, 0.07);
    cell("memory node3 from core 6", cod, 6, 6, 3, M, mem, 153.0, 0.07);
  }

  [[nodiscard]] hsw::LatencyConfig latency_config(const Input& in) const {
    hsw::LatencyConfig lc;
    lc.reader_core = in.reader;
    lc.placement = in.placement;
    lc.buffer_bytes = in.bytes;
    lc.max_measured_lines = in.max_measured;
    lc.seed = options_.seed;
    return lc;
  }

  // The public composed call: one latency_sweep_point, or measure_latency
  // on a fresh System for an explicit-level cell.
  [[nodiscard]] Outcome composed(const Input& in) const {
    if (in.paper_ns > 0.0) {
      hsw::System system(in.system);
      return outcome_of(hsw::measure_latency(system, latency_config(in)));
    }
    hsw::LatencySweepConfig sc;
    sc.system = in.system;
    sc.reader_core = in.reader;
    sc.placement = in.placement;
    sc.sizes = {in.bytes};
    sc.max_measured_lines = in.max_measured;
    sc.seed = options_.seed;
    return outcome_of(hsw::latency_sweep_point(sc, in.bytes).result);
  }

  // The same measurement as measure_latency, one public call per span.
  Outcome decomposed(const Input& in, SpanRecorder* spans) const {
    const hsw::LatencyConfig lc = latency_config(in);
    SpannedSystem system(spans, in.system);
    hsw::MemRegion region;
    {
      ScopedSpan span(spans, "machine.alloc_on_node");
      region = system->alloc_on_node(lc.placement.memory_node, lc.buffer_bytes);
    }
    std::vector<hsw::LineAddr> order;
    {
      ScopedSpan span(spans, "core.chase_order");
      order = hsw::chase_order(region, lc.seed);
    }
    {
      ScopedSpan span(spans, "core.place_lines");
      hsw::place_lines(*system, order, lc.placement);
      span.set_count(order.size());
    }
    Outcome out;
    {
      ScopedSpan span(spans, "coh.read_loop");
      const std::uint64_t measured =
          std::min<std::uint64_t>(order.size(), lc.max_measured_lines);
      const hsw::CounterSet::Snapshot before = system->counters().snapshot();
      double total = 0.0;
      for (std::uint64_t i = 0; i < measured; ++i) {
        const hsw::AccessResult access =
            system->read(lc.reader_core, hsw::addr_of(order[i]));
        total += access.ns;
        ++out.sources[static_cast<std::size_t>(access.source)];
      }
      out.counters = system->counters().diff(before);
      out.lines = measured;
      out.mean_ns = measured ? total / static_cast<double>(measured) : 0.0;
      span.set_count(measured);
    }
    return out;
  }

  Options options_;
  std::vector<Input> inputs_;
  // Untraced result per input: the reference the traced split must match.
  std::vector<std::optional<Outcome>> dark_;
};

}  // namespace

std::unique_ptr<Workload> make_sweep_points(const Options& options) {
  return std::make_unique<SweepPoints>(options);
}

}  // namespace perfbench
