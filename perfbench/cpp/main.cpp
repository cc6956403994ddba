// hswsim_perfbench: host-cost benchmark of the simulator.
//
//   hswsim_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--tiny] [--root DIR] [--work-dir DIR]
//
// Runs one workload for about S seconds of rounds and prints, as the last
// line, {"correct", "attempted", "failed", "metrics"}.  The untraced run
// (--trace 0) reports the end-to-end metrics; the traced run (--trace 1)
// alternates dark and span-recorded rounds over the same inputs and reports
// the per-layer metrics.  Exit status is 0 only when every output check
// passed.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "coh/engine.h"
#include "harness.h"
#include "workload.h"

namespace perfbench {
namespace {

// setup_s is a median of set-ups spread over the whole run: the host's
// speed drifts by up to 1.7x over seconds, so set-ups bunched at the start
// of a run would time the host of that moment.  Two spare set-ups warm the
// code paths, then the rounds' own set-up runs, then kSetupsPerRound spare
// ones after every untraced round.
constexpr int kWarmSetups = 2;
constexpr int kSetupsPerRound = 3;
// bench.unaccounted_pct above this fails the traced run: the spans no
// longer explain the traced wall time.
constexpr double kUnaccountedTolerancePct = 5.0;

const char* const kEndToEnd[][2] = {
    {"setup_s", "s"},     {"wall_s", "s"},         {"cpu_s", "s"},
    {"peak_rss_mb", "MB"}, {"unit_ms_p50", "ms"}, {"unit_ms_tail", "ms"},
};

const char* const kPerLayer[][2] = {
    {"machine.construct_ms", "ms"},
    {"machine.constructs", "count"},
    {"machine.minflt_per_construct", "count"},
    {"core.place_ns_per_line", "ns"},
    {"core.lines_placed", "count"},
    {"core.place_share", "frac"},
    {"core.chase_order_ms", "ms"},
    {"core.measure_bandwidth_ms", "ms"},
    {"coh.read_ns_per_op", "ns"},
    {"coh.ops_measured", "count"},
    {"coh.snoops_sent", "count"},
    {"coh.snoop_broadcasts", "count"},
    {"coh.dram_reads", "count"},
    {"coh.dram_writes", "count"},
    {"coh.qpi_data_flits", "count"},
    {"coh.hitme_hit_frac", "frac"},
    {"mem.l3_evictions", "count"},
    {"coh.src_l1_frac", "frac"},
    {"coh.src_l2_frac", "frac"},
    {"coh.src_l3_frac", "frac"},
    {"coh.src_local_dram_frac", "frac"},
    {"coh.src_remote_dram_frac", "frac"},
    {"coh.src_remote_fwd_frac", "frac"},
    {"exec.closed_loop_ms", "ms"},
    {"exec.replay_ns_per_access", "ns"},
    {"exec.accesses", "count"},
    {"workload.estimate_ms", "ms"},
    {"workload.calls", "count"},
    {"workload.distinct_configs", "count"},
    {"workload.make_trace_ms", "ms"},
    {"obs.tracer_overhead_pct", "%"},
    {"obs.metrics_overhead_pct", "%"},
    {"obs.linestats_overhead_pct", "%"},
    {"obs.export_ms", "ms"},
    {"serve.run_experiment_ms", "ms"},
    {"serve.hit_frac", "frac"},
    {"serve.cache_bytes", "bytes"},
    {"serve.hit_ms_p50", "ms"},
    {"serve.hit_ms_tail", "ms"},
    {"util.spec_parse_us", "us"},
    {"calib.paper_err_pct", "%"},
    {"input.repeat_frac", "frac"},
    {"input.level_l1_frac", "frac"},
    {"input.level_l2_frac", "frac"},
    {"input.level_l3_frac", "frac"},
    {"input.level_dram_frac", "frac"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.unaccounted_pct", "%"},
};

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "latency_sweep") return make_latency_sweep(options);
  if (options.workload == "bandwidth_sim") return make_bandwidth_sim(options);
  if (options.workload == "contention") return make_contention(options);
  if (options.workload == "serve_mixed") return make_serve_mixed(options);
  return nullptr;
}

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    std::optional<std::string> v;
    if (arg == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (!(v = value())) return std::nullopt;
    try {
      if (arg == "--workload") {
        o.workload = *v;
        have_workload = true;
      } else if (arg == "--seed") {
        o.seed = std::stoull(*v);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(*v);
      } else if (arg == "--trace") {
        if (*v != "0" && *v != "1") return std::nullopt;
        o.trace = *v == "1";
      } else if (arg == "--root") {
        o.root = *v;
      } else if (arg == "--work-dir") {
        o.work_dir = *v;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (!have_workload || o.seconds <= 0.0) return std::nullopt;
  return o;
}

// Per-input output hashes; any rerun of an input must reproduce its first
// hash (traced and untraced alike).
struct HashBook {
  std::vector<std::optional<std::uint64_t>> first;

  bool record(std::size_t input, std::uint64_t hash) {
    if (!first[input]) {
      first[input] = hash;
      return true;
    }
    return *first[input] == hash;
  }
  [[nodiscard]] std::optional<std::uint64_t> digest(std::size_t prefix) const {
    Digest d;
    for (std::size_t i = 0; i < prefix; ++i) {
      if (!first[i]) return std::nullopt;
      d.u64(i).u64(*first[i]);
    }
    return d.value();
  }
};

struct RoundStats {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

std::vector<double> walls_of(const std::vector<RoundStats>& rounds) {
  std::vector<double> out;
  for (const RoundStats& r : rounds) out.push_back(r.wall_s);
  return out;
}

// Per-layer values derived from the traced rounds' spans and the setup's.
std::map<std::string, double> span_metrics(const SpanRecorder& recorder,
                                           const SpanRecorder& setup,
                                           double rounds, double traced_wall) {
  const auto totals = totals_by_name(recorder);
  const auto get = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  const auto per_span_ms = [&](const char* name) {
    const SpanTotals t = get(name);
    return t.spans ? t.total_s * 1e3 / static_cast<double>(t.spans) : 0.0;
  };
  const auto per_count_ns = [&](const char* name) {
    const SpanTotals t = get(name);
    return t.count ? t.total_s * 1e9 / static_cast<double>(t.count) : 0.0;
  };
  const auto per_round = [&](double value) { return value / rounds; };

  std::map<std::string, double> v;
  const SpanTotals construct = get("machine.construct");
  const SpanTotals destroy = get("machine.destroy");
  v["machine.construct_ms"] = per_span_ms("machine.construct");
  v["machine.constructs"] = per_round(static_cast<double>(construct.spans));
  v["machine.minflt_per_construct"] =
      destroy.spans ? static_cast<double>(destroy.aux) /
                          static_cast<double>(destroy.spans)
                    : 0.0;
  const SpanTotals place = get("core.place_lines");
  v["core.place_ns_per_line"] = per_count_ns("core.place_lines");
  v["core.lines_placed"] = per_round(static_cast<double>(place.count));
  v["core.place_share"] = place.total_s / traced_wall;
  v["core.chase_order_ms"] = per_round(get("core.chase_order").total_s * 1e3);
  v["core.measure_bandwidth_ms"] = per_span_ms("core.measure_bandwidth");
  v["coh.read_ns_per_op"] = per_count_ns("coh.read_loop");
  v["coh.ops_measured"] =
      per_round(static_cast<double>(get("coh.read_loop").count));
  v["exec.replay_ns_per_access"] = per_count_ns("exec.replay_concurrent");
  v["exec.accesses"] =
      per_round(static_cast<double>(get("exec.replay_concurrent").count));
  v["workload.estimate_ms"] = per_span_ms("workload.estimate_runtime");
  const auto setup_totals = totals_by_name(setup);
  if (const auto it = setup_totals.find("workload.make_trace");
      it != setup_totals.end()) {
    v["workload.make_trace_ms"] = it->second.total_s * 1e3;
  }
  v["obs.export_ms"] = per_span_ms("obs.export");
  v["serve.run_experiment_ms"] = per_span_ms("serve.run_experiment");
  const SpanTotals parse = get("util.spec_from_json");
  if (parse.spans) {
    v["util.spec_parse_us"] =
        (parse.total_s + get("util.experiment_cache_key").total_s) * 1e6 /
        static_cast<double>(parse.spans);
  }
  return v;
}

// Exact simulated counts per traced round.
void add_tally_metrics(const SimTally& tally, double rounds,
                       std::map<std::string, double>& v) {
  const auto ctr = [&](hsw::Ctr which) {
    const std::uint64_t n = tally.counters[static_cast<std::size_t>(which)];
    return static_cast<double>(n) / rounds;
  };
  v["coh.snoops_sent"] = ctr(hsw::Ctr::kSnoopsSent);
  v["coh.snoop_broadcasts"] = ctr(hsw::Ctr::kSnoopBroadcasts);
  v["coh.dram_reads"] = ctr(hsw::Ctr::kDramReads);
  v["coh.dram_writes"] = ctr(hsw::Ctr::kDramWrites);
  v["coh.qpi_data_flits"] = ctr(hsw::Ctr::kQpiDataFlits);
  v["mem.l3_evictions"] = ctr(hsw::Ctr::kL3Evictions);
  const double hitme = ctr(hsw::Ctr::kHitmeHit) + ctr(hsw::Ctr::kHitmeMiss);
  v["coh.hitme_hit_frac"] = hitme > 0 ? ctr(hsw::Ctr::kHitmeHit) / hitme : 0.0;
  double accesses = 0;
  for (const std::uint64_t n : tally.sources) {
    accesses += static_cast<double>(n);
  }
  const auto frac = [&](std::initializer_list<hsw::ServiceSource> sources) {
    double n = 0;
    for (const hsw::ServiceSource s : sources) {
      n += static_cast<double>(tally.sources[static_cast<std::size_t>(s)]);
    }
    return accesses > 0 ? n / accesses : 0.0;
  };
  using S = hsw::ServiceSource;
  v["coh.src_l1_frac"] = frac({S::kL1});
  v["coh.src_l2_frac"] = frac({S::kL2});
  // In-node core forwards are L3-level service.
  v["coh.src_l3_frac"] = frac({S::kL3, S::kCoreFwd});
  v["coh.src_remote_fwd_frac"] = frac({S::kRemoteFwd});
  v["coh.src_local_dram_frac"] = frac({S::kLocalDram});
  v["coh.src_remote_dram_frac"] = frac({S::kRemoteDram});
}

int run(const Options& options) {
  std::filesystem::create_directories(options.work_dir);
  SpanRecorder recorder;
  SpanRecorder* const spans = options.trace ? &recorder : nullptr;
  // Setup spans live apart from the rounds' so layer accounting covers the
  // traced rounds only.
  SpanRecorder setup_recorder;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  const auto record_failure = [&](const std::string& error) {
    ++failed;
    if (first_error.empty()) first_error = error;
    if (failed <= 10) std::fprintf(stderr, "FAILED: %s\n", error.c_str());
  };

  // --- setup (median of many, spread over the run) -------------------------
  std::vector<double> setups;
  const auto timed_setup = [&](const Options& o, SpanRecorder* rec) {
    const double start = now_s();
    std::unique_ptr<Workload> w = make_workload(o);
    if (w) w->setup(rec);
    setups.push_back(now_s() - start);
    return w;
  };
  // Spare set-ups get a work directory of their own, so they never touch
  // the files of the workload the rounds use.
  Options spare = options;
  spare.work_dir = options.work_dir + "/spare-setup";
  std::filesystem::create_directories(spare.work_dir);
  for (int i = 0; i < kWarmSetups; ++i) timed_setup(spare, nullptr);
  // Only this set-up's spans are kept: its state is what the rounds use.
  const std::unique_ptr<Workload> workload =
      timed_setup(options, spans != nullptr ? &setup_recorder : nullptr);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }

  const std::size_t inputs = workload->input_count();
  const std::size_t round_size = workload->round_size();
  const std::size_t digest_prefix = workload->digest_inputs();
  const std::size_t tail_rounds =
      std::max<std::size_t>(workload->tail_rounds(), 1);
  HashBook dark_hashes{std::vector<std::optional<std::uint64_t>>(inputs)};
  HashBook traced_hashes{std::vector<std::optional<std::uint64_t>>(inputs)};
  std::vector<double> unit_ms;
  std::vector<double> hit_ms;
  std::vector<double> app_ms;
  Tail unit_tail;
  Tail hit_tail;
  std::vector<RoundStats> dark_rounds;
  std::vector<RoundStats> traced_rounds;
  std::vector<std::size_t> round_roots;

  auto run_round = [&](std::size_t first_input, SpanRecorder* rec) {
    std::optional<ScopedSpan> root;
    if (rec != nullptr) {
      round_roots.push_back(rec->spans().size());
      root.emplace(rec, "bench.round");
    }
    const Usage before = usage_now();
    const double start = now_s();
    workload->begin_round(rec);
    for (std::size_t k = 0; k < round_size; ++k) {
      const std::size_t input = (first_input + k) % inputs;
      UnitResult r;
      try {
        r = workload->run_unit(input, rec);
      } catch (const std::exception& e) {
        fail(r, std::string("exception: ") + e.what());
      }
      HashBook& book = rec != nullptr ? traced_hashes : dark_hashes;
      if (r.ok && !book.record(input, r.hash)) {
        fail(r, "input " + std::to_string(input) +
                    " produced a different output hash on a rerun");
      }
      if (r.ok && rec != nullptr && dark_hashes.first[input] != r.hash) {
        fail(r, "input " + std::to_string(input) +
                    ": traced output hash differs from the untraced one");
      }
      ++attempted;
      if (!r.ok) record_failure(r.error);
      if (rec == nullptr) {
        (r.kind == UnitKind::kHit   ? hit_ms
         : r.kind == UnitKind::kApp ? app_ms
                                    : unit_ms)
            .push_back(r.ms);
      }
    }
    if (const std::string error = workload->end_round(rec); !error.empty()) {
      record_failure(error);
    }
    const double wall = now_s() - start;
    const Usage after = usage_now();
    root.reset();
    (rec != nullptr ? traced_rounds : dark_rounds)
        .push_back({wall, after.cpu_s - before.cpu_s});
  };

  // --- timed rounds --------------------------------------------------------
  const double start = now_s();
  for (std::size_t next_input = 0;; next_input += round_size) {
    run_round(next_input, nullptr);
    if (spans == nullptr) {
      for (int i = 0; i < kSetupsPerRound; ++i) timed_setup(spare, nullptr);
    } else {
      run_round(next_input, spans);
    }
    if (dark_rounds.size() == tail_rounds) {
      unit_tail = tail_of(unit_ms);
      hit_tail = tail_of(hit_ms);
    }
    // The traced run reports no unit tail, so it needs no tail window.
    const bool tail_done =
        spans != nullptr || dark_rounds.size() >= tail_rounds;
    if (next_input + round_size >= digest_prefix && tail_done &&
        now_s() - start >= options.seconds) {
      break;
    }
  }

  // --- digest --------------------------------------------------------------
  const std::optional<std::uint64_t> digest = dark_hashes.digest(digest_prefix);
  std::printf("digest %s (inputs 0..%zu of %zu)\n",
              digest ? hex64(*digest).c_str() : "incomplete", digest_prefix,
              inputs);
  if (!digest) record_failure("digest prefix incomplete");
  if (spans != nullptr) {
    const std::optional<std::uint64_t> traced =
        traced_hashes.digest(digest_prefix);
    std::printf("digest_traced %s\n",
                traced ? hex64(*traced).c_str() : "incomplete");
    if (traced != digest) record_failure("traced digest differs");
  }

  const WorkloadReport wr = workload->report(traced_rounds.size());
  for (const std::string& line : wr.lines) std::printf("%s\n", line.c_str());

  Metrics metrics;
  if (spans == nullptr) {
    std::vector<double> cpus;
    for (const RoundStats& r : dark_rounds) cpus.push_back(r.cpu_s);
    const std::vector<double> walls = walls_of(dark_rounds);
    const auto [fastest, slowest] =
        std::minmax_element(walls.begin(), walls.end());
    std::printf("round wall_s: min %.4f median %.4f max %.4f over %zu rounds\n",
                *fastest, median(walls), *slowest, walls.size());
    // Every round runs the same inputs, so the percentile fixed on the
    // window keeps its place among the unit classes over all rounds.
    unit_tail.value = percentile(unit_ms, unit_tail.percentile / 100.0);
    hit_tail.value = percentile(hit_ms, hit_tail.percentile / 100.0);
    std::printf("units %zu, unit_ms_tail = p%g over %zu samples (percentile "
                "fixed on the %zu samples of the first %zu rounds)\n",
                unit_ms.size(), unit_tail.percentile, unit_ms.size(),
                unit_tail.samples, tail_rounds);
    if (!hit_ms.empty()) {
      std::printf("cache-served requests: hit_ms_p50 %.4f, hit_ms_tail %.4f "
                  "(p%g over %zu samples)\n",
                  median(hit_ms), hit_tail.value, hit_tail.percentile,
                  hit_tail.samples);
    }
    if (!app_ms.empty()) {
      std::printf("estimate_runtime calls: app_ms_p50 %.4f over %zu calls\n",
                  median(app_ms), app_ms.size());
    }
    const double values[] = {median(setups),  median(walls),
                             median(cpus),    usage_now().max_rss_mb,
                             median(unit_ms), unit_tail.value};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.push_back({kEndToEnd[i][0], {values[i], kEndToEnd[i][1]}});
    }
  } else {
    const double rounds = static_cast<double>(traced_rounds.size());
    const std::vector<double> traced_walls = walls_of(traced_rounds);
    double traced_wall = 0.0;
    for (const double w : traced_walls) traced_wall += w;
    std::map<std::string, double> v =
        span_metrics(recorder, setup_recorder, rounds, traced_wall);
    add_tally_metrics(workload->tally, rounds, v);

    // Traced rounds also do measurement-only work (bench.extra spans:
    // observer-alone replays, the analytic twin of a bandwidth point, direct
    // run_experiment calls); the overhead compares the rest.
    const auto totals = totals_by_name(recorder);
    const auto extra = totals.find("bench.extra");
    const double extra_per_round =
        extra == totals.end() ? 0.0 : extra->second.total_s / rounds;
    v["bench.trace_overhead_pct"] =
        ((median(traced_walls) - extra_per_round) /
             median(walls_of(dark_rounds)) -
         1.0) *
        100.0;
    // Layer accounting: self time by layer (the span-name prefix); the
    // round roots' own self time is what no span explains.
    const std::vector<double> self = recorder.self_times();
    double root_self = 0.0;
    for (const std::size_t root : round_roots) root_self += self[root];
    v["bench.unaccounted_pct"] = root_self / traced_wall * 100.0;
    std::map<std::string, double> layer_self;
    for (const auto& [name, t] : totals) {
      if (name != "bench.round") {
        layer_self[name.substr(0, name.find('.'))] += t.self_s;
      }
    }
    std::printf("layer self time over %zu traced rounds:",
                traced_rounds.size());
    for (const auto& [layer, s] : layer_self) {
      std::printf(" %s %.1f%%", layer.c_str(), s / traced_wall * 100.0);
    }
    std::printf(" (unaccounted %.3f%%, trace overhead %+.1f%%)\n",
                v["bench.unaccounted_pct"], v["bench.trace_overhead_pct"]);
    if (v["bench.unaccounted_pct"] > kUnaccountedTolerancePct) {
      record_failure("span self times do not add up to the traced wall");
    }

    if (!hit_ms.empty()) {
      v["serve.hit_ms_p50"] = median(hit_ms);
      v["serve.hit_ms_tail"] = tail_of(hit_ms).value;
    }
    for (const auto& [name, value] : wr.layer) v[name] = value;
    for (const auto& m : kPerLayer) {
      metrics.push_back({m[0], {v.count(m[0]) ? v[m[0]] : 0.0, m[1]}});
    }
    const std::string dump = options.work_dir + "/spans-" + options.workload +
                             "-" + std::to_string(options.seed) + ".csv";
    if (recorder.write_csv(dump)) {
      std::printf("spans written to %s\n", dump.c_str());
    }
  }

  std::printf("failed_frac %.6f (%llu failures over %llu units)%s%s\n",
              static_cast<double>(failed) /
                  static_cast<double>(std::max<std::uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              first_error.empty() ? "" : "; first: ", first_error.c_str());
  const bool correct = failed == 0;
  std::printf("%s\n", result_json(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Keep freed heap pages.  Under glibc's default policy (heap-top trimming,
  // an mmap threshold that adapts as chunks are freed) whether a fresh
  // System re-faults its ~19 MB of pages or reuses freed ones flips after an
  // unpredictable number of constructions: 0 vs ~4800 minor faults, and 4x
  // the host time of a small latency point, from one run to the next.
  // Pinned thresholds make every run do the same host work; page faults
  // then show in the first round and in machine.minflt_per_construct.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const std::optional<perfbench::Options> options =
      perfbench::parse(argc, argv);
  if (!options) {
    std::fprintf(stderr,
                 "usage: hswsim_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--root DIR] [--work-dir DIR]\n");
    return 2;
  }
  try {
    return perfbench::run(*options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
