// serve_mixed: a closed-loop client submitting batches of latency and
// bandwidth specs to an in-process serve::Server with a fresh on-disk
// result cache per round.  The server runs with jobs = 1 (specs run inline
// on the client's call): with two pool workers the fork-join latency of a
// request depended on a second host CPU being free at the same moment,
// and moved by up to 2x between runs on a shared host.
//
// A fixed share of the requests exactly repeats an earlier request of the
// round, so the two regimes are reported apart: novel requests (simulated
// on the pool; unit_ms_*) and repeats served entirely from the cache
// (serve.hit_ms_*).  This is the only workload through the result cache
// and the server's JSON parsing.
//
// Checks: no error events; novel specs miss and repeated specs hit; a
// cached payload is byte-identical to the fresh one; the cache's hit count
// equals the designed repeat count.  The traced run also parses each spec
// and calls run_experiment directly, whose payload must be byte-equal to
// what the server returned.
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "serve/runner.h"
#include "serve/server.h"
#include "util/units.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr std::size_t kSpecsPerRequest = 4;
constexpr std::size_t kNovelRequests = 6;
// Every third request repeats an earlier novel request of the round.
constexpr std::size_t kRepeatEvery = 3;

struct Request {
  std::string line;               // the NDJSON submit request
  std::vector<std::string> specs;  // canonical spec documents
  std::optional<std::size_t> repeats;  // slot of the request it repeats
};

// The payload is the last field of a result event (the same extraction
// hswsim-submit --payload-dir uses).
std::optional<std::string> payload_of(const std::string& event) {
  const std::size_t at = event.find("\"payload\":");
  if (at == std::string::npos || event.empty() || event.back() != '}') {
    return std::nullopt;
  }
  return event.substr(at + 10, event.size() - (at + 10) - 1);
}

std::optional<std::string> key_of(const std::string& event) {
  const std::size_t at = event.find("\"key\":\"");
  if (at == std::string::npos) return std::nullopt;
  const std::size_t end = event.find('"', at + 7);
  if (end == std::string::npos) return std::nullopt;
  return event.substr(at + 7, end - (at + 7));
}

class ServeMixed final : public Workload {
 public:
  explicit ServeMixed(const Options& options)
      : options_(options),
        cache_dir_(options.work_dir + "/serve-cache-" +
                   std::to_string(options.seed)) {}

  ~ServeMixed() override {
    server_.reset();
    std::error_code ignored;
    std::filesystem::remove_all(cache_dir_, ignored);
  }

  void setup(SpanRecorder* /*spans*/) override {
    requests_.clear();
    const std::size_t novel = options_.tiny ? 2 : kNovelRequests;
    const std::size_t slots = novel + novel / (kRepeatEvery - 1);
    std::size_t issued = 0;
    std::uint64_t mix = options_.seed;
    while (requests_.size() < slots) {
      if (requests_.size() % kRepeatEvery == kRepeatEvery - 1) {
        // Repeat a seed-chosen earlier novel request of the round.
        mix = mix * 6364136223846793005ull + 1442695040888963407ull;
        std::vector<std::size_t> novel_slots;
        for (std::size_t s = 0; s < requests_.size(); ++s) {
          if (!requests_[s].repeats) novel_slots.push_back(s);
        }
        const std::size_t target =
            novel_slots[(mix >> 33) % novel_slots.size()];
        Request repeat = requests_[target];
        repeat.repeats = target;
        requests_.push_back(std::move(repeat));
        continue;
      }
      requests_.push_back(novel_request(issued++));
    }
    open_server();
    fresh_server_ = true;
    results_.assign(requests_.size(), {});
  }

  [[nodiscard]] std::size_t input_count() const override {
    return requests_.size();
  }
  [[nodiscard]] std::size_t tail_rounds() const override {
    return options_.tiny ? 1 : 40;
  }

  void begin_round(SpanRecorder* /*spans*/) override {
    // A fresh cache every round, so every round sees the same hits.
    if (!fresh_server_) open_server();
    fresh_server_ = false;
  }

  UnitResult run_unit(std::size_t index, SpanRecorder* spans) override {
    const Request& request = requests_[index];
    UnitResult r;
    r.kind = request.repeats ? UnitKind::kHit : UnitKind::kUnit;
    std::vector<std::string> events;
    {
      ScopedSpan span(spans, "serve.handle_request",
                      static_cast<std::int64_t>(index));
      r.ms = time_ms([&] {
        server_->handle_request(request.line, [&](const std::string& event) {
          events.push_back(event);
        });
      });
    }
    ScopedSpan check(spans, "bench.check");
    std::vector<std::string>& payloads = results_[index];
    payloads.clear();
    Digest d;
    for (const std::string& event : events) {
      if (event.find("\"event\":\"error\"") != std::string::npos) {
        fail(r, "server error: " + event);
      }
      if (event.find("\"event\":\"result\"") == std::string::npos) continue;
      const bool cached = event.find("\"cached\":true") != std::string::npos;
      if (cached != request.repeats.has_value()) {
        fail(r, "request " + std::to_string(index) + ": a " +
                    (request.repeats ? "repeated" : "novel") + " spec was " +
                    (cached ? "served from the cache" : "simulated"));
      }
      const std::optional<std::string> payload = payload_of(event);
      const std::optional<std::string> key = key_of(event);
      if (!payload || !key) {
        fail(r, "malformed result event: " + event);
        continue;
      }
      d.str(*key).str(*payload);
      payloads.push_back(*payload);
    }
    if (payloads.size() != request.specs.size()) {
      fail(r, "request " + std::to_string(index) + ": " +
                  std::to_string(payloads.size()) + " results for " +
                  std::to_string(request.specs.size()) + " specs");
    } else if (request.repeats && payloads != results_[*request.repeats]) {
      fail(r, "request " + std::to_string(index) +
                  ": cached payloads differ from the fresh ones");
    }
    r.hash = d.value();
    check.end();
    if (spans != nullptr && !request.repeats && r.ok) {
      direct_runs(request, r, spans);
    }
    return r;
  }

  std::string end_round(SpanRecorder* spans) override {
    ScopedSpan check(spans, "bench.check");
    const std::uint64_t designed = repeat_count() * kSpecsPerRequest;
    hsw::serve::ResultCache& cache = server_->cache();
    hits_ = cache.hits();
    misses_ = cache.misses();
    cache_bytes_ = cache.bytes();
    if (hits_ != designed) {
      return "cache hits " + std::to_string(hits_) +
             " != designed repeat count " + std::to_string(designed);
    }
    return {};
  }

  WorkloadReport report(std::size_t /*traced_rounds*/) override {
    WorkloadReport wr;
    const std::size_t repeats = repeat_count();
    const double share =
        static_cast<double>(repeats) / static_cast<double>(requests_.size());
    wr.layer["input.repeat_frac"] = share;
    wr.layer["serve.hit_frac"] =
        hits_ + misses_ ? static_cast<double>(hits_) /
                              static_cast<double>(hits_ + misses_)
                        : 0.0;
    wr.layer["serve.cache_bytes"] = static_cast<double>(cache_bytes_);
    wr.lines.push_back(
        "input property: " + std::to_string(repeats) + "/" +
        std::to_string(requests_.size()) +
        " requests per round exactly repeat an earlier one (" +
        std::to_string(kSpecsPerRequest) + " specs each); cache hits " +
        std::to_string(hits_) + ", misses " + std::to_string(misses_));
    return wr;
  }

 private:
  [[nodiscard]] std::size_t repeat_count() const {
    std::size_t repeats = 0;
    for (const Request& request : requests_) {
      if (request.repeats) ++repeats;
    }
    return repeats;
  }

  // Request `n` of the round: three latency specs and one bandwidth spec
  // whose shapes depend only on n; the seed makes every spec distinct.
  // Bandwidth specs drain a whole L3 per probe and were the noisiest part
  // of a request, so a batch carries one small one.
  [[nodiscard]] Request novel_request(std::size_t n) const {
    Request request;
    const std::uint64_t base = options_.seed * 1000 + n * kSpecsPerRequest;
    hsw::ExperimentSpec latency;
    latency.kind = hsw::ExperimentKind::kLatency;
    latency.owner_core = 1;
    latency.sizes = {hsw::kib(32), hsw::kib(256)};
    latency.max_measured_lines = 2048;
    latency.seed = base + 1;
    request.specs.push_back(latency.canonical());

    latency.mode = n % 2 ? hsw::SnoopMode::kCod : hsw::SnoopMode::kHomeSnoop;
    latency.owner_core = 12;
    latency.state = hsw::Mesif::kExclusive;
    latency.sizes = {hsw::kib(64), hsw::kib(512)};
    latency.seed = base + 2;
    request.specs.push_back(latency.canonical());

    latency.mode = hsw::SnoopMode::kSourceSnoop;
    latency.state = hsw::Mesif::kShared;
    latency.sharers = {13};
    latency.sizes = {hsw::kib(128), hsw::mib(1)};
    latency.seed = base + 3;
    request.specs.push_back(latency.canonical());

    hsw::ExperimentSpec bandwidth;
    bandwidth.kind = hsw::ExperimentKind::kBandwidth;
    bandwidth.sizes = {hsw::kib(256)};
    bandwidth.seed = base + 4;
    request.specs.push_back(bandwidth.canonical());

    request.line = "{\"op\":\"submit\",\"specs\":[";
    for (std::size_t i = 0; i < request.specs.size(); ++i) {
      request.line += (i ? "," : "") + request.specs[i];
    }
    request.line += "]}";
    return request;
  }

  void open_server() {
    server_.reset();
    std::filesystem::remove_all(cache_dir_);
    hsw::serve::ServerConfig config;
    config.cache.dir = cache_dir_;
    config.jobs = 1;
    server_ = std::make_unique<hsw::serve::Server>(config);
  }

  // Traced rounds: parse + key each spec, and run it directly; the payload
  // must be byte-equal to what the server returned.
  void direct_runs(const Request& request, UnitResult& r, SpanRecorder* spans) {
    ScopedSpan extra(spans, "bench.extra");
    const std::vector<std::string>& served =
        results_[static_cast<std::size_t>(&request - requests_.data())];
    for (std::size_t i = 0; i < request.specs.size(); ++i) {
      std::optional<hsw::ExperimentSpec> spec;
      std::string error;
      {
        ScopedSpan span(spans, "util.spec_from_json");
        spec = hsw::spec_from_json(request.specs[i], &error);
      }
      if (!spec) {
        fail(r, "spec does not parse: " + error);
        return;
      }
      {
        ScopedSpan span(spans, "util.experiment_cache_key");
        (void)hsw::experiment_cache_key(*spec, hsw::TimingParams::haswell_ep());
      }
      std::string payload;
      {
        ScopedSpan span(spans, "serve.run_experiment");
        payload = hsw::serve::run_experiment(*spec, hsw::serve::RunOptions{});
      }
      ScopedSpan check(spans, "bench.check");
      if (payload != served[i]) {
        fail(r, "run_experiment payload differs from the server's");
      }
    }
  }

  Options options_;
  std::string cache_dir_;
  std::vector<Request> requests_;
  std::unique_ptr<hsw::serve::Server> server_;
  bool fresh_server_ = false;
  // Payloads served per request slot in the current round.
  std::vector<std::vector<std::string>> results_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t cache_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mixed(const Options& options) {
  return std::make_unique<ServeMixed>(options);
}

}  // namespace perfbench
