// Harness pieces shared by the perfbench workloads: host clocks, the
// same-work digest, the in-memory span recorder of the traced run, and the
// per-run report the benchmark prints.
//
// Host time and simulated time never mix here: every clock in this file
// reads the host (steady_clock, getrusage); simulated quantities arrive as
// plain values computed by the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// --- host clocks -------------------------------------------------------------

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Usage {
  double cpu_s = 0.0;          // user + sys of the whole process
  std::uint64_t minflt = 0;    // minor page faults of the whole process
  double max_rss_mb = 0.0;     // peak resident set so far
};
Usage usage_now();

// --- same-work digest --------------------------------------------------------

// 64-bit FNV-1a over the bytes a unit's simulated outputs are made of.
class Digest {
 public:
  Digest& bytes(const void* data, std::size_t size);
  Digest& u64(std::uint64_t v) { return bytes(&v, sizeof v); }
  Digest& f64(double v) { return bytes(&v, sizeof v); }
  Digest& str(std::string_view s) {
    u64(s.size());
    return bytes(s.data(), s.size());
  }
  template <typename Array>
  Digest& u64s(const Array& values) {
    for (const auto v : values) u64(static_cast<std::uint64_t>(v));
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hex64(std::uint64_t v);

// --- span recorder (traced run) ---------------------------------------------

// One timed region.  `count` is the number of operations an aggregated span
// covers (lines placed, reads issued, accesses replayed); `aux` carries one
// extra per-span host quantity (minor faults for System construction).
struct Span {
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
  std::int64_t parent = -1;
  std::int64_t unit = -1;
  std::uint64_t count = 1;
  std::uint64_t aux = 0;
};

class SpanRecorder {
 public:
  std::size_t open(const char* name, std::int64_t unit);
  void close(std::size_t index, std::uint64_t count, std::uint64_t aux);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::int64_t current_unit() const;

  // Self time of every span: duration minus the durations of its children.
  [[nodiscard]] std::vector<double> self_times() const;
  // CSV dump: name,unit,parent,start_s,end_s,self_s,count,aux.
  bool write_csv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

// RAII span; a null recorder makes it a no-op (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::int64_t unit = -1)
      : recorder_(recorder),
        index_(recorder ? recorder->open(name, unit) : 0) {}
  ~ScopedSpan() { end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_count(std::uint64_t count) { count_ = count; }
  void set_aux(std::uint64_t aux) { aux_ = aux; }
  void end() {
    if (recorder_ != nullptr) recorder_->close(index_, count_, aux_);
    recorder_ = nullptr;
  }

 private:
  SpanRecorder* recorder_;
  std::size_t index_;
  std::uint64_t count_ = 1;
  std::uint64_t aux_ = 0;
};

// Aggregate of every span with one name.
struct SpanTotals {
  std::uint64_t spans = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  std::uint64_t count = 0;
  std::uint64_t aux = 0;
};
std::map<std::string, SpanTotals> totals_by_name(const SpanRecorder& recorder);

// --- statistics --------------------------------------------------------------

double median(std::vector<double> values);
double percentile(std::vector<double> values, double q);

// The highest percentile of a fixed ladder that still has at least
// `min_beyond` samples above it (p50 when even that is short).
struct Tail {
  double value = 0.0;
  double percentile = 50.0;
  std::size_t samples = 0;
};
Tail tail_of(const std::vector<double>& values, std::size_t min_beyond = 10);

// --- report ------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

// Ordered name -> (value, unit); printed as the final JSON line.
using Metrics = std::vector<std::pair<std::string, Metric>>;

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& metrics);

}  // namespace perfbench
