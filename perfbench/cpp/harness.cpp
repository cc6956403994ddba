#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  u.minflt = static_cast<std::uint64_t>(ru.ru_minflt);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

Digest& Digest::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ull;
  }
  return *this;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::size_t SpanRecorder::open(const char* name, std::int64_t unit) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  span.unit = unit >= 0 ? unit : current_unit();
  spans_.push_back(span);
  stack_.push_back(spans_.size() - 1);
  // Read the clock last so the bookkeeping above is charged to the parent.
  spans_.back().start_s = now_s();
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t index, std::uint64_t count,
                         std::uint64_t aux) {
  const double end = now_s();
  Span& span = spans_[index];
  span.end_s = end;
  span.count = count;
  span.aux = aux;
  // Spans close in LIFO order (RAII); anything else is a harness bug that
  // would corrupt the parent links, so unwind to the closed span.
  while (!stack_.empty() && stack_.back() != index) stack_.pop_back();
  if (!stack_.empty()) stack_.pop_back();
}

std::int64_t SpanRecorder::current_unit() const {
  return stack_.empty() ? -1 : spans_[stack_.back()].unit;
}

std::vector<double> SpanRecorder::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_s - spans_[i].start_s;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.end_s - span.start_s;
    }
  }
  return self;
}

bool SpanRecorder::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = self_times();
  std::fprintf(f, "name,unit,parent,start_s,end_s,self_s,count,aux\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s,%lld,%lld,%.9f,%.9f,%.9f,%llu,%llu\n", s.name,
                 static_cast<long long>(s.unit),
                 static_cast<long long>(s.parent), s.start_s, s.end_s, self[i],
                 static_cast<unsigned long long>(s.count),
                 static_cast<unsigned long long>(s.aux));
  }
  return std::fclose(f) == 0;
}

std::map<std::string, SpanTotals> totals_by_name(const SpanRecorder& recorder) {
  std::map<std::string, SpanTotals> out;
  const std::vector<double> self = recorder.self_times();
  const std::vector<Span>& spans = recorder.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    ++t.spans;
    t.total_s += spans[i].end_s - spans[i].start_s;
    t.self_s += self[i];
    t.count += spans[i].count;
    t.aux += spans[i].aux;
  }
  return out;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

Tail tail_of(const std::vector<double>& values, std::size_t min_beyond) {
  Tail tail;
  tail.samples = values.size();
  for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    const double beyond =
        static_cast<double>(values.size()) * (1.0 - p / 100.0);
    if (p == 50.0 || beyond >= static_cast<double>(min_beyond)) {
      tail.percentile = p;
    }
  }
  tail.value = percentile(values, tail.percentile / 100.0);
  return tail;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    // %.17g keeps every digit the measurement has; non-finite values are
    // not JSON, so they surface as null (and fail the metric check).
    if (std::isfinite(metric.value)) {
      std::snprintf(value, sizeof value, "%.17g", metric.value);
    } else {
      std::snprintf(value, sizeof value, "null");
    }
    out += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
