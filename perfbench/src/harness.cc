#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every workload prints every metric of its list (BENCHMARK.json names the
// same ones); README.md says what each means on each workload.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
};

const MetricDef kPerLayer[] = {
    {"data.load_ms", "ms"},
    {"cube.build_ms", "ms"},
    {"cube.save_ms", "ms"},
    {"cube.build_1t_ms", "ms"},
    {"cube.build_speedup", "x"},
    {"cube.load_ms", "ms"},
    {"car.mine_ms", "ms"},
    {"car.rules", "count"},
    {"compare.cold_us", "us"},
    {"compare.cold_default_workers_us", "us"},
    {"compare.all_pairs_ms", "ms"},
    {"gi.mine_ms", "ms"},
    {"core.render_us", "us"},
    {"core.cache_hit_us", "us"},
    {"core.cache_hits", "count"},
    {"core.cache_misses", "count"},
    {"server.rtt_compare_us", "us"},
    {"server.rtt_pairs_us", "us"},
    {"server.rtt_gi_us", "us"},
    {"server.rtt_render_us", "us"},
    {"server.handler_compare_us", "us"},
    {"server.handler_pairs_us", "us"},
    {"server.handler_gi_us", "us"},
    {"server.handler_render_us", "us"},
    {"server.wire_overhead_us", "us"},
    {"server.inproc_compare_us", "us"},
    {"server.completed_per_s", "1/s"},
    {"server.response_bytes", "bytes"},
    {"server.retry_later", "count"},
    {"ingest.open_ms", "ms"},
    {"ingest.append_ms", "ms"},
    {"ingest.compact_ms", "ms"},
    {"wal.bytes_per_row", "bytes"},
    {"io.bytes_written_per_row", "bytes"},
    {"ingest.snapshot_ms", "ms"},
    {"ingest.reader_wait_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"latency_samples", "count"},
    {"trace.overhead_pct", "%"},
};

void AppendMetric(std::string* out, bool* first, const MetricDef& def,
                  double value) {
  char buf[256];
  // %.17g keeps every digit the measurement has.
  std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                *first ? "" : ", ", def.name, std::isfinite(value) ? value : 0.0,
                def.unit);
  *first = false;
  *out += buf;
}

}  // namespace

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntil(double when) {
  for (double left = when - Now(); left > 0; left = when - Now()) {
    std::this_thread::sleep_for(std::chrono::duration<double>(left));
  }
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

void Report::OpFailed(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  if (++messages_ <= 20) std::fprintf(stderr, "perfbench: failed op: %s\n", what.c_str());
}

void Report::CheckFailed(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  correct_ = false;
  ++failed_;
  if (++messages_ <= 20) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

bool Report::Check(bool ok, const std::string& what) {
  if (!ok) CheckFailed(what);
  return ok;
}

double Report::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

std::string Report::ToJson(bool trace) const {
  std::string metrics;
  bool first = true;
  if (trace) {
    for (const MetricDef& def : kPerLayer) AppendMetric(&metrics, &first, def, Get(def.name));
  } else {
    for (const MetricDef& def : kEndToEnd) AppendMetric(&metrics, &first, def, Get(def.name));
  }
  char head[160];
  std::snprintf(head, sizeof(head),
                "{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
                ", \"metrics\": {",
                correct_ ? "true" : "false", attempted_, failed_);
  return std::string(head) + metrics + "}}";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

double PeakRssMbOf(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

opmap::CallLogConfig CallLogInput(int num_attributes, int64_t num_records,
                                  uint64_t seed) {
  opmap::CallLogConfig config;
  config.num_records = num_records;
  config.num_attributes = num_attributes;
  config.num_phone_models = 10;
  config.num_property_attributes = 1;
  config.phone_drop_multiplier = {1.0, 1.0, 1.6};
  config.effects.push_back(opmap::PlantedEffect{
      "TimeOfCall", "morning", /*phone_model=*/2,
      opmap::kDroppedWhileInProgress, 6.0});
  config.seed = seed;
  return config;
}

int64_t CounterDelta(const opmap::MetricsSnapshot& before,
                     const opmap::MetricsSnapshot& after,
                     const std::string& name) {
  auto get = [&](const opmap::MetricsSnapshot& s) -> int64_t {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  };
  return get(after) - get(before);
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void DieIf(const opmap::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s: %s\n", what, status.ToString().c_str());
  std::exit(2);
}

}  // namespace perfbench
