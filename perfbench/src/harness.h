// Shared plumbing of the perfbench workloads: arguments, timing, order
// statistics, the result report and the synthetic inputs.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "opmap/common/metrics.h"
#include "opmap/common/status.h"
#include "opmap/data/call_log.h"

namespace perfbench {

/// Command line of one workload process.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Working directory for this run's files (created by run.py).
  std::string dir;
};

/// Monotonic wall clock in seconds.
double Now();

/// Sleeps until Now() >= `when`.
void SleepUntil(double when);

/// Order statistics over a copy of `v` (0 for an empty vector).
double Median(std::vector<double> v);
double Quantile(std::vector<double> v, double q);

/// The one line of JSON a run ends with, plus its operation accounting.
///
/// An operation that returns an error (or is shed) is counted in `failed`
/// and leaves `correct` alone; a failed output check also clears
/// `correct`, which makes the process exit non-zero. Thread-safe.
class Report {
 public:
  void Attempt(int64_t n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    attempted_ += n;
  }
  /// An operation failed with an error status or was refused.
  void OpFailed(const std::string& what);
  /// An output check failed: counts as a failed operation and clears
  /// `correct`.
  void CheckFailed(const std::string& what);
  /// Convenience: CheckFailed(what) unless `ok`. Returns `ok`.
  bool Check(bool ok, const std::string& what);

  /// Records a metric. Every workload sets every end-to-end metric; the
  /// per-layer ones it does not exercise stay at 0.
  void Set(const std::string& name, double value) { values_[name] = value; }
  double Get(const std::string& name) const;

  bool correct() const { return correct_; }

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  /// with the end-to-end metrics (`trace` false) or the per-layer ones.
  std::string ToJson(bool trace) const;

 private:
  mutable std::mutex mu_;
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int messages_ = 0;
  std::map<std::string, double> values_;
};

/// Peak resident set of this process / of `pid`, in MB (VmHWM).
double PeakRssMb();
double PeakRssMbOf(pid_t pid);

/// The call-log workload shared by all inputs: a bad phone (ph03) with a
/// planted morning drop-rate effect (TimeOfCall is the ground truth on the
/// ph01-vs-ph03 comparison) plus one property attribute (HardwareVersion1,
/// keyed to the phone model).
opmap::CallLogConfig CallLogInput(int num_attributes, int64_t num_records,
                                  uint64_t seed);

/// How far counter `name` advanced between two registry snapshots.
int64_t CounterDelta(const opmap::MetricsSnapshot& before,
                     const opmap::MetricsSnapshot& after,
                     const std::string& name);

/// splitmix64: the benchmark's own seeded choices (never the program's RNG).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }

 private:
  uint64_t state_;
};

/// Exits with a message when `status` is not OK (set-up failures: nothing
/// can be measured, so no result line is printed).
void DieIf(const opmap::Status& status, const char* what);

template <typename T>
T ValueOrDie(opmap::Result<T> result, const char* what) {
  DieIf(result.status(), what);
  return std::move(result).MoveValue();
}

// Workload entry points: Prepare writes the run's input files into
// args.dir (a separate process, so its memory never shows in the measured
// process); Run measures and fills the report.
void PrepareBatchBuild(const Args& args);
void RunBatchBuild(const Args& args, Report* report);
void PrepareExplore(const Args& args);
void RunExplore(const Args& args, Report* report);
void PrepareServeHot(const Args& args);
void RunServeHot(const Args& args, Report* report);
void PrepareIngestLive(const Args& args);
void RunIngestLive(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
