// Shared plumbing of the benchmark workloads: run arguments, the result
// every run prints, clocks, obs counter reads and run provenance.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"

namespace cpsbench {

using Clock = std::chrono::steady_clock;

/// Pool threads (util::set_max_parallelism) of every untraced run. On the
/// shared 4-vCPU reference host, serve runs with 2 or 3 pool threads lost
/// 0.4-0.9 CPU-seconds per second to hypervisor steal and their throughput
/// moved 20-40% between identical runs; serial runs lost about 0.05 and
/// stayed within a few percent. Thread scaling is
/// measured in traced runs instead, at kScalingThreads.
constexpr int kPoolThreads = 1;
constexpr int kScalingThreads = 3;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time the process has used (all threads), in nanoseconds, from
/// CLOCK_PROCESS_CPUTIME_ID. End-to-end timings use it instead of wall
/// time: with one pool thread the timed work is serial, so it equals the
/// wall time of the work minus the time the process was not running
/// (hypervisor steal, which the kernel's paravirt accounting excludes, or
/// another process on the CPU). One read costs about 0.35 us.
[[nodiscard]] std::int64_t cpu_now_ns();

[[nodiscard]] inline double cpu_seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

/// Arguments run.py hands the cpsbench binary, already validated there.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string tmp_dir;  // fresh temporary directory, removed by run.py
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `metrics` are the end-to-end metrics of an
/// untraced run or the per-layer metrics of a traced one; `info` is
/// provenance and diagnostics, printed on the line before the result.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
  }
  /// Record a failed output check: the run is incorrect and the check
  /// counts as one failed operation.
  void fail_check(const std::string& what);
};

/// Sizes of the simulated campaign that feeds every workload.
struct CampaignSize {
  int patients = 0;
  int sims_per_patient = 0;
  int epochs = 0;
};

/// Experiment configuration of a run: the paper's Glucosym/OpenAPS testbed,
/// seeded by the run seed, with the trained-monitor cache disabled so every
/// run does the same set-up work.
[[nodiscard]] cpsguard::core::ExperimentConfig experiment_config(
    std::uint64_t seed, const CampaignSize& size);

/// Current value of a program counter / sum of a program histogram
/// (registered on first read). Only count and sum are read from
/// histograms; their quantile estimates are never used.
[[nodiscard]] double counter_value(const std::string& name);
[[nodiscard]] double histogram_sum(const std::string& name);

/// Change of the program's obs counters and histogram sums over one or
/// more measured intervals (begin()/end() pairs). Covers the fixed set of
/// names the workloads report; histogram entries are sums in seconds.
class ObsDelta {
 public:
  void begin();
  void end();
  /// Accumulated change of `name` over every finished interval.
  [[nodiscard]] double get(const std::string& name) const;

 private:
  std::vector<double> start_;
  std::vector<double> total_;
};

/// Adds the util.* per-layer metrics (parallel_for fan-outs and inline
/// runs, pool task and idle seconds) measured over `delta`.
void add_pool_metrics(Result& result, const ObsDelta& delta);

/// Process peak resident set size in MiB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// Cumulative steal time of all CPUs from /proc/stat, in clock ticks
/// (USER_HZ); -1 when unavailable.
[[nodiscard]] long long steal_ticks();

/// Provenance every result carries: build, host and pool facts.
void add_provenance(Result& result, const RunArgs& args);

/// Space-separated decimal rendering of `values`, for info notes.
[[nodiscard]] std::string join_values(const std::vector<double>& values);

/// Hex SHA-256 digest helper over a finished obs::Sha256 context's bytes.
[[nodiscard]] std::string to_hex(const std::uint8_t* bytes, std::size_t n);

}  // namespace cpsbench
