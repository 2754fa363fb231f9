#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <fstream>
#include <iterator>
#include <stdexcept>
#include <thread>

#include "nn/simd_kernels.h"
#include "obs/manifest.h"
#include "obs/metrics.h"

namespace cpsbench {

std::int64_t cpu_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void Result::fail_check(const std::string& what) {
  correct = false;
  ++failed;
  note("check_failed", what);
}

cpsguard::core::ExperimentConfig experiment_config(std::uint64_t seed,
                                                   const CampaignSize& size) {
  cpsguard::core::ExperimentConfig cfg;
  cfg.campaign.testbed = cpsguard::sim::Testbed::kGlucosymOpenAps;
  cfg.campaign.patients = size.patients;
  cfg.campaign.sims_per_patient = size.sims_per_patient;
  cfg.campaign.seed = seed;
  cfg.epochs = size.epochs;
  cfg.cache_dir = "";
  return cfg;
}

double counter_value(const std::string& name) {
  return static_cast<double>(
      cpsguard::obs::Registry::instance().counter(name).value());
}

double histogram_sum(const std::string& name) {
  return cpsguard::obs::Registry::instance().histogram(name).sum();
}

namespace {

constexpr const char* kCounters[] = {
    "serve.records",       "serve.flushes",      "serve.windows_flushed",
    "parallel_for.calls",  "parallel_for.inline_calls",
    "attack.fgsm.windows", "nn.samples_trained", "retry.attempts",
    "retry.exhausted",
};
constexpr const char* kHistogramSums[] = {
    "span.serve.flush",
    "span.campaign.generate",
    "threadpool.task_seconds",
    "threadpool.idle_seconds",
};
constexpr std::size_t kNumCounters = std::size(kCounters);
constexpr std::size_t kNumNames = kNumCounters + std::size(kHistogramSums);

std::vector<double> read_obs() {
  std::vector<double> out;
  out.reserve(kNumNames);
  for (const char* name : kCounters) out.push_back(counter_value(name));
  for (const char* name : kHistogramSums) out.push_back(histogram_sum(name));
  return out;
}

std::size_t obs_index(const std::string& name) {
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (name == kCounters[i]) return i;
  }
  for (std::size_t i = 0; i < std::size(kHistogramSums); ++i) {
    if (name == kHistogramSums[i]) return kNumCounters + i;
  }
  throw std::invalid_argument("ObsDelta: untracked metric " + name);
}

}  // namespace

void ObsDelta::begin() { start_ = read_obs(); }

void ObsDelta::end() {
  const std::vector<double> now = read_obs();
  total_.resize(kNumNames, 0.0);
  for (std::size_t i = 0; i < kNumNames; ++i) total_[i] += now[i] - start_[i];
}

double ObsDelta::get(const std::string& name) const {
  const std::size_t i = obs_index(name);
  return total_.empty() ? 0.0 : total_[i];
}

void add_pool_metrics(Result& result, const ObsDelta& delta) {
  result.add("util.parallel_for_calls", delta.get("parallel_for.calls"), "count");
  result.add("util.parallel_for_inline_calls",
             delta.get("parallel_for.inline_calls"), "count");
  result.add("util.pool_task_s", delta.get("threadpool.task_seconds"), "s");
  result.add("util.pool_idle_s", delta.get("threadpool.idle_seconds"), "s");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

long long steal_ticks() {
  // First line: "cpu  user nice system idle iowait irq softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string label;
  long long fields[8] = {};
  if (!(in >> label) || label != "cpu") return -1;
  for (long long& f : fields) {
    if (!(in >> f)) return -1;
  }
  return fields[7];
}

void add_provenance(Result& result, const RunArgs& args) {
  const cpsguard::obs::BuildInfo build = cpsguard::obs::build_info();
  result.note("git_sha", build.git_sha);
  result.note("build_flags", build.flags);
  result.note("nproc", std::to_string(std::thread::hardware_concurrency()));
  result.note("pool_threads", std::to_string(kPoolThreads));
  result.note("simd_kernel", cpsguard::nn::simd_kernel_name());
  result.note("workload", args.workload);
  result.note("seed", std::to_string(args.seed));
  result.note("seconds", std::to_string(args.seconds));
  result.note("trace", args.trace ? "1" : "0");
}

std::string join_values(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) {
    if (!out.empty()) out += ' ';
    out += std::to_string(v);
  }
  return out;
}

std::string to_hex(const std::uint8_t* bytes, std::size_t n) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(kHex[bytes[i] >> 4]);
    out.push_back(kHex[bytes[i] & 0xf]);
  }
  return out;
}

}  // namespace cpsbench
