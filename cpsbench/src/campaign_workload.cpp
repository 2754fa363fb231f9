// campaign: the paper's robustness-testing campaign (Fig. 5 and Fig. 8).
//
// Set-up simulates the Glucosym/OpenAPS campaign, builds the datasets and
// trains all four monitor variants. The timed region runs, per pass and per
// variant, evaluate_under_gaussian_sweep over the Fig. 5 sigma grid and
// evaluate_under_fgsm_sweep over the Fig. 8 epsilon grid, timed in process
// CPU time (common.h). A pass is one robustness verdict for all four
// monitors; its time is the latency sample. Work per run is fixed:
// passes = seconds x the nominal pass rate.
//
// A traced run alternates untraced passes with passes that replay every
// sweep point as the calls the sweep makes (clone, perturb, predict,
// score), timed one by one, and requires the replay to equal the sweep.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>

#include "attack/fgsm.h"
#include "attack/gaussian.h"
#include "common.h"
#include "eval/metrics.h"
#include "eval/robustness.h"
#include "obs/sha256.h"
#include "stats.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace cpsbench {

namespace {

using namespace cpsguard;
using core::EvalResult;
using core::MonitorVariant;

constexpr CampaignSize kCampaign{3, 2, 2};
constexpr int kSetupReps = 3;
/// Nominal sweep passes per second, from the slow end of the reference
/// host's runs; sizes a run. Each pass is one block of the windows_per_s
/// block median (stats.h).
constexpr double kPassesPerSecond = 0.3;
/// The figure benches' grids (bench_common.h sigma_sweep/epsilon_sweep).
constexpr double kSigmas[] = {0.1, 0.25, 0.5, 0.75, 1.0};
constexpr double kEpsilons[] = {0.01, 0.05, 0.1, 0.15, 0.2};
constexpr std::uint64_t kNoiseSeed = 1234;  // Experiment's default

/// Sweep results of one pass: [variant][point].
struct PassResults {
  std::vector<std::vector<EvalResult>> gaussian;
  std::vector<std::vector<EvalResult>> fgsm;
};

bool same(const EvalResult& a, const EvalResult& b) {
  return a.confusion.tp == b.confusion.tp && a.confusion.fp == b.confusion.fp &&
         a.confusion.tn == b.confusion.tn && a.confusion.fn == b.confusion.fn &&
         std::bit_cast<std::uint64_t>(a.robustness_err) ==
             std::bit_cast<std::uint64_t>(b.robustness_err);
}

bool same(const std::vector<EvalResult>& a, const std::vector<EvalResult>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const EvalResult& x, const EvalResult& y) { return same(x, y); });
}

bool same(const PassResults& a, const PassResults& b) {
  return std::equal(a.gaussian.begin(), a.gaussian.end(), b.gaussian.begin(),
                    b.gaussian.end(),
                    [](const auto& x, const auto& y) { return same(x, y); }) &&
         std::equal(a.fgsm.begin(), a.fgsm.end(), b.fgsm.begin(), b.fgsm.end(),
                    [](const auto& x, const auto& y) { return same(x, y); });
}

std::string digest_of(const PassResults& r,
                      const std::vector<MonitorVariant>& variants) {
  obs::Sha256 h;
  const auto put = [&](const std::string& v, const char* kind, double param,
                       const EvalResult& e) {
    char line[192];
    const int n = std::snprintf(
        line, sizeof line, "%s,%s,%016llx,%ld,%ld,%ld,%ld,%016llx\n", v.c_str(),
        kind, static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(param)),
        static_cast<long>(e.confusion.tp), static_cast<long>(e.confusion.fp),
        static_cast<long>(e.confusion.tn), static_cast<long>(e.confusion.fn),
        static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(e.robustness_err)));
    h.update(line, static_cast<std::size_t>(n));
  };
  for (std::size_t v = 0; v < variants.size(); ++v) {
    for (std::size_t i = 0; i < std::size(kSigmas); ++i) {
      put(variants[v].name(), "gaussian", kSigmas[i], r.gaussian[v][i]);
    }
    for (std::size_t i = 0; i < std::size(kEpsilons); ++i) {
      put(variants[v].name(), "fgsm", kEpsilons[i], r.fgsm[v][i]);
    }
  }
  const std::array<std::uint8_t, 32> d = h.digest();
  return to_hex(d.data(), d.size());
}

struct SetupLayers {
  double generate_s = 0;
  double dataset_s = 0;
  double train_s = 0;
  double train_samples = 0;
};

std::unique_ptr<core::Experiment> set_up(const RunArgs& args, SetupLayers& layers) {
  auto exp = std::make_unique<core::Experiment>(experiment_config(args.seed, kCampaign));
  const double gen0 = histogram_sum("span.campaign.generate");
  auto t0 = Clock::now();
  exp->prepare();
  auto t1 = Clock::now();
  layers.generate_s = histogram_sum("span.campaign.generate") - gen0;
  layers.dataset_s = seconds_between(t0, t1) - layers.generate_s;

  const double samples0 = counter_value("nn.samples_trained");
  t0 = Clock::now();
  exp->train_all();
  t1 = Clock::now();
  layers.train_s = seconds_between(t0, t1);
  layers.train_samples = counter_value("nn.samples_trained") - samples0;
  // Memoized clean predictions are shared by every sweep of a variant.
  for (const MonitorVariant& v : core::all_variants()) exp->clean_predictions(v);
  return exp;
}

/// Per-variant sweep times of untraced passes, in pass order.
struct VariantTimes {
  std::vector<double> cpu_s;  // process CPU time (common.h)
  std::vector<double> wall_s;
};

/// One untraced pass through the public sweep API. Appends, per variant,
/// the time from the start of its Gaussian sweep to the return of its FGSM
/// sweep: the latency of that monitor's robustness verdict.
PassResults sweep_pass(core::Experiment& exp,
                       const std::vector<MonitorVariant>& variants,
                       VariantTimes& times) {
  PassResults r;
  for (const MonitorVariant& v : variants) {
    const auto t0 = Clock::now();
    const std::int64_t c0 = cpu_now_ns();
    r.gaussian.push_back(exp.evaluate_under_gaussian_sweep(v, kSigmas, kNoiseSeed));
    r.fgsm.push_back(exp.evaluate_under_fgsm_sweep(v, kEpsilons));
    times.cpu_s.push_back(cpu_seconds_between(c0, cpu_now_ns()));
    times.wall_s.push_back(seconds_between(t0, Clock::now()));
  }
  return r;
}

/// Per-call time sums of traced sweep points, over all threads.
struct ReplayTimes {
  double clone_s = 0;
  double gaussian_s = 0;
  double fgsm_s = 0;
  double predict_s = 0;
  double metrics_s = 0;
  double point_s = 0;     // sum of whole-point times
  double makespan_s = 0;  // sum of sweep wall times
};

/// A traced pass: every sweep point replayed as its individual calls,
/// fanned across the pool exactly as the sweep fans it.
PassResults replay_pass(core::Experiment& exp,
                        const std::vector<MonitorVariant>& variants,
                        const std::vector<nn::Tensor3>& scaled, ReplayTimes& rt) {
  const monitor::Dataset& test = exp.test_data();
  const int tolerance = exp.config().tolerance_delta;
  std::mutex mu;
  const auto add = [&](const ReplayTimes& p) {
    const std::lock_guard<std::mutex> lock(mu);
    rt.clone_s += p.clone_s;
    rt.gaussian_s += p.gaussian_s;
    rt.fgsm_s += p.fgsm_s;
    rt.predict_s += p.predict_s;
    rt.metrics_s += p.metrics_s;
    rt.point_s += p.point_s;
  };
  const auto score = [&](const std::vector<int>& clean, const std::vector<int>& preds,
                         ReplayTimes& p) {
    const auto t0 = Clock::now();
    EvalResult r;
    r.confusion = eval::evaluate_with_tolerance(test, preds, tolerance);
    r.robustness_err = eval::robustness_error(clean, preds);
    p.metrics_s += seconds_between(t0, Clock::now());
    return r;
  };

  PassResults out;
  for (std::size_t vi = 0; vi < variants.size(); ++vi) {
    monitor::MlMonitor& mon = exp.monitor(variants[vi]);
    const std::vector<int>& clean = exp.clean_predictions(variants[vi]);

    std::vector<EvalResult> g(std::size(kSigmas));
    auto m0 = Clock::now();
    util::parallel_for(static_cast<int>(g.size()), [&](int i) {
      ReplayTimes p;
      const auto t0 = Clock::now();
      const std::unique_ptr<monitor::MlMonitor> local = mon.clone();
      const auto t1 = Clock::now();
      attack::GaussianNoiseConfig gc;
      gc.sigma_factor = kSigmas[i];
      util::Rng rng(kNoiseSeed, 0x4e4f4953u /* 'NOIS', as the sweep seeds it */);
      const nn::Tensor3 noisy = attack::add_gaussian_noise(test.x, local->scaler(), gc, rng);
      const auto t2 = Clock::now();
      const std::vector<int> preds = local->predict(noisy);
      const auto t3 = Clock::now();
      g[static_cast<std::size_t>(i)] = score(clean, preds, p);
      p.clone_s = seconds_between(t0, t1);
      p.gaussian_s = seconds_between(t1, t2);
      p.predict_s = seconds_between(t2, t3);
      p.point_s = seconds_between(t0, Clock::now());
      add(p);
    });
    rt.makespan_s += seconds_between(m0, Clock::now());
    out.gaussian.push_back(std::move(g));

    std::vector<EvalResult> f(std::size(kEpsilons));
    m0 = Clock::now();
    util::parallel_for(static_cast<int>(f.size()), [&](int i) {
      ReplayTimes p;
      const auto t0 = Clock::now();
      const std::unique_ptr<monitor::MlMonitor> local = mon.clone();
      const auto t1 = Clock::now();
      attack::FgsmConfig fc;
      fc.epsilon = kEpsilons[i];
      const nn::Tensor3 adv =
          attack::fgsm_attack(local->classifier(), scaled[vi], test.labels, fc);
      const auto t2 = Clock::now();
      const std::vector<int> preds = local->predict_scaled(adv);
      const auto t3 = Clock::now();
      f[static_cast<std::size_t>(i)] = score(clean, preds, p);
      p.clone_s = seconds_between(t0, t1);
      p.fgsm_s = seconds_between(t1, t2);
      p.predict_s = seconds_between(t2, t3);
      p.point_s = seconds_between(t0, Clock::now());
      add(p);
    });
    rt.makespan_s += seconds_between(m0, Clock::now());
    out.fgsm.push_back(std::move(f));
  }
  return out;
}

std::size_t pass_windows(core::Experiment& exp) {
  return static_cast<std::size_t>(exp.test_data().size()) * core::all_variants().size() *
         (std::size(kSigmas) + std::size(kEpsilons));
}

}  // namespace

Result run_campaign(const RunArgs& args) {
  util::set_max_parallelism(kPoolThreads);
  Result result;
  add_provenance(result, args);
  const auto passes = std::max<std::int64_t>(
      1, std::llround(kPassesPerSecond * static_cast<double>(args.seconds)));
  result.note("passes", std::to_string(passes));
  result.note("campaign", std::to_string(kCampaign.patients) + "x" +
                              std::to_string(kCampaign.sims_per_patient) +
                              " epochs " + std::to_string(kCampaign.epochs));
  const long long steal0 = steal_ticks();
  const double retries0 = counter_value("retry.attempts") + counter_value("retry.exhausted");

  const std::vector<MonitorVariant> variants = core::all_variants();
  const int reps = args.trace ? 1 : kSetupReps;
  std::unique_ptr<core::Experiment> exp;
  SetupLayers layers;
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  for (int rep = 0; rep < reps; ++rep) {
    exp.reset();
    const std::int64_t c0 = cpu_now_ns();
    const auto t0 = Clock::now();
    exp = set_up(args, layers);
    setup_wall_s.push_back(seconds_between(t0, Clock::now()));
    setup_s.push_back(cpu_seconds_between(c0, cpu_now_ns()));
  }
  const std::size_t windows_per_pass = pass_windows(*exp);
  result.note("test_windows", std::to_string(exp->test_data().size()));

  VariantTimes variant_s;
  std::optional<PassResults> first;
  std::uint64_t points = 0;
  const auto check_pass = [&](const PassResults& r, const char* what) {
    points += variants.size() * (std::size(kSigmas) + std::size(kEpsilons));
    if (!first) {
      first = r;
    } else if (!same(*first, r)) {
      result.fail_check(std::string(what) + " differs from the first pass");
    }
  };

  if (!args.trace) {
    std::vector<double> pass_windows_v;
    std::vector<double> pass_s;
    for (std::int64_t p = 0; p < passes; ++p) {
      const std::size_t before = variant_s.cpu_s.size();
      check_pass(sweep_pass(*exp, variants, variant_s), "sweep pass");
      double s = 0;
      for (std::size_t i = before; i < variant_s.cpu_s.size(); ++i) s += variant_s.cpu_s[i];
      pass_windows_v.push_back(static_cast<double>(windows_per_pass));
      pass_s.push_back(s);
    }
    result.add("windows_per_s",
               block_median_rate(pass_windows_v, pass_s, static_cast<std::size_t>(passes)),
               "windows/s");
    std::vector<double> pass_ms;
    for (const double s : pass_s) pass_ms.push_back(s * 1e3);
    result.note("latency_samples", std::to_string(pass_ms.size()));
    result.note("pass_ms", join_values(pass_ms));
    std::vector<double> variant_ms;
    for (const double s : variant_s.cpu_s) variant_ms.push_back(s * 1e3);
    result.note("variant_ms", join_values(variant_ms));
    for (const auto& [name, p] : {std::pair{"verdict_latency_p50_ms", 50.0},
                                  std::pair{"verdict_latency_p99_ms", 99.0}}) {
      result.add(name, percentile(std::span<double>(pass_ms), p), "ms");
    }
    result.add("setup_s", median(setup_s), "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MiB");
  } else {
    std::vector<nn::Tensor3> scaled;
    for (const MonitorVariant& v : variants) {
      scaled.push_back(exp->monitor(v).scaler().transform(exp->test_data().x));
    }
    // Untraced and traced passes alternate over the same fixed work.
    ReplayTimes rt;
    ObsDelta delta;
    for (std::int64_t p = 0; p < passes; ++p) {
      if (p % 2 == 0) {
        check_pass(sweep_pass(*exp, variants, variant_s), "sweep pass");
      } else {
        delta.begin();
        check_pass(replay_pass(*exp, variants, scaled, rt), "traced replay");
        delta.end();
      }
    }
    if (passes == 1) {  // one pass of each kind at minimum
      delta.begin();
      check_pass(replay_pass(*exp, variants, scaled, rt), "traced replay");
      delta.end();
    }
    const std::int64_t untraced_passes = (passes + 1) / 2;
    const std::int64_t traced_passes = std::max<std::int64_t>(1, passes / 2);
    double untraced_s = 0;  // wall, as the replay's makespans
    for (const double s : variant_s.wall_s) untraced_s += s;
    const double untraced_wps =
        static_cast<double>(windows_per_pass * static_cast<std::size_t>(untraced_passes)) /
        untraced_s;
    const double traced_wps =
        static_cast<double>(windows_per_pass * static_cast<std::size_t>(traced_passes)) /
        rt.makespan_s;

    // Fan-out: one more traced pass at kScalingThreads gives the sweep
    // imbalance (5 points over 3 threads take 2 rounds) and pool counters.
    util::set_max_parallelism(kScalingThreads);
    ReplayTimes fanned;
    ObsDelta pool;
    pool.begin();
    check_pass(replay_pass(*exp, variants, scaled, fanned), "fanned-out replay");
    pool.end();
    util::set_max_parallelism(kPoolThreads);

    result.add("sim.generate_s", layers.generate_s, "s");
    result.add("monitor.dataset_s", layers.dataset_s, "s");
    result.add("nn.train_s", layers.train_s, "s");
    result.add("nn.train_samples", layers.train_samples, "count");
    for (const char* name : {"registry.publish_s", "registry.load_s",
                             "serve.engine_build_s", "serve.submit_s", "serve.tick_s"}) {
      result.add(name, 0, "s");
    }
    result.add("trace.region_s", rt.makespan_s, "s");
    result.add("serve.flush_s", 0, "s");
    result.add("serve.nonflush_s", 0, "s");
    for (const char* name : {"serve.records", "serve.flushes", "serve.windows_flushed"}) {
      result.add(name, 0, "count");
    }
    result.add("serve.batch_fill", 0, "ratio");
    result.add("monitor.ingest_ns_per_record", 0, "ns");
    result.add("nn.forward_ns_per_window", 0, "ns");
    result.add("loadgen.plan_s", 0, "s");
    add_pool_metrics(result, pool);
    result.add("serve.scaling_3t_over_1t", 0, "ratio");
    result.add("monitor.clone_s", rt.clone_s, "s");
    result.add("attack.gaussian_s", rt.gaussian_s, "s");
    result.add("attack.fgsm_s", rt.fgsm_s, "s");
    result.add("nn.predict_s", rt.predict_s, "s");
    result.add("eval.metrics_s", rt.metrics_s, "s");
    result.add("attack.fgsm_windows", delta.get("attack.fgsm.windows"), "count");
    result.add("core.sweep_imbalance",
               fanned.makespan_s / (fanned.point_s / kScalingThreads), "ratio");
    result.add("trace.overhead_frac", 1.0 - traced_wps / untraced_wps, "ratio");
  }

  // Output check: each variant's pointwise evaluation equals its sweep
  // entry bit for bit, at a seed-chosen grid point.
  const std::size_t gi = args.seed % std::size(kSigmas);
  const std::size_t fi = (args.seed / std::size(kSigmas)) % std::size(kEpsilons);
  for (std::size_t v = 0; v < variants.size(); ++v) {
    if (!same(exp->evaluate_under_gaussian(variants[v], kSigmas[gi], kNoiseSeed),
              first->gaussian[v][gi])) {
      result.fail_check(variants[v].name() + " pointwise gaussian != sweep");
    }
    if (!same(exp->evaluate_under_fgsm(variants[v], kEpsilons[fi]), first->fgsm[v][fi])) {
      result.fail_check(variants[v].name() + " pointwise fgsm != sweep");
    }
  }
  result.note("sweep_sha256", digest_of(*first, variants));
  result.note("setup_s_all", join_values(setup_s));
  result.note("setup_wall_s_all", join_values(setup_wall_s));
  double cpu_s = 0;
  double wall_s = 0;
  for (std::size_t i = 0; i < variant_s.cpu_s.size(); ++i) {
    cpu_s += variant_s.cpu_s[i];
    wall_s += variant_s.wall_s[i];
  }
  result.note("timed_cpu_over_wall", std::to_string(cpu_s / wall_s));
  result.attempted = points;
  result.failed += static_cast<std::uint64_t>(
      counter_value("retry.attempts") + counter_value("retry.exhausted") - retries0);
  const long long steal1 = steal_ticks();
  result.note("steal_ticks", std::to_string(steal0 < 0 || steal1 < 0 ? -1 : steal1 - steal0));
  return result;
}

}  // namespace cpsbench
