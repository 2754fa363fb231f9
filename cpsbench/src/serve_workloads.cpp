// serve_steady: closed-loop traffic through serve::Engine.
//
// One ingest thread drives the engine: each cycle submits one record per
// session, then calls tick(). The engine is synchronous, so the closed-loop
// cycle rate is its highest sustainable rate. The session schedule comes
// from loadgen's steady traffic model (SessionChurner::plan), generated for
// every cycle during set-up.
//
// Timed region: each cycle is timed from its first engine call to the
// return of its tick(), in process CPU time (common.h); the sum over cycles
// is the region. Hashing the verdict stream, latency bookkeeping and the
// output-check logs run between cycles, outside the region.
//
// Work per run is fixed (cycles = seconds x the nominal cycle rate), so a
// seed always yields the same inputs, the same verdict stream and the same
// memory footprint.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <utility>

#include "common.h"
#include "core/online_monitor.h"
#include "eval/batch_eval.h"
#include "loadgen/churner.h"
#include "loadgen/workload.h"
#include "monitor/features.h"
#include "obs/sha256.h"
#include "registry/registry.h"
#include "serve/engine.h"
#include "stats.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace cpsbench {

namespace {

using namespace cpsguard;
using serve::SessionId;

constexpr CampaignSize kServeCampaign{3, 3, 2};
/// Set-ups per untraced run; setup_s is their median. One takes ~0.25 s.
constexpr int kSetupReps = 5;
constexpr int kShards = 4;
constexpr int kMaxBatch = 256;
/// 600 sessions per shard: each shard flushes inline at its 256th and
/// 512th record, so the verdict-latency distribution has steps at about
/// 15% and 57% of its ranks. With 2000 sessions the single step sat at 49%
/// and p50 moved 17% between runs where throughput moved 10%.
constexpr int kSessions = 2400;
/// Nominal cycles per second, from the slow end of the reference host's
/// runs (about 200k windows/s); sizes a run's work.
constexpr double kCyclesPerSecond = 85.0;
constexpr std::int64_t kWarmupCycles = 20;
/// End-to-end metrics are medians over this many equal blocks of cycles
/// (stats.h), so a stretch of host noise moves only the blocks it lands in.
constexpr std::size_t kBlocks = 10;
/// Every session id divisible by this is checked verdict-for-verdict
/// against a dedicated core::OnlineMonitor.
constexpr SessionId kSampleStride = 64;
/// Verdict latency is sampled at every 16th submit of a cycle: a CPU-clock
/// read per sample keeps the reads at about 1% of a cycle's time.
constexpr std::size_t kLatencyStride = 16;

/// loadgen's steady model: kSessions sessions that all outlive the run,
/// so every cycle submits one record for each of them.
loadgen::TrafficConfig steady_traffic() {
  loadgen::TrafficConfig t;
  t.model = loadgen::TrafficModel::kSteady;
  t.base_sessions = kSessions;
  t.min_session_len = 1 << 20;
  t.max_session_len = 1 << 20;
  return t;
}

serve::EngineConfig engine_config(int window) {
  serve::EngineConfig cfg;
  cfg.shards = kShards;
  cfg.window = window;
  cfg.max_batch = kMaxBatch;
  cfg.queue_capacity = std::max(2 * kMaxBatch, 4 * (kSessions / kShards + 1));
  return cfg;
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Set-up cost split by layer, from calls timed at the layer boundary.
struct SetupLayers {
  double generate_s = 0;
  double dataset_s = 0;
  double train_s = 0;
  double train_samples = 0;
  double publish_s = 0;
  double load_s = 0;
  double engine_build_s = 0;
  double plan_s = 0;
};

/// What a sampled session did, in order, for the OnlineMonitor replay.
struct SampleLog {
  std::vector<const sim::StepRecord*> steps;
  std::vector<serve::VerdictEvent> verdicts;
};

/// Everything observed about the verdict stream, filled between cycles.
struct Sink {
  obs::Sha256 stream_hash;
  std::uint64_t verdicts = 0;
  std::uint64_t submits = 0;
  std::uint64_t rejected = 0;
  std::uint64_t stale_verdicts = 0;  // delivered on a later tick than ingest
  std::map<SessionId, SampleLog> samples;
  // Timed cycles only. Latency and cycle_s are process CPU time.
  std::vector<std::uint32_t> latency_ns;
  std::vector<double> cycle_latency_samples;
  std::vector<double> cycle_s;
  std::vector<double> cycle_wall_s;
  std::vector<double> cycle_verdicts;
};

/// Wall time of each engine entry point over traced cycles.
struct CallTimes {
  double submit_s = 0;
  double tick_s = 0;
  double region_s = 0;
  std::uint64_t verdicts = 0;
};

enum class CycleMode { kWarmup, kTimed, kTraced };

/// One set-up: campaign, datasets, trained MLP, registry round trip,
/// engine, session schedule, warm-up. The last repetition's rig runs the
/// timed region.
class ServeRig {
 public:
  ServeRig(const RunArgs& args, int rep, std::int64_t measured_cycles,
           SetupLayers& layers) {
    const core::MonitorVariant mlp{monitor::Arch::kMlp, false};
    exp_ = std::make_unique<core::Experiment>(
        experiment_config(args.seed, kServeCampaign));

    const double gen0 = histogram_sum("span.campaign.generate");
    auto t0 = Clock::now();
    exp_->prepare();
    auto t1 = Clock::now();
    layers.generate_s = histogram_sum("span.campaign.generate") - gen0;
    layers.dataset_s = seconds_between(t0, t1) - layers.generate_s;

    const double samples0 = counter_value("nn.samples_trained");
    t0 = Clock::now();
    exp_->monitor(mlp);
    t1 = Clock::now();
    layers.train_s = seconds_between(t0, t1);
    layers.train_samples = counter_value("nn.samples_trained") - samples0;

    const std::string reg_dir =
        (std::filesystem::path(args.tmp_dir) / ("registry-" + std::to_string(rep)))
            .string();
    registry_ = std::make_unique<registry::ModelRegistry>(reg_dir);
    t0 = Clock::now();
    const std::uint64_t version = exp_->publish_monitor(mlp, *registry_);
    t1 = Clock::now();
    layers.publish_s = seconds_between(t0, t1);

    t0 = Clock::now();
    model_ = registry_->load(version);
    t1 = Clock::now();
    layers.load_s = seconds_between(t0, t1);

    window_ = exp_->config().dataset.window;
    serve::EngineConfig cfg = engine_config(window_);
    cfg.initial_model_version = version;
    t0 = Clock::now();
    engine_ = std::make_unique<serve::Engine>(*model_.monitor, cfg);
    t1 = Clock::now();
    layers.engine_build_s = seconds_between(t0, t1);

    // The schedule of every cycle, generated as loadgen replays it; steady
    // traffic must give the same plan each time, so only one is kept.
    traces_ = &exp_->test_traces();
    loadgen::SessionChurner churner(steady_traffic(), args.seed, /*first_id=*/0);
    layers.plan_s = 0;
    for (std::int64_t t = 0; t < kWarmupCycles + measured_cycles; ++t) {
      t0 = Clock::now();
      loadgen::TickPlan p = churner.plan(t);
      t1 = Clock::now();
      layers.plan_s += seconds_between(t0, t1);
      if (t == 0) {
        plan_ = std::move(p);
      } else if (!p.closes.empty() || p.submits != plan_.submits) {
        plan_changes_ += 1;
      }
    }
    for (std::int64_t t = 0; t < kWarmupCycles; ++t) cycle(CycleMode::kWarmup);
  }

  [[nodiscard]] Sink& sink() { return sink_; }
  [[nodiscard]] const CallTimes& call_times() const { return calls_; }
  [[nodiscard]] serve::Engine& engine() { return *engine_; }
  [[nodiscard]] monitor::MlMonitor& model() { return *model_.monitor; }
  [[nodiscard]] int window() const { return window_; }
  [[nodiscard]] const loadgen::TickPlan& plan() const { return plan_; }
  /// Cycles whose generated plan differed from the first (must be 0).
  [[nodiscard]] std::int64_t plan_changes() const { return plan_changes_; }

  /// The record session `id` submits on cycle `t`: a pure function of
  /// (id, t) over the seeded test traces, as loadgen::Workload replays.
  [[nodiscard]] const sim::StepRecord& record_for(SessionId id,
                                                  std::int64_t t) const {
    const auto& steps = (*traces_)[id % traces_->size()].steps;
    return steps[(id + static_cast<std::uint64_t>(t)) % steps.size()];
  }

  /// Run the next cycle.
  void cycle(CycleMode mode) {
    const std::int64_t t = next_cycle_++;
    const bool traced = mode == CycleMode::kTraced;
    const std::size_t n = plan_.submits.size();
    submit_cpu_ns_.resize(n / kLatencyStride + 1);
    status_.resize(n);

    const Clock::time_point start = Clock::now();
    const std::int64_t cpu_start = cpu_now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      const SessionId id = plan_.submits[i];
      const sim::StepRecord& rec = record_for(id, t);
      if (traced) {
        const Clock::time_point s0 = Clock::now();
        status_[i] = engine_->try_submit(id, rec);
        calls_.submit_s += seconds_between(s0, Clock::now());
      } else {
        if (i % kLatencyStride == 0) submit_cpu_ns_[i / kLatencyStride] = cpu_now_ns();
        status_[i] = engine_->try_submit(id, rec);
      }
    }
    const Clock::time_point tick0 = traced ? Clock::now() : Clock::time_point{};
    const std::vector<serve::VerdictEvent> events = engine_->tick();
    const std::int64_t cpu_end = cpu_now_ns();
    const Clock::time_point end = Clock::now();
    if (traced) {
      calls_.tick_s += seconds_between(tick0, end);
      calls_.region_s += seconds_between(start, end);
      calls_.verdicts += events.size();
    }
    observe(mode, t, events, end - start, cpu_start, cpu_end);
  }

 private:
  /// Between-cycle bookkeeping; never inside the timed region.
  void observe(CycleMode mode, std::int64_t t,
               const std::vector<serve::VerdictEvent>& events,
               Clock::duration wall, std::int64_t cpu_start, std::int64_t cpu_end) {
    const std::vector<SessionId>& submits = plan_.submits;
    for (std::size_t i = 0; i < submits.size(); ++i) {
      ++sink_.submits;
      if (status_[i] != serve::SubmitStatus::kAccepted) {
        ++sink_.rejected;
        continue;
      }
      const SessionId id = submits[i];
      if (id % kSampleStride == 0) sink_.samples[id].steps.push_back(&record_for(id, t));
    }
    const std::int64_t drain_tick = engine_->ticks() - 1;
    for (const serve::VerdictEvent& ev : events) {
      const std::string line = loadgen::format_verdict(ev);
      sink_.stream_hash.update(line.data(), line.size());
      if (ev.ingest_tick != drain_tick) ++sink_.stale_verdicts;
      if (ev.session % kSampleStride == 0) {
        sink_.samples[ev.session].verdicts.push_back(ev);
      }
    }
    sink_.verdicts += events.size();
    if (mode != CycleMode::kTimed) return;

    sink_.cycle_s.push_back(cpu_seconds_between(cpu_start, cpu_end));
    sink_.cycle_wall_s.push_back(std::chrono::duration<double>(wall).count());
    sink_.cycle_verdicts.push_back(static_cast<double>(events.size()));
    std::size_t samples = 0;
    for (const serve::VerdictEvent& ev : events) {
      // submits is ascending and each session submits once per cycle, so
      // the verdict's record is found by binary search.
      const auto it = std::lower_bound(submits.begin(), submits.end(), ev.session);
      if (it == submits.end() || *it != ev.session) {
        ++sink_.stale_verdicts;  // no record of this cycle completed it
        continue;
      }
      const auto i = static_cast<std::size_t>(it - submits.begin());
      if (i % kLatencyStride != 0) continue;
      const std::int64_t ns = cpu_end - submit_cpu_ns_[i / kLatencyStride];
      sink_.latency_ns.push_back(static_cast<std::uint32_t>(
          std::clamp<std::int64_t>(ns, 0, 0xffffffffLL)));
      ++samples;
    }
    sink_.cycle_latency_samples.push_back(static_cast<double>(samples));
  }

  std::unique_ptr<core::Experiment> exp_;
  std::unique_ptr<registry::ModelRegistry> registry_;
  registry::ModelRegistry::LoadedModel model_;
  std::unique_ptr<serve::Engine> engine_;
  const std::vector<sim::Trace>* traces_ = nullptr;
  int window_ = 0;
  loadgen::TickPlan plan_;
  std::int64_t plan_changes_ = 0;
  std::int64_t next_cycle_ = 0;
  std::vector<std::int64_t> submit_cpu_ns_;  // every kLatencyStride-th submit
  std::vector<serve::SubmitStatus> status_;
  Sink sink_;
  CallTimes calls_;
};

/// Output check: digest, verdict conservation, and every sampled session
/// replayed through a dedicated OnlineMonitor, compared bit for bit.
void check_output(ServeRig& rig, Result& result) {
  Sink& sink = rig.sink();
  std::array<std::uint8_t, 32> digest = sink.stream_hash.digest();
  result.note("verdict_stream_sha256", to_hex(digest.data(), digest.size()));
  result.note("verdicts", std::to_string(sink.verdicts));
  result.note("checked_sessions", std::to_string(sink.samples.size()));

  if (rig.plan_changes() != 0) {
    result.fail_check("steady traffic plan changed between cycles");
  }
  if (sink.stale_verdicts != 0) {
    result.fail_check("verdicts delivered after their ingest tick");
  }
  if (rig.engine().queue_depth() != 0) {
    result.fail_check("queue not empty after the final tick");
  }
  if (sink.verdicts != rig.engine().stats().windows_flushed) {
    result.fail_check("verdicts delivered != windows flushed");
  }
  if (sink.samples.empty()) result.fail_check("no session sampled");

  const std::unique_ptr<monitor::MlMonitor> mon = rig.model().clone();
  std::uint64_t compared = 0;
  for (const auto& [id, log] : sink.samples) {
    core::OnlineMonitor online(*mon, rig.window());
    std::size_t next = 0;
    bool ok = true;
    for (const sim::StepRecord* record : log.steps) {
      const core::OnlineVerdict v = online.step(*record);
      if (!v.ready) continue;
      if (next >= log.verdicts.size()) {
        ok = false;
        break;
      }
      const serve::VerdictEvent& ev = log.verdicts[next++];
      ok = ok && ev.prediction == v.prediction &&
           bits_of(ev.p_unsafe) == bits_of(v.p_unsafe) &&
           ev.cycle == online.cycles_seen() - 1;
      ++compared;
    }
    if (!ok || next != log.verdicts.size()) {
      result.fail_check("session " + std::to_string(id) +
                        " differs from its OnlineMonitor");
    }
  }
  result.note("checked_verdicts", std::to_string(compared));
}

/// Timed microbenchmark results are stored here so the loops stay live.
volatile float g_sink = 0;

/// Median ns per record of the ingest path (feature fill + scaling) over
/// the workload's own records.
double ingest_ns_per_record(const ServeRig& rig, monitor::MlMonitor& mon) {
  constexpr int kCycles = 32;
  constexpr int kReps = 5;
  std::vector<const sim::StepRecord*> records;
  for (int t = 0; t < kCycles; ++t) {
    for (const SessionId id : rig.plan().submits) records.push_back(&rig.record_for(id, t));
  }
  std::vector<float> row(monitor::Features::kNumFeatures);
  std::vector<double> per_record;
  for (int r = 0; r < kReps; ++r) {
    float sum = 0;
    const auto t0 = Clock::now();
    for (const sim::StepRecord* rec : records) {
      monitor::fill_features(*rec, row);
      mon.scaler().transform_row(row);
      sum += row[0];
    }
    per_record.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                         static_cast<double>(records.size()));
    g_sink = sum;
  }
  return median(per_record);
}

/// Median ns per window of one single-threaded forward pass over a batch
/// of kMaxBatch windows built from the workload's records.
double forward_ns_per_window(const ServeRig& rig, monitor::MlMonitor& mon) {
  constexpr int kCalls = 200;
  const int window = rig.window();
  constexpr int kF = monitor::Features::kNumFeatures;
  const std::vector<SessionId>& submits = rig.plan().submits;
  nn::Tensor3 batch(kMaxBatch, window, kF);
  std::vector<float> row(kF);
  for (int b = 0; b < kMaxBatch; ++b) {
    const SessionId id = submits[static_cast<std::size_t>(b) % submits.size()];
    for (int t = 0; t < window; ++t) {
      monitor::fill_features(rig.record_for(id, t), row);
      mon.scaler().transform_row(row);
      for (int f = 0; f < kF; ++f) batch.at(b, t, f) = row[static_cast<std::size_t>(f)];
    }
  }
  const std::size_t saved = util::max_parallelism();
  util::set_max_parallelism(1);
  std::vector<double> per_window;
  for (int c = 0; c < kCalls; ++c) {
    const auto t0 = Clock::now();
    const nn::Matrix probs = eval::batched_predict_proba_scaled(mon, batch);
    per_window.push_back(seconds_between(t0, Clock::now()) * 1e9 / kMaxBatch);
    g_sink = probs.at(kMaxBatch - 1, 1);
  }
  util::set_max_parallelism(saved);
  return median(per_window);
}

}  // namespace

Result run_serve(const RunArgs& args) {
  util::set_max_parallelism(kPoolThreads);
  Result result;
  add_provenance(result, args);
  const auto cycles = std::max<std::int64_t>(
      1, std::llround(kCyclesPerSecond * static_cast<double>(args.seconds)));
  result.note("sessions", std::to_string(kSessions));
  result.note("shards", std::to_string(kShards));
  result.note("max_batch", std::to_string(kMaxBatch));
  result.note("cycles", std::to_string(cycles));
  result.note("campaign", std::to_string(kServeCampaign.patients) + "x" +
                              std::to_string(kServeCampaign.sims_per_patient) +
                              " epochs " + std::to_string(kServeCampaign.epochs));
  const long long steal0 = steal_ticks();

  // Untraced runs set up kSetupReps times and report the median; the last
  // rig runs the timed region. Traced runs set up once.
  const int reps = args.trace ? 1 : kSetupReps;
  std::unique_ptr<ServeRig> rig;
  SetupLayers layers;
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  for (int rep = 0; rep < reps; ++rep) {
    rig.reset();
    const std::int64_t c0 = cpu_now_ns();
    const auto t0 = Clock::now();
    rig = std::make_unique<ServeRig>(args, rep, cycles, layers);
    setup_wall_s.push_back(seconds_between(t0, Clock::now()));
    setup_s.push_back(cpu_seconds_between(c0, cpu_now_ns()));
  }
  Sink& sink = rig->sink();

  if (!args.trace) {
    for (std::int64_t c = 0; c < cycles; ++c) rig->cycle(CycleMode::kTimed);
    result.add("windows_per_s",
               block_median_rate(sink.cycle_verdicts, sink.cycle_s, kBlocks),
               "windows/s");
    const std::span<std::uint32_t> lat(sink.latency_ns);
    result.note("latency_samples", std::to_string(lat.size()));
    for (const auto& [name, p] : {std::pair{"verdict_latency_p50_ms", 50.0},
                                  std::pair{"verdict_latency_p99_ms", 99.0}}) {
      result.add(name,
                 block_median_percentile(lat, sink.cycle_latency_samples, kBlocks, p) / 1e6,
                 "ms");
    }
    result.add("setup_s", median(setup_s), "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MiB");
  } else {
    // The fixed work runs in alternating untraced and traced blocks, so
    // the trace overhead compares like with like.
    constexpr std::int64_t kBlock = 20;
    ObsDelta delta;
    for (std::int64_t done = 0; done < cycles;) {
      const std::int64_t n = std::min(kBlock, cycles - done);
      const bool traced_block = (done / kBlock) % 2 == 1;
      if (traced_block) delta.begin();
      for (std::int64_t c = 0; c < n; ++c) {
        rig->cycle(traced_block ? CycleMode::kTraced : CycleMode::kTimed);
      }
      if (traced_block) delta.end();
      done += n;
    }
    // Wall time throughout: the traced calls are timed on the wall clock,
    // and at kScalingThreads CPU time would count every thread.
    const CallTimes& calls = rig->call_times();
    const double untraced_wps =
        block_median_rate(sink.cycle_verdicts, sink.cycle_wall_s, kBlocks);
    const double traced_wps = static_cast<double>(calls.verdicts) / calls.region_s;

    // Thread scaling: the traffic continued at kScalingThreads. Pool
    // counters come from this segment, where fan-out can happen.
    const std::size_t first = sink.cycle_s.size();
    util::set_max_parallelism(kScalingThreads);
    ObsDelta pool;
    pool.begin();
    for (std::int64_t c = 0; c < cycles / 4; ++c) rig->cycle(CycleMode::kTimed);
    pool.end();
    util::set_max_parallelism(kPoolThreads);
    const auto tail = [&](const std::vector<double>& v) {
      return std::span<const double>(v).subspan(first);
    };
    const double scaling =
        block_median_rate(tail(sink.cycle_verdicts), tail(sink.cycle_wall_s), kBlocks) /
        untraced_wps;

    const std::unique_ptr<monitor::MlMonitor> mon = rig->model().clone();
    result.add("sim.generate_s", layers.generate_s, "s");
    result.add("monitor.dataset_s", layers.dataset_s, "s");
    result.add("nn.train_s", layers.train_s, "s");
    result.add("nn.train_samples", layers.train_samples, "count");
    result.add("registry.publish_s", layers.publish_s, "s");
    result.add("registry.load_s", layers.load_s, "s");
    result.add("serve.engine_build_s", layers.engine_build_s, "s");
    result.add("serve.submit_s", calls.submit_s, "s");
    result.add("serve.tick_s", calls.tick_s, "s");
    result.add("trace.region_s", calls.region_s, "s");
    const double flush_s = delta.get("span.serve.flush");
    result.add("serve.flush_s", flush_s, "s");
    result.add("serve.nonflush_s", calls.submit_s + calls.tick_s - flush_s, "s");
    const double flushes = delta.get("serve.flushes");
    const double flushed = delta.get("serve.windows_flushed");
    result.add("serve.records", delta.get("serve.records"), "count");
    result.add("serve.flushes", flushes, "count");
    result.add("serve.windows_flushed", flushed, "count");
    result.add("serve.batch_fill", flushes > 0 ? flushed / (flushes * kMaxBatch) : 0,
               "ratio");
    result.add("monitor.ingest_ns_per_record", ingest_ns_per_record(*rig, *mon), "ns");
    result.add("nn.forward_ns_per_window", forward_ns_per_window(*rig, *mon), "ns");
    result.add("loadgen.plan_s", layers.plan_s, "s");
    add_pool_metrics(result, pool);
    result.add("serve.scaling_3t_over_1t", scaling, "ratio");
    for (const char* name : {"monitor.clone_s", "attack.gaussian_s", "attack.fgsm_s",
                             "nn.predict_s", "eval.metrics_s"}) {
      result.add(name, 0, "s");
    }
    result.add("attack.fgsm_windows", 0, "count");
    result.add("core.sweep_imbalance", 0, "ratio");
    result.add("trace.overhead_frac", 1.0 - traced_wps / untraced_wps, "ratio");
  }

  result.note("setup_s_all", join_values(setup_s));
  result.note("setup_wall_s_all", join_values(setup_wall_s));
  double cpu_s = 0;
  double wall_s = 0;
  for (std::size_t i = 0; i < sink.cycle_s.size(); ++i) {
    cpu_s += sink.cycle_s[i];
    wall_s += sink.cycle_wall_s[i];
  }
  result.note("timed_cpu_over_wall", std::to_string(cpu_s / wall_s));
  std::vector<double> cycle_ms;
  for (const double s : sink.cycle_wall_s) cycle_ms.push_back(s * 1e3);
  std::vector<double> quartiles;
  for (const double p : {25.0, 50.0, 75.0}) {
    quartiles.push_back(percentile(std::span<double>(cycle_ms), p));
  }
  result.note("cycle_wall_ms_quartiles", join_values(quartiles));

  check_output(*rig, result);
  result.attempted = sink.submits;
  result.failed += sink.rejected;
  const long long steal1 = steal_ticks();
  result.note("steal_ticks", std::to_string(steal0 < 0 || steal1 < 0 ? -1 : steal1 - steal0));
  return result;
}

}  // namespace cpsbench
