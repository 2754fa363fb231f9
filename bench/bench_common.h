// Shared configuration for the figure/table reproduction benches.
//
// Every bench uses the same ExperimentConfig defaults so trained monitors are
// shared through the on-disk cache (cpsguard_cache/): the first bench to run
// pays the training cost, later benches reload the same models — mirroring
// how the paper evaluates one set of trained monitors across all figures.
//
// Common flags (all benches):
//   --patients N   patient profiles per simulator   (default 20, paper: 20)
//   --sims N       simulations per patient          (default 5)
//   --steps N      5-min cycles per simulation      (default 150, paper: 150)
//   --epochs N     training epochs                  (default 10)
//   --seed S       campaign seed                    (default 42)
//   --w W          semantic-loss weight, Eq. 2, both archs
//   --w-mlp/--w-lstm  per-architecture weights      (defaults 0.5 / 1.0)
//   --cache DIR    model cache dir ("" disables)    (default cpsguard_cache)
//   --out FILE     CSV output path ("" disables)    (default <bench>.csv)
//   --threads N    cap parallel fan-out at N shards (default 0 = all cores)
//   --manifest B   write BENCH_<name>.json          (default true)
//   --events FILE  append NDJSON events to FILE     (default off)
//   --checkpoint DIR  persist sweep points + model snapshots to DIR; an
//                  existing DIR is resumed (default off)
//   --resume       shorthand for --checkpoint <bench>_ckpt
//   --deadline-s S soft campaign deadline: sweeps stop cooperatively after
//                  S seconds (exit 3); rerun with --resume to continue
//
// Every bench owns a BenchRun: it parses the observability flags, routes all
// CSV output through the run manifest (so a bench *cannot* silently write an
// unregistered CSV), and finishes by dumping BENCH_<name>.json — git SHA,
// build flags, seeds, thread counts, per-phase timing quantiles, counters,
// and the SHA-256 of every CSV written. See DESIGN.md § Observability.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "core/cpsguard.h"
#include "nn/simd_kernels.h"
#include "obs/events.h"
#include "obs/manifest.h"
#include "util/deadline.h"
#include "util/thread_pool.h"

namespace cpsguard::bench {

inline core::ExperimentConfig bench_config(sim::Testbed tb,
                                           const util::Cli& cli) {
  core::ExperimentConfig cfg;
  cfg.campaign.testbed = tb;
  cfg.campaign.patients = cli.get_int("patients", 20);
  cfg.campaign.sims_per_patient = cli.get_int("sims", 5);
  cfg.campaign.trace_steps = cli.get_int("steps", 150);
  cfg.campaign.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  cfg.epochs = cli.get_int("epochs", 10);
  const double w_both = cli.get_double("w", -1.0);
  cfg.semantic_weight_mlp = cli.get_double("w-mlp", w_both > 0 ? w_both : 0.5);
  cfg.semantic_weight_lstm = cli.get_double("w-lstm", w_both > 0 ? w_both : 1.0);
  cfg.cache_dir = cli.get("cache", "cpsguard_cache");
  return cfg;
}

/// Fail loudly on mistyped flags after all get() calls are done.
inline void reject_unknown_flags(const util::Cli& cli) {
  const auto unused = cli.unused();
  if (unused.empty()) return;
  std::string msg = "unknown flags:";
  for (const auto& f : unused) msg += " --" + f;
  std::fprintf(stderr, "%s\n", msg.c_str());
  std::exit(2);
}

/// One bench invocation: observability flags, manifest, and the only CSV
/// output path. Construct it first thing in main(); call finish() last.
class BenchRun {
 public:
  BenchRun(std::string name, const util::Cli& cli)
      : name_(std::move(name)), manifest_(name_) {
    const int threads = cli.get_int("threads", 0);
    if (threads > 0) {
      util::set_max_parallelism(static_cast<std::size_t>(threads));
    }
    manifest_enabled_ = cli.get_bool("manifest", true);
    const std::string events = cli.get("events", "");
    if (!events.empty()) obs::enable_events(events);
    manifest_.set_threads(std::thread::hardware_concurrency(),
                          util::max_parallelism());
    manifest_.set_param("simd_kernel", nn::simd_kernel_name());
    out_ = cli.get("out", name_ + ".csv");

    // Crash-safe campaigns: --resume / --checkpoint open a store whose
    // records survive kills; --deadline-s arms the cooperative watchdog.
    const bool resume = cli.get_bool("resume", false);
    const std::string ckpt_dir =
        cli.get("checkpoint", resume ? name_ + "_ckpt" : "");
    if (!ckpt_dir.empty()) {
      store_ = std::make_unique<core::CheckpointStore>(ckpt_dir);
      if (!store_->parent_run_id().empty()) {
        std::fprintf(stderr, "resuming campaign from %s (parent run %s)\n",
                     ckpt_dir.c_str(), store_->parent_run_id().c_str());
      }
    }
    const double deadline_s = cli.get_double("deadline-s", 0.0);
    if (deadline_s > 0.0) {
      util::set_global_deadline(util::Deadline::after_seconds(deadline_s));
    }
  }

  /// Attach the run's checkpoint store (if any) to an experiment. Call for
  /// every Experiment the bench constructs, before training or sweeping.
  void attach(core::Experiment& exp) {
    if (store_) exp.set_checkpoint_store(store_.get());
  }

  [[nodiscard]] core::CheckpointStore* checkpoint_store() {
    return store_.get();
  }

  /// Run the campaign body with deadline-aware termination: on
  /// DeadlineExceeded the partial work is already checkpointed, so report,
  /// finish the manifest (lineage included), and exit 3 — the documented
  /// "rerun with --resume" status. Returns the process exit code.
  template <typename Fn>
  int campaign(const util::Cli& cli, Fn&& body) {
    try {
      body();
    } catch (const util::DeadlineExceeded& e) {
      std::fprintf(stderr,
                   "deadline exceeded (%s); completed points are "
                   "checkpointed — rerun with --resume to continue\n",
                   e.what());
      finish(cli);
      return 3;
    }
    finish(cli);
    return 0;
  }

  /// bench_config() plus manifest bookkeeping (seed and sweep parameters).
  core::ExperimentConfig config(sim::Testbed tb, const util::Cli& cli) {
    core::ExperimentConfig cfg = bench_config(tb, cli);
    manifest_.set_seed(cfg.campaign.seed);
    manifest_.set_param("testbed", sim::to_string(tb));
    manifest_.set_param("patients",
                        static_cast<long long>(cfg.campaign.patients));
    manifest_.set_param("sims_per_patient",
                        static_cast<long long>(cfg.campaign.sims_per_patient));
    manifest_.set_param("trace_steps",
                        static_cast<long long>(cfg.campaign.trace_steps));
    manifest_.set_param("epochs", static_cast<long long>(cfg.epochs));
    manifest_.set_param("w_mlp", cfg.semantic_weight_mlp);
    manifest_.set_param("w_lstm", cfg.semantic_weight_lstm);
    manifest_.set_param("cache_dir", cfg.cache_dir);
    return cfg;
  }

  /// The --out path ("" when the caller disabled CSV output).
  [[nodiscard]] const std::string& out() const { return out_; }

  obs::RunManifest& manifest() { return manifest_; }

  /// Write the bench's CSV to --out and register its hash in the manifest.
  void write_csv(const util::CsvWriter& csv) { write_csv(csv, out_); }

  /// Same, to an explicit path (extra outputs beyond --out).
  void write_csv(const util::CsvWriter& csv, const std::string& path) {
    if (path.empty()) return;
    csv.write(path);
    manifest_.record_output(path, csv.rows());
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  }

  /// Reject typos, then (unless --manifest false) write BENCH_<name>.json.
  void finish(const util::Cli& cli) {
    reject_unknown_flags(cli);
    if (store_) manifest_.set_resume(store_->resume_info());
    if (manifest_enabled_) {
      const std::string path = manifest_.write();
      std::fprintf(stderr, "wrote %s\n", path.c_str());
    }
  }

 private:
  std::string name_;
  obs::RunManifest manifest_;
  std::string out_;
  bool manifest_enabled_ = true;
  std::unique_ptr<core::CheckpointStore> store_;
};

/// The σ sweep of Fig. 5/6/9 and the ε sweep of Fig. 8/9/10.
inline const std::vector<double>& sigma_sweep() {
  static const std::vector<double> v = {0.1, 0.25, 0.5, 0.75, 1.0};
  return v;
}
inline const std::vector<double>& epsilon_sweep() {
  static const std::vector<double> v = {0.01, 0.05, 0.1, 0.15, 0.2};
  return v;
}

inline const std::vector<sim::Testbed>& both_testbeds() {
  static const std::vector<sim::Testbed> v = {
      sim::Testbed::kGlucosymOpenAps, sim::Testbed::kT1dBasalBolus};
  return v;
}

}  // namespace cpsguard::bench
