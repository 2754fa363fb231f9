// End-to-end workload driver: seeded churned traffic through serve::Engine
// with invariant checking, latency accounting, and a serialized verdict
// stream for byte-identity oracles.
//
// One Workload owns a trained monitor reference, a pool of replay traces
// (the record source — session `id` at tick `t` streams a pure function of
// (id, t), so every run of the same config replays identical records), and
// a WorkloadConfig. run() constructs a fresh engine + churner + checker
// every call, so the same Workload replays under different scheduling
// (serial vs pooled) or different engine knobs for the oracles:
//
//   * serial-vs-pooled: run() twice around util::set_max_parallelism —
//     stream_sha256 must match.
//   * TTL-equivalence: run A with idle_ttl_ticks set records an eviction
//     log; run B with TTL off replays that log as explicit closes at the
//     same tick boundaries — streams must match byte for byte, pinning
//     "eviction == close at the eviction point".
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "loadgen/churner.h"
#include "loadgen/invariants.h"
#include "loadgen/traffic.h"
#include "monitor/ml_monitor.h"
#include "serve/engine.h"
#include "sim/trace.h"

namespace cpsguard::loadgen {

struct WorkloadConfig {
  TrafficConfig traffic;
  serve::EngineConfig engine;
  /// Cycles to drive; every cycle ends in one engine.tick().
  std::int64_t ticks = 100;
  /// Seeds the churner's schedule stream.
  std::uint64_t seed = 42;
  /// First fresh session id (offset to keep concurrent workloads disjoint).
  serve::SessionId first_session_id = 1;
  /// Keep the raw serialized verdict stream in the report (identity
  /// debugging); stream_sha256 is always computed.
  bool record_stream = false;
  /// Throw InvariantViolation on any contract breach (leave on; off only
  /// to measure checker overhead).
  bool check_invariants = true;
  /// Stage a hot swap every this many ticks (0 disables). With an empty
  /// swap pool the workload restages its own monitor under the *same*
  /// version — a no-op swap whose verdict stream must be byte-identical to
  /// a swap-free run (the oracle test_serve pins). With a pool the
  /// workload round-robins through it, bumping the version each swap, and
  /// the invariant checker enforces batch purity across the transitions.
  std::int64_t swap_every = 0;
};

/// One TTL eviction observed at a tick boundary; a run's log replays in a
/// TTL-off run as explicit closes (see class comment).
struct EvictionEvent {
  std::int64_t tick = 0;
  serve::SessionId id = 0;
};

struct WorkloadReport {
  // Admission.
  std::uint64_t accepted = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_session_limit = 0;
  // Output.
  std::uint64_t verdicts = 0;
  std::string stream_sha256;
  std::string stream;  // only when record_stream
  // Churn.
  std::uint64_t distinct_sessions = 0;
  std::uint64_t joins = 0;
  std::uint64_t rejoins = 0;
  std::uint64_t closes = 0;
  std::uint64_t abandons = 0;
  std::uint64_t peak_active = 0;
  std::vector<EvictionEvent> eviction_log;  // one entry per TTL eviction
  // Hot swaps staged by the drive loop (activated at the next tick each).
  std::uint64_t swaps = 0;
  // Load.
  std::size_t max_queue_depth = 0;
  std::vector<std::uint64_t> latency_counts;  // see InvariantChecker
  double seconds = 0.0;  // wall clock around the drive loop
  serve::EngineStats final_stats;
};

class Workload {
 public:
  /// `mon` must be trained and outlive the workload; `traces` is the
  /// record source (non-empty, each trace non-empty) and is copied.
  Workload(const monitor::MlMonitor& mon, std::vector<sim::Trace> traces,
           WorkloadConfig config);

  /// Drive the engine for config.ticks cycles. `forced_closes` (sorted by
  /// tick — e.g. another run's eviction_log) are applied as explicit
  /// close_session calls right after the tick they name.
  [[nodiscard]] WorkloadReport run(
      std::span<const EvictionEvent> forced_closes = {}) const;

  [[nodiscard]] const WorkloadConfig& config() const { return config_; }

  /// Monitors the drive loop round-robins through when swap_every fires
  /// (see WorkloadConfig::swap_every). Each must be trained and outlive the
  /// workload; not copied. An empty pool means no-op self-swaps.
  void set_swap_pool(std::vector<const monitor::MlMonitor*> pool);

  /// The record session `id` submits at tick `t` (pure; exposed for
  /// tests).
  [[nodiscard]] const sim::StepRecord& record_for(serve::SessionId id,
                                                  std::int64_t t) const;

 private:
  const monitor::MlMonitor& monitor_;
  std::vector<sim::Trace> traces_;
  WorkloadConfig config_;
  std::vector<const monitor::MlMonitor*> swap_pool_;
};

/// Serialize one verdict event the way the loadgen stream hashes it:
/// "session,cycle,prediction,ingest_tick,model_version,p_bits\n" with
/// p_unsafe as raw IEEE-754 bits (byte identity, not closeness).
[[nodiscard]] std::string format_verdict(const serve::VerdictEvent& ev);

}  // namespace cpsguard::loadgen
