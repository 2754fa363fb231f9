// One shard of the streaming engine: owns the sessions routed to it, their
// ring-buffered feature windows and a preallocated cross-session
// micro-batch. It scores with the engine's one immutable model: inference
// is const, so every shard holds a shared pointer to the same monitor and
// concurrent shard flushes read it without copies or locks.
//
// Rings hold *prescaled* features: each record passes through the monitor's
// StandardScaler exactly once at ingest, instead of once per overlapping
// window at flush. transform_row is bit-identical to the batch transform,
// so verdicts match the raw-window predict path bit for bit. Each session
// also keeps a raw twin of its ring (same head, same size): when a hot swap
// activates a model with a different scaler, every occupied slot is
// rewritten from the raw twin through the new scaler, so partial windows
// continue exactly as if their records had been ingested under the new
// model from the start.
//
// Locking: one mutex per shard. submit/flush/drain from different threads
// are safe; two submits for sessions on the same shard serialize, which is
// the backpressure boundary the sharding exists to spread.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "monitor/ml_monitor.h"
#include "nn/tensor3.h"
#include "serve/ring_window.h"
#include "serve/types.h"
#include "sim/trace.h"

namespace cpsguard::serve {

/// Point-in-time shard occupancy plus lifetime counters (taken under the
/// shard lock). Occupancy fields describe the current instant; the counter
/// fields are monotonic over the shard's lifetime. This is the only ledger
/// of serve events: the engine sums it across shards (EngineStats) and
/// publishes the `serve.*` registry counters from that sum at every tick.
struct ShardStats {
  std::size_t sessions = 0;
  std::size_t pending_windows = 0;    // accumulated, not yet flushed
  std::size_t undrained_verdicts = 0; // flushed, not yet drained

  std::uint64_t records = 0;          // accepted submits
  std::uint64_t windows_flushed = 0;  // verdicts produced
  std::uint64_t flushes = 0;          // micro-batch inference calls
  std::uint64_t closed = 0;           // explicit close() calls that hit
  std::uint64_t evicted = 0;          // idle-TTL evictions
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_session_limit = 0;
  std::uint64_t swaps = 0;            // model activations (hot swaps)
  std::uint64_t shadow_windows = 0;   // windows dual-scored by a shadow model
  std::uint64_t shadow_disagree = 0;  // shadow vs active prediction mismatches

  [[nodiscard]] std::size_t queue_depth() const {
    return pending_windows + undrained_verdicts;
  }
  /// Field-wise sum (occupancy and counters alike).
  ShardStats& operator+=(const ShardStats& other);
};

class SessionShard {
 public:
  /// Scores with the shared, trained `mon`. `session_budget` is the
  /// engine-wide open-session budget this shard draws on when it admits a
  /// new session (decremented back by close()).
  SessionShard(std::shared_ptr<const monitor::MlMonitor> mon,
               const EngineConfig& config,
               std::atomic<std::int64_t>& session_budget);

  /// Ingest one record. On admission the record is committed into its
  /// session's ring; if that completes a window, the window is staged into
  /// the micro-batch and a batch-full shard flushes inline. On rejection
  /// nothing is mutated — the session window does not advance. `now_tick`
  /// is the engine's current tick index: it stamps the staged window's
  /// VerdictEvent and refreshes the session's idle-TTL clock.
  [[nodiscard]] SubmitStatus submit(SessionId id, const sim::StepRecord& rec,
                                    std::int64_t now_tick);

  /// Flush the partial micro-batch (the engine's cycle tick).
  void flush();

  /// Move every completed verdict (ingest order) into `out`.
  void drain(std::vector<VerdictEvent>& out);

  /// Forget a session's window state. Windows already staged for this
  /// session still produce their verdicts. Returns false if unknown.
  bool close(SessionId id);

  /// Evict every session whose last submit is more than `ttl` ticks old
  /// (last_seen < now_tick - ttl), in ascending session-id order, appending
  /// the evicted ids to `evicted`. Semantically identical to close() per
  /// session (budget returns, staged windows still verdict).
  void evict_idle(std::int64_t now_tick, std::int64_t ttl,
                  std::vector<SessionId>& evicted);

  /// Install `mon` as the shadow scorer (nullptr removes it). Installing
  /// flushes the partial batch first, so shadow rows stay aligned with the
  /// active batch from the next window on; removing does not flush.
  void set_shadow(std::shared_ptr<const monitor::MlMonitor> mon,
                  std::uint64_t version);

  /// Epoch-boundary activation of `mon` as `version`: flush any straggler
  /// windows under the outgoing model, swap, then rescale every live
  /// session ring from its raw twin so partial windows continue
  /// bit-identically to fresh ingest under the new scaler.
  void activate(std::shared_ptr<const monitor::MlMonitor> mon,
                std::uint64_t version);

  [[nodiscard]] ShardStats stats() const;

 private:
  void flush_locked();
  void rescale_sessions_locked();

  const EngineConfig config_;
  std::atomic<std::int64_t>& session_budget_;

  // The engine's models, shared with every other shard and never written.
  // `shadow_` dual-scores without verdicting. Both pointers change only
  // under the shard lock; staging and rollback live in the Engine.
  std::shared_ptr<const monitor::MlMonitor> monitor_;
  std::uint64_t version_;
  std::shared_ptr<const monitor::MlMonitor> shadow_;
  std::uint64_t shadow_version_ = 0;

  struct Session {
    explicit Session(const EngineConfig& cfg);
    RingWindow ring;             // prescaled (active model's scaler space)
    RingWindow raw;              // raw twin, advanced in lockstep with ring
    int cycles = 0;              // records ingested for this session
    std::int64_t last_seen = 0;  // engine tick index of the last submit
  };

  mutable std::mutex mutex_;
  std::unordered_map<SessionId, Session> sessions_;
  nn::Tensor3 batch_;                  // (max_batch, window, features)
  nn::Tensor3 shadow_batch_;           // allocated on first shadow stage
  std::vector<VerdictEvent> pending_;  // batch_ rows [0, pending_.size())
  std::vector<VerdictEvent> done_;
  ShardStats counters_;  // lifetime counters (occupancy filled by stats())
};

}  // namespace cpsguard::serve
