// Invariant checking for loadgen runs against serve::Engine.
//
// The checker mirrors the engine's verdict contract from the outside,
// using only what a real client could observe: which submits were
// accepted, which sessions ended (explicit close or TTL eviction), and
// the drained verdict stream. It enforces, throwing InvariantViolation on
// the first breach:
//
//   * Verdict conservation — every accepted record that completes a
//     window produces exactly one verdict; no verdict appears for a
//     window that was never completed; nothing is outstanding once the
//     run finishes and the engine reports an empty queue.
//   * Per-session ingest-order monotonicity — a session's verdicts arrive
//     in exactly the cycle order its windows completed; after a session
//     ends and the id readmits, cycles restart at window-1 (old-epoch
//     verdicts, which may still be staged, must fully drain first).
//   * Bounded queue depth — engine.queue_depth() never exceeds
//     shards * queue_capacity, and is zero right after every tick()
//     (tick flushes every staged window and drains every verdict).
//   * Micro-batch version purity (when constructed with the shard count) —
//     all verdicts of one (shard, flush_seq) micro-batch carry the same
//     model_version: a hot swap must never split a batch across models.
//
// InvariantViolation deliberately does NOT derive from CpsError: a breach
// is a harness-detected engine bug, and must never be swallowed by code
// that catches the domain error taxonomy (same rationale as
// fuzz::InvariantViolation).
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "serve/types.h"

namespace cpsguard::loadgen {

class InvariantViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

class InvariantChecker {
 public:
  /// `window` must match the engine's; `queue_bound` is the hard depth
  /// bound (shards * queue_capacity). `shards` (the engine's shard count)
  /// enables the micro-batch version-purity check — 0 turns it off (for
  /// callers that predate model versioning).
  InvariantChecker(int window, std::size_t queue_bound, int shards = 0);

  /// The engine accepted a record for `id` (kAccepted from try_submit).
  void on_accepted(serve::SessionId id);

  /// `id`'s session ended — close_session() returned true, or the engine
  /// reported it in evicted_last_tick(). Its next accepted record starts
  /// a fresh window epoch.
  void on_session_end(serve::SessionId id);

  /// Verdicts drained at `drain_tick` (engine.ticks() before the tick()
  /// call that produced them). Checks order + conservation, accumulates
  /// latency (drain_tick - ingest_tick) into the latency histogram.
  void on_verdicts(std::span<const serve::VerdictEvent> events,
                   std::int64_t drain_tick);

  /// Sample the queue depth (call between submits and tick); enforces the
  /// hard bound.
  void on_queue_depth(std::size_t depth);

  /// Call right after every tick() with engine.queue_depth(): the queue
  /// must be fully drained.
  void on_tick_complete(std::size_t queue_depth_after_tick);

  /// End-of-run conservation: no expected verdict is still outstanding
  /// and the engine queue is empty. Call after the final tick() with
  /// engine.queue_depth().
  void finish(std::size_t engine_queue_depth) const;

  [[nodiscard]] std::size_t max_queue_depth() const {
    return max_queue_depth_;
  }
  /// latency_counts()[L] = number of verdicts delivered L ticks after
  /// their window's last record was ingested. Exact (integer latencies),
  /// so percentiles over it are exact — see latency_percentile().
  [[nodiscard]] const std::vector<std::uint64_t>& latency_counts() const {
    return latency_counts_;
  }

 private:
  struct SessionState {
    std::int64_t accepted = 0;  // records accepted since epoch start
    std::deque<int> expected;   // staged window cycles awaiting verdicts
  };

  int window_;
  std::size_t queue_bound_;
  int shards_;
  std::unordered_map<serve::SessionId, SessionState> sessions_;
  // (shard << 48 | flush_seq) → the model_version first seen for that
  // micro-batch; any later verdict of the batch must match.
  std::unordered_map<std::uint64_t, std::uint64_t> batch_version_;
  std::size_t max_queue_depth_ = 0;
  std::vector<std::uint64_t> latency_counts_;
};

/// Exact q-quantile (q in [0,1]) of the integer distribution encoded by
/// `counts` (nearest-rank); 0 on an empty distribution.
[[nodiscard]] double latency_percentile(
    const std::vector<std::uint64_t>& counts, double q);

}  // namespace cpsguard::loadgen
