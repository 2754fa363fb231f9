#include "loadgen/invariants.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "serve/stable_hash.h"
#include "util/contracts.h"

namespace cpsguard::loadgen {

namespace {

[[noreturn]] void violate(const std::string& what) {
  throw InvariantViolation("loadgen invariant violated: " + what);
}

}  // namespace

InvariantChecker::InvariantChecker(int window, std::size_t queue_bound,
                                   int shards)
    : window_(window), queue_bound_(queue_bound), shards_(shards) {
  expects(window > 0, "invariant checker: window must be positive");
  expects(queue_bound > 0, "invariant checker: queue bound must be positive");
  expects(shards >= 0, "invariant checker: shards must be >= 0");
}

void InvariantChecker::on_accepted(serve::SessionId id) {
  SessionState& s = sessions_[id];
  ++s.accepted;
  // The record that fills the window — and every one after it — stages
  // exactly one window whose verdict must carry this cycle index.
  if (s.accepted >= window_) {
    s.expected.push_back(static_cast<int>(s.accepted - 1));
  }
}

void InvariantChecker::on_session_end(serve::SessionId id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;  // ended before ever being accepted
  // New epoch: the ring restarts empty on readmission. Old-epoch windows
  // already staged keep their queued expected cycles — they still verdict,
  // and in ingest order they drain before any new-epoch verdict.
  it->second.accepted = 0;
}

void InvariantChecker::on_verdicts(
    std::span<const serve::VerdictEvent> events, std::int64_t drain_tick) {
  for (const serve::VerdictEvent& ev : events) {
    const auto it = sessions_.find(ev.session);
    if (it == sessions_.end() || it->second.expected.empty()) {
      violate("conservation: verdict for session " +
              std::to_string(ev.session) + " cycle " +
              std::to_string(ev.cycle) + " has no completed window");
    }
    std::deque<int>& expected = it->second.expected;
    if (expected.front() != ev.cycle) {
      violate("ingest order: session " + std::to_string(ev.session) +
              " expected cycle " + std::to_string(expected.front()) +
              " next, got " + std::to_string(ev.cycle));
    }
    expected.pop_front();
    if (shards_ > 0) {
      // Micro-batch version purity: the engine scores a whole batch with
      // one monitor, so every verdict of a (shard, flush_seq) group must
      // carry the same model_version — a swap landing mid-batch would
      // split it.
      const std::uint64_t shard =
          serve::stable_hash64(ev.session) %
          static_cast<std::uint64_t>(shards_);
      const std::uint64_t key = (shard << 48) | ev.flush_seq;
      const auto [batch_it, inserted] =
          batch_version_.emplace(key, ev.model_version);
      if (!inserted && batch_it->second != ev.model_version) {
        violate("batch purity: shard " + std::to_string(shard) +
                " flush " + std::to_string(ev.flush_seq) +
                " mixes model versions " + std::to_string(batch_it->second) +
                " and " + std::to_string(ev.model_version));
      }
    }
    const std::int64_t latency = drain_tick - ev.ingest_tick;
    if (latency < 0) {
      violate("latency: session " + std::to_string(ev.session) + " cycle " +
              std::to_string(ev.cycle) + " drained at tick " +
              std::to_string(drain_tick) + " before its ingest tick " +
              std::to_string(ev.ingest_tick));
    }
    if (static_cast<std::size_t>(latency) >= latency_counts_.size()) {
      latency_counts_.resize(static_cast<std::size_t>(latency) + 1, 0);
    }
    ++latency_counts_[static_cast<std::size_t>(latency)];
  }
}

void InvariantChecker::on_queue_depth(std::size_t depth) {
  max_queue_depth_ = std::max(max_queue_depth_, depth);
  if (depth > queue_bound_) {
    violate("queue bound: depth " + std::to_string(depth) +
            " exceeds shards*queue_capacity = " +
            std::to_string(queue_bound_));
  }
}

void InvariantChecker::on_tick_complete(std::size_t queue_depth_after_tick) {
  if (queue_depth_after_tick != 0) {
    violate("drain: queue depth " + std::to_string(queue_depth_after_tick) +
            " non-zero right after tick()");
  }
}

void InvariantChecker::finish(std::size_t engine_queue_depth) const {
  for (const auto& [id, s] : sessions_) {
    if (!s.expected.empty()) {
      violate("conservation: session " + std::to_string(id) + " still has " +
              std::to_string(s.expected.size()) +
              " completed windows without verdicts (next cycle " +
              std::to_string(s.expected.front()) + ")");
    }
  }
  if (engine_queue_depth != 0) {
    violate("conservation: engine queue depth " +
            std::to_string(engine_queue_depth) + " non-zero at finish");
  }
}

double latency_percentile(const std::vector<std::uint64_t>& counts,
                          double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: the smallest latency whose cumulative count reaches
  // ceil(q * total) (rank 1 at q=0 ~ the minimum).
  const auto rank = static_cast<std::uint64_t>(
      std::max<double>(1.0, std::ceil(clamped * static_cast<double>(total))));
  std::uint64_t cumulative = 0;
  for (std::size_t latency = 0; latency < counts.size(); ++latency) {
    cumulative += counts[latency];
    if (cumulative >= rank) return static_cast<double>(latency);
  }
  return static_cast<double>(counts.size() - 1);
}

}  // namespace cpsguard::loadgen
