#include "serve/shard.h"

#include <algorithm>
#include <utility>

#include "eval/batch_eval.h"
#include "monitor/features.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace cpsguard::serve {

namespace {

// Serving histograms, resolved once (Registry lookups take a mutex and do
// not belong on the flush path). The serve.* counters are published by the
// engine from ShardStats at each tick.
struct ServeMetrics {
  obs::Histogram& batch_occupancy;
  obs::Histogram& flush_seconds;

  static ServeMetrics& get() {
    static ServeMetrics metrics{
        obs::Registry::instance().histogram("serve.batch_occupancy"),
        obs::Registry::instance().histogram("span.serve.flush"),
    };
    return metrics;
  }
};

// Class probabilities for batch rows [0, n) under `mon`. A full batch is
// scored in place; a partial (tick) flush copies its rows into one
// exact-size tensor, amortized over up to max_batch windows, so the
// per-record path stays allocation-free.
nn::Matrix score_rows(const monitor::MlMonitor& mon, const nn::Tensor3& batch,
                      int n, const EngineConfig& config) {
  if (n == config.max_batch) {
    return eval::batched_predict_proba_scaled(mon, batch);
  }
  nn::Tensor3 head(n, config.window, monitor::Features::kNumFeatures);
  std::copy(batch.data().begin(), batch.data().begin() + head.size(),
            head.data().begin());
  return eval::batched_predict_proba_scaled(mon, head);
}

}  // namespace

SessionShard::Session::Session(const EngineConfig& cfg)
    : ring(cfg.window, monitor::Features::kNumFeatures),
      raw(cfg.window, monitor::Features::kNumFeatures) {}

SessionShard::SessionShard(std::shared_ptr<const monitor::MlMonitor> mon,
                           const EngineConfig& config,
                           std::atomic<std::int64_t>& session_budget)
    : config_(config),
      session_budget_(session_budget),
      monitor_(std::move(mon)),
      version_(config.initial_model_version),
      batch_(config.max_batch, config.window,
             monitor::Features::kNumFeatures) {
  pending_.reserve(static_cast<std::size_t>(config.max_batch));
  ServeMetrics::get();  // resolve before any worker thread touches us
}

SubmitStatus SessionShard::submit(SessionId id, const sim::StepRecord& rec,
                                  std::int64_t now_tick) {
  const std::scoped_lock lock(mutex_);
  // Admission control happens before any session state is touched: a
  // rejected record leaves the window exactly where it was.
  if (pending_.size() + done_.size() >=
      static_cast<std::size_t>(config_.queue_capacity)) {
    ++counters_.rejected_queue_full;
    return SubmitStatus::kRejectedQueueFull;
  }
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    // Draw on the engine-wide session budget; put it back if we lost the
    // race to the last slot.
    if (session_budget_.fetch_sub(1, std::memory_order_relaxed) <= 0) {
      session_budget_.fetch_add(1, std::memory_order_relaxed);
      ++counters_.rejected_session_limit;
      return SubmitStatus::kRejectedSessionLimit;
    }
    it = sessions_.emplace(id, Session(config_)).first;
  }

  Session& session = it->second;
  session.last_seen = now_tick;
  // Scale once at ingest: overlapping windows would otherwise re-scale the
  // same record `window` times per flush. transform_row is bit-identical to
  // the batch transform, so flush can take the scaled fast path. The raw
  // twin keeps the unscaled row so a hot swap can rescale mid-flight
  // windows under the incoming model's scaler.
  const std::span<float> raw_slot = session.raw.push_slot();
  monitor::fill_features(rec, raw_slot);
  const std::span<float> slot = session.ring.push_slot();
  std::copy(raw_slot.begin(), raw_slot.end(), slot.begin());
  monitor_->scaler().transform_row(slot);
  session.raw.commit();
  session.ring.commit();
  ++session.cycles;
  ++counters_.records;
  if (!session.ring.full()) return SubmitStatus::kAccepted;

  // Stage the ready window into the micro-batch row it will occupy.
  const auto row = pending_.size();
  const auto row_floats = static_cast<std::size_t>(config_.window) *
                          monitor::Features::kNumFeatures;
  session.ring.copy_ordered(batch_.data().subspan(row * row_floats, row_floats));
  if (shadow_ != nullptr) {
    // Same window, shadow model space: rebuilt from the raw twin through
    // the shadow scaler, into the row the shadow flush will score.
    const std::span<float> srow =
        shadow_batch_.data().subspan(row * row_floats, row_floats);
    session.raw.copy_ordered(srow);
    for (int t = 0; t < config_.window; ++t) {
      shadow_->scaler().transform_row(
          srow.subspan(static_cast<std::size_t>(t) *
                           monitor::Features::kNumFeatures,
                       monitor::Features::kNumFeatures));
    }
  }
  pending_.push_back(VerdictEvent{id, session.cycles - 1, 0, 0.0, now_tick});
  if (pending_.size() == static_cast<std::size_t>(config_.max_batch)) {
    flush_locked();
  }
  return SubmitStatus::kAccepted;
}

void SessionShard::flush() {
  const std::scoped_lock lock(mutex_);
  flush_locked();
}

void SessionShard::flush_locked() {
  if (pending_.empty()) return;
  ServeMetrics& metrics = ServeMetrics::get();
  const obs::ScopedSpan span("serve.flush", metrics.flush_seconds);
  const int n = static_cast<int>(pending_.size());
  metrics.batch_occupancy.record(static_cast<double>(n));

  const nn::Matrix probs = score_rows(*monitor_, batch_, n, config_);

  for (int r = 0; r < n; ++r) {
    VerdictEvent& ev = pending_[static_cast<std::size_t>(r)];
    ev.p_unsafe = probs.at(r, 1);
    // Same rule as core::OnlineMonitor: ties resolve to the safe class.
    ev.prediction = probs.at(r, 1) > probs.at(r, 0) ? 1 : 0;
    // Batch purity by construction: the whole batch is scored by the one
    // monitor active at this flush, so every event of the (shard,
    // flush_seq) group carries the same version.
    ev.model_version = version_;
    ev.flush_seq = counters_.flushes;
    done_.push_back(ev);
  }

  if (shadow_ != nullptr) {
    // Dual-score the same windows (rebuilt in the shadow model's scaler
    // space at ingest) without touching done_: shadow verdicts are
    // observability, never output.
    const nn::Matrix shadow_probs =
        score_rows(*shadow_, shadow_batch_, n, config_);
    std::uint64_t disagree = 0;
    for (int r = 0; r < n; ++r) {
      const int shadow_pred =
          shadow_probs.at(r, 1) > shadow_probs.at(r, 0) ? 1 : 0;
      if (shadow_pred != pending_[static_cast<std::size_t>(r)].prediction) {
        ++disagree;
      }
    }
    counters_.shadow_windows += static_cast<std::uint64_t>(n);
    counters_.shadow_disagree += disagree;
    CPSGUARD_OBS_EVENT(
        "serve.shadow", obs::f("active_version", version_),
        obs::f("shadow_version", shadow_version_),
        obs::f("flush_seq", counters_.flushes),
        obs::f("windows", static_cast<std::uint64_t>(n)),
        obs::f("disagree", disagree));
  }

  pending_.clear();
  ++counters_.flushes;
  counters_.windows_flushed += static_cast<std::uint64_t>(n);
}

void SessionShard::drain(std::vector<VerdictEvent>& out) {
  const std::scoped_lock lock(mutex_);
  out.insert(out.end(), done_.begin(), done_.end());
  done_.clear();
}

bool SessionShard::close(SessionId id) {
  const std::scoped_lock lock(mutex_);
  if (sessions_.erase(id) == 0) return false;
  session_budget_.fetch_add(1, std::memory_order_relaxed);
  ++counters_.closed;
  return true;
}

void SessionShard::evict_idle(std::int64_t now_tick, std::int64_t ttl,
                              std::vector<SessionId>& evicted) {
  const std::scoped_lock lock(mutex_);
  // Collect first, then erase in ascending-id order: the hash map iterates
  // in an unspecified order, and deterministic eviction order is part of
  // the TTL contract (loadgen's eviction log replays as explicit closes).
  const std::size_t first = evicted.size();
  for (const auto& [id, session] : sessions_) {
    if (session.last_seen < now_tick - ttl) evicted.push_back(id);
  }
  std::sort(evicted.begin() + static_cast<std::ptrdiff_t>(first),
            evicted.end());
  for (std::size_t i = first; i < evicted.size(); ++i) {
    sessions_.erase(evicted[i]);
    session_budget_.fetch_add(1, std::memory_order_relaxed);
    ++counters_.evicted;
  }
}

void SessionShard::set_shadow(std::shared_ptr<const monitor::MlMonitor> mon,
                              std::uint64_t version) {
  const std::scoped_lock lock(mutex_);
  if (mon != nullptr) {
    // Flush first so the shadow batch rows align with the active batch
    // starting from the next staged window; allocate the shadow batch on
    // first use (shards that never shadow pay nothing).
    flush_locked();
    if (shadow_batch_.empty()) {
      shadow_batch_ = nn::Tensor3(config_.max_batch, config_.window,
                                  monitor::Features::kNumFeatures);
    }
  }
  shadow_ = std::move(mon);
  shadow_version_ = version;
}

void SessionShard::activate(std::shared_ptr<const monitor::MlMonitor> mon,
                            std::uint64_t version) {
  const std::scoped_lock lock(mutex_);
  // Straggler windows staged since the engine's flush pass (concurrent
  // ingest) still score under the outgoing model — no batch ever mixes
  // versions.
  flush_locked();
  monitor_ = std::move(mon);
  version_ = version;
  rescale_sessions_locked();
  ++counters_.swaps;
}

void SessionShard::rescale_sessions_locked() {
  // Occupied slots are [0, size): before the first wrap the head has only
  // advanced that far, and once full every slot is live. Rewriting each
  // occupied slot from the raw twin through the new scaler makes partial
  // windows bit-identical to fresh ingest under the new model.
  for (auto& [id, session] : sessions_) {
    for (int i = 0; i < session.ring.size(); ++i) {
      const std::span<const float> raw = session.raw.slot(i);
      const std::span<float> scaled = session.ring.slot(i);
      std::copy(raw.begin(), raw.end(), scaled.begin());
      monitor_->scaler().transform_row(scaled);
    }
  }
}

ShardStats& ShardStats::operator+=(const ShardStats& other) {
  sessions += other.sessions;
  pending_windows += other.pending_windows;
  undrained_verdicts += other.undrained_verdicts;
  records += other.records;
  windows_flushed += other.windows_flushed;
  flushes += other.flushes;
  closed += other.closed;
  evicted += other.evicted;
  rejected_queue_full += other.rejected_queue_full;
  rejected_session_limit += other.rejected_session_limit;
  swaps += other.swaps;
  shadow_windows += other.shadow_windows;
  shadow_disagree += other.shadow_disagree;
  return *this;
}

ShardStats SessionShard::stats() const {
  const std::scoped_lock lock(mutex_);
  ShardStats out = counters_;
  out.sessions = sessions_.size();
  out.pending_windows = pending_.size();
  out.undrained_verdicts = done_.size();
  return out;
}

}  // namespace cpsguard::serve
