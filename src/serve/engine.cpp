#include "serve/engine.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "registry/registry.h"
#include "serve/stable_hash.h"
#include "util/contracts.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace cpsguard::serve {

namespace {

// Registry counters published from one ShardStats field each.
// serve.windows_ready (flushed + pending) and serve.ticks are derived.
using CounterField = std::pair<const char*, std::uint64_t ShardStats::*>;
constexpr CounterField kCounterFields[] = {
    {"serve.records", &ShardStats::records},
    {"serve.rejected.queue_full", &ShardStats::rejected_queue_full},
    {"serve.rejected.session_limit", &ShardStats::rejected_session_limit},
    {"serve.flushes", &ShardStats::flushes},
    {"serve.windows_flushed", &ShardStats::windows_flushed},
    {"serve.evicted", &ShardStats::evicted},
    {"serve.swaps", &ShardStats::swaps},
    {"serve.shadow.windows", &ShardStats::shadow_windows},
    {"serve.shadow.disagree", &ShardStats::shadow_disagree},
};
constexpr std::size_t kNumCounterFields = std::size(kCounterFields);

std::uint64_t windows_ready(const ShardStats& s) {
  return s.windows_flushed + s.pending_windows;
}

// Resolved once: Registry lookups take a mutex.
struct EngineMetrics {
  obs::Gauge& sessions_active;
  obs::Gauge& queue_depth;
  obs::Counter& ticks;
  obs::Counter& windows_ready;
  std::array<obs::Counter*, kNumCounterFields> fields;

  static EngineMetrics& get() {
    static EngineMetrics metrics = [] {
      obs::Registry& reg = obs::Registry::instance();
      EngineMetrics m{reg.gauge("serve.sessions_active"),
                      reg.gauge("serve.queue_depth"),
                      reg.counter("serve.ticks"),
                      reg.counter("serve.windows_ready"),
                      {}};
      for (std::size_t i = 0; i < kNumCounterFields; ++i) {
        m.fields[i] = &reg.counter(kCounterFields[i].first);
      }
      return m;
    }();
    return metrics;
  }
};

}  // namespace

Engine::Engine(const monitor::MlMonitor& mon, EngineConfig config)
    : config_(config),
      session_budget_(config.max_sessions),
      active_version_(config.initial_model_version) {
  expects(mon.trained(), "engine monitor must be trained");
  expects(config.initial_model_version > 0,
          "initial_model_version must be positive");
  expects(config.shards > 0, "shard count must be positive");
  expects(config.window > 0, "window must be positive");
  expects(config.max_batch > 0, "max_batch must be positive");
  expects(config.queue_capacity >= config.max_batch,
          "queue_capacity must hold at least one full micro-batch");
  expects(config.max_sessions > 0, "max_sessions must be positive");
  expects(config.idle_ttl_ticks >= 0, "idle_ttl_ticks must be non-negative");
  active_ = mon.clone();
  shards_.reserve(static_cast<std::size_t>(config.shards));
  for (int s = 0; s < config.shards; ++s) {
    shards_.push_back(
        std::make_unique<SessionShard>(active_, config_, session_budget_));
  }
}

int Engine::shard_of(SessionId id) const {
  return static_cast<int>(stable_hash64(id) %
                          static_cast<std::uint64_t>(config_.shards));
}

SubmitStatus Engine::try_submit(SessionId id, const sim::StepRecord& rec) {
  return shards_[static_cast<std::size_t>(shard_of(id))]->submit(
      id, rec, ticks_.load(std::memory_order_relaxed));
}

void Engine::submit(SessionId id, const sim::StepRecord& rec) {
  switch (try_submit(id, rec)) {
    case SubmitStatus::kAccepted:
      return;
    case SubmitStatus::kRejectedQueueFull:
      throw QueueFullError("serve: shard " + std::to_string(shard_of(id)) +
                           " queue full (capacity " +
                           std::to_string(config_.queue_capacity) +
                           ") for session " + std::to_string(id));
    case SubmitStatus::kRejectedSessionLimit:
      throw SessionLimitError("serve: session limit " +
                              std::to_string(config_.max_sessions) +
                              " reached admitting session " +
                              std::to_string(id));
  }
}

std::vector<VerdictEvent> Engine::tick() {
  // This tick's index: records ingested since the previous tick carry it
  // as their ingest_tick, so a verdict delivered below has latency 0.
  const std::int64_t now = ticks_.load(std::memory_order_relaxed);
  evicted_last_tick_.clear();
  if (config_.idle_ttl_ticks > 0) {
    for (auto& shard : shards_) {
      shard->evict_idle(now, config_.idle_ttl_ticks, evicted_last_tick_);
    }
  }
  // With max_parallelism 1 the shards flush inline, in shard order.
  util::parallel_for(static_cast<int>(shards_.size()), [&](int s) {
    shards_[static_cast<std::size_t>(s)]->flush();
  });
  // Epoch boundary: a staged model activates here — after every shard
  // flushed under the outgoing model, before this tick's verdicts drain.
  // Stage-to-activate latency is therefore at most one flush epoch.
  if (staged_ != nullptr) {
    for (auto& shard : shards_) shard->activate(staged_, staged_version_);
    prev_ = std::exchange(active_, std::move(staged_));
    prev_version_ = active_version_;
    active_version_ = staged_version_;
    staged_version_ = 0;
    ++swap_stats_.swaps;
    swap_stats_.last_activate_tick = now;
    const std::int64_t latency = (now + 1) - stage_tick_;
    swap_stats_.max_latency_ticks =
        std::max(swap_stats_.max_latency_ticks, latency);
    util::log_info("serve: activated model v", active_version_, " at tick ",
                   now, " (staged at tick ", stage_tick_, ")");
  }
  std::vector<VerdictEvent> out = drain();
  ticks_.fetch_add(1, std::memory_order_relaxed);
  publish(stats());
  return out;
}

std::vector<VerdictEvent> Engine::drain() {
  std::vector<VerdictEvent> out;
  for (auto& shard : shards_) shard->drain(out);
  return out;
}

bool Engine::close_session(SessionId id) {
  return shards_[static_cast<std::size_t>(shard_of(id))]->close(id);
}

std::size_t Engine::sessions_active() const { return stats().sessions; }

std::size_t Engine::queue_depth() const { return stats().queue_depth(); }

void Engine::stage_model(const monitor::MlMonitor& mon, std::uint64_t version,
                         SwapMode mode) {
  expects(mon.trained(), "staged monitor must be trained");
  stage(mon.clone(), version, mode);
}

void Engine::swap_model(const registry::ModelRegistry& reg,
                        std::uint64_t version, SwapMode mode) {
  // load() verifies the artifact (structure + SHA) before any shard sees
  // it. The staged pointer aliases the whole LoadedModel, so the mapping
  // lives exactly as long as some slot serves from it.
  auto loaded = std::make_shared<const registry::ModelRegistry::LoadedModel>(
      reg.load(version));
  stage(ModelPtr(loaded, loaded->monitor.get()), version, mode);
}

void Engine::stage(ModelPtr mon, std::uint64_t version, SwapMode mode) {
  expects(version > 0, "model versions start at 1");
  if (mode == SwapMode::kShadow) {
    for (auto& shard : shards_) shard->set_shadow(mon, version);
    shadow_ = std::move(mon);
    shadow_version_ = version;
    util::log_info("serve: shadow-scoring model v", version, " against v",
                   active_version_);
    return;
  }
  staged_ = std::move(mon);
  staged_version_ = version;
  stage_tick_ = ticks();
  swap_stats_.last_stage_tick = stage_tick_;
}

bool Engine::promote_shadow() {
  if (shadow_ == nullptr) return false;
  for (auto& shard : shards_) shard->set_shadow(nullptr, 0);
  stage(std::move(shadow_), std::exchange(shadow_version_, 0),
        SwapMode::kEpoch);
  return true;
}

bool Engine::rollback() {
  for (auto& shard : shards_) shard->set_shadow(nullptr, 0);
  shadow_.reset();
  shadow_version_ = 0;
  staged_.reset();
  staged_version_ = 0;
  if (prev_ == nullptr) return false;
  stage(std::move(prev_), std::exchange(prev_version_, 0), SwapMode::kEpoch);
  util::log_info("serve: rolling back to model v", staged_version_);
  return true;
}

EngineStats Engine::stats() const {
  EngineStats out;
  out.ticks = ticks();
  out.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    out.shards.push_back(shard->stats());
    out += out.shards.back();
  }
  return out;
}

void Engine::publish(EngineStats now) {
  EngineMetrics& metrics = EngineMetrics::get();
  for (std::size_t i = 0; i < kNumCounterFields; ++i) {
    const auto field = kCounterFields[i].second;
    metrics.fields[i]->add(now.*field - published_.*field);
  }
  metrics.windows_ready.add(windows_ready(now) - windows_ready(published_));
  metrics.ticks.add(static_cast<std::uint64_t>(now.ticks - published_.ticks));
  metrics.sessions_active.set(static_cast<double>(now.sessions));
  metrics.queue_depth.set(static_cast<double>(now.queue_depth()));
  published_ = std::move(now);
}

}  // namespace cpsguard::serve
