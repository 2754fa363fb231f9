#include "loadgen/workload.h"

#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "obs/sha256.h"
#include "util/contracts.h"

namespace cpsguard::loadgen {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

std::string format_verdict(const serve::VerdictEvent& ev) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(ev.p_unsafe));
  std::memcpy(&bits, &ev.p_unsafe, sizeof(bits));
  char line[112];
  std::snprintf(line, sizeof(line), "%llu,%d,%d,%lld,%llu,%016llx\n",
                static_cast<unsigned long long>(ev.session), ev.cycle,
                ev.prediction, static_cast<long long>(ev.ingest_tick),
                static_cast<unsigned long long>(ev.model_version),
                static_cast<unsigned long long>(bits));
  return line;
}

Workload::Workload(const monitor::MlMonitor& mon,
                   std::vector<sim::Trace> traces, WorkloadConfig config)
    : monitor_(mon), traces_(std::move(traces)), config_(config) {
  expects(!traces_.empty(), "workload: need at least one trace");
  for (const sim::Trace& trace : traces_) {
    expects(!trace.steps.empty(), "workload: traces must be non-empty");
  }
  expects(config_.ticks > 0, "workload: ticks must be positive");
  expects(config_.swap_every >= 0, "workload: swap_every must be >= 0");
  validate(config_.traffic);
}

void Workload::set_swap_pool(std::vector<const monitor::MlMonitor*> pool) {
  for (const monitor::MlMonitor* mon : pool) {
    expects(mon != nullptr && mon->trained(),
            "workload: swap pool monitors must be trained");
  }
  swap_pool_ = std::move(pool);
}

const sim::StepRecord& Workload::record_for(serve::SessionId id,
                                            std::int64_t t) const {
  // Pure in (id, t): independent of join history, so every run of the
  // same config — serial, pooled, TTL on/off — replays identical bytes.
  const auto& steps = traces_[static_cast<std::size_t>(
                                  id % traces_.size())]
                          .steps;
  const auto idx = static_cast<std::size_t>(
      (id + static_cast<std::uint64_t>(t)) % steps.size());
  return steps[idx];
}

WorkloadReport Workload::run(
    std::span<const EvictionEvent> forced_closes) const {
  serve::Engine engine(monitor_, config_.engine);
  SessionChurner churner(config_.traffic, config_.seed,
                         config_.first_session_id);
  InvariantChecker checker(
      config_.engine.window,
      static_cast<std::size_t>(config_.engine.shards) *
          static_cast<std::size_t>(config_.engine.queue_capacity),
      config_.engine.shards);

  WorkloadReport report;
  obs::Sha256 stream_hash;
  std::size_t forced_next = 0;
  const auto started = Clock::now();

  for (std::int64_t t = 0; t < config_.ticks; ++t) {
    // Periodic hot swap: staged here, activated inside this cycle's tick()
    // (the epoch boundary), so the swap point in the verdict stream is a
    // pure function of the config — identical serial or pooled. An empty
    // pool restages the workload's own monitor under the active version
    // (no-op swap: churns the swap machinery without changing the stream).
    if (config_.swap_every > 0 && t > 0 && t % config_.swap_every == 0) {
      if (swap_pool_.empty()) {
        engine.stage_model(monitor_, engine.active_version());
      } else {
        const auto idx = static_cast<std::size_t>(report.swaps) %
                         swap_pool_.size();
        engine.stage_model(*swap_pool_[idx], engine.active_version() + 1);
      }
      ++report.swaps;
    }
    const TickPlan plan = churner.plan(t);
    for (const serve::SessionId id : plan.closes) {
      // A graceful close can miss: the id may already be TTL-evicted (or
      // was never admitted because its every submit was rejected).
      if (engine.close_session(id)) checker.on_session_end(id);
    }
    for (const serve::SessionId id : plan.submits) {
      switch (engine.try_submit(id, record_for(id, t))) {
        case serve::SubmitStatus::kAccepted:
          checker.on_accepted(id);
          ++report.accepted;
          break;
        case serve::SubmitStatus::kRejectedQueueFull:
          // Reject-with-typed-error contract: the session window did not
          // advance; this cycle's record is simply shed.
          ++report.rejected_queue_full;
          break;
        case serve::SubmitStatus::kRejectedSessionLimit:
          ++report.rejected_session_limit;
          break;
      }
    }
    checker.on_queue_depth(engine.queue_depth());

    const std::int64_t drain_tick = engine.ticks();
    const std::vector<serve::VerdictEvent> events = engine.tick();
    for (const serve::VerdictEvent& ev : events) {
      const std::string line = format_verdict(ev);
      stream_hash.update(line.data(), line.size());
      if (config_.record_stream) report.stream += line;
    }
    report.verdicts += events.size();
    if (config_.check_invariants) {
      checker.on_verdicts(events, drain_tick);
    }
    for (const serve::SessionId id : engine.evicted_last_tick()) {
      report.eviction_log.push_back(EvictionEvent{drain_tick, id});
      checker.on_session_end(id);
    }
    // The TTL-equivalence oracle: replay another run's evictions as
    // explicit closes at the same tick boundary. Applied after the tick
    // (where that run's engine evicted them) and before the next cycle's
    // submits, which is the only ordering the sessions can observe.
    while (forced_next < forced_closes.size() &&
           forced_closes[forced_next].tick <= drain_tick) {
      const serve::SessionId id = forced_closes[forced_next++].id;
      if (engine.close_session(id)) checker.on_session_end(id);
    }
    if (config_.check_invariants) checker.on_tick_complete(engine.queue_depth());
  }
  if (config_.check_invariants) checker.finish(engine.queue_depth());
  report.seconds = std::chrono::duration<double>(Clock::now() - started).count();

  const std::array<std::uint8_t, 32> digest = stream_hash.digest();
  static constexpr char kHex[] = "0123456789abcdef";
  report.stream_sha256.reserve(64);
  for (const std::uint8_t byte : digest) {
    report.stream_sha256.push_back(kHex[byte >> 4]);
    report.stream_sha256.push_back(kHex[byte & 0xf]);
  }

  const ChurnStats& churn = churner.stats();
  report.distinct_sessions = churn.distinct_sessions();
  report.joins = churn.joins;
  report.rejoins = churn.rejoins;
  report.closes = churn.closes;
  report.abandons = churn.abandons;
  report.peak_active = churn.peak_active;
  report.max_queue_depth = checker.max_queue_depth();
  report.latency_counts = checker.latency_counts();
  report.final_stats = engine.stats();
  return report;
}

}  // namespace cpsguard::loadgen
