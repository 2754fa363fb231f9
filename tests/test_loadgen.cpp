// Loadgen subsystem suite: traffic-model purity and shape, heavy-tailed
// session lengths, churner determinism and reconnect behaviour, the
// InvariantChecker's violation detection, the engine's idle-TTL eviction
// and stats snapshot, and a small end-to-end workload with the
// serial-vs-pooled and TTL-equivalence byte-identity oracles. The long
// profile of the same oracles lives in test_loadgen_soak.cpp (ctest -L
// soak).
#include "loadgen/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/experiment.h"
#include "loadgen/churner.h"
#include "loadgen/invariants.h"
#include "loadgen/traffic.h"
#include "serve/engine.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cpsguard::loadgen {
namespace {

using cpsguard::ContractViolation;

// ---- traffic models --------------------------------------------------------

TEST(Traffic, SteadyTargetIsFlat) {
  TrafficConfig cfg;
  cfg.model = TrafficModel::kSteady;
  cfg.base_sessions = 17;
  for (std::int64_t t : {0, 1, 5, 100, 100000}) {
    EXPECT_EQ(target_sessions(cfg, t), 17) << t;
  }
}

TEST(Traffic, DiurnalSwellsBetweenBaseAndPeakAndIsPeriodic) {
  TrafficConfig cfg;
  cfg.model = TrafficModel::kDiurnal;
  cfg.base_sessions = 64;
  cfg.peak = 2.0;
  cfg.period = 48;
  EXPECT_EQ(target_sessions(cfg, 0), 64);  // trough at phase 0
  const int crest = target_sessions(cfg, cfg.period / 2);
  EXPECT_GE(crest, 127);
  EXPECT_LE(crest, 128);
  for (std::int64_t t = 0; t < cfg.period; ++t) {
    const int target = target_sessions(cfg, t);
    EXPECT_GE(target, 64) << t;
    EXPECT_LE(target, 128) << t;
    // Pure and periodic: same tick (mod period) -> same target, always.
    EXPECT_EQ(target, target_sessions(cfg, t)) << t;
    EXPECT_EQ(target, target_sessions(cfg, t + cfg.period)) << t;
  }
}

TEST(Traffic, FlashCrowdSpikesOnlyInsideWindow) {
  TrafficConfig cfg;
  cfg.model = TrafficModel::kFlashCrowd;
  cfg.base_sessions = 50;
  cfg.peak = 3.0;
  cfg.flash_at = 16;
  cfg.flash_len = 8;
  EXPECT_EQ(target_sessions(cfg, 15), 50);
  EXPECT_EQ(target_sessions(cfg, 16), 150);
  EXPECT_EQ(target_sessions(cfg, 23), 150);
  EXPECT_EQ(target_sessions(cfg, 24), 50);
  EXPECT_EQ(target_sessions(cfg, 0), 50);
}

TEST(Traffic, ModelNamesRoundTrip) {
  for (TrafficModel model : {TrafficModel::kSteady, TrafficModel::kDiurnal,
                             TrafficModel::kFlashCrowd}) {
    const auto parsed = parse_traffic_model(to_string(model));
    ASSERT_TRUE(parsed.has_value()) << to_string(model);
    EXPECT_EQ(*parsed, model);
  }
  EXPECT_FALSE(parse_traffic_model("bogus").has_value());
  EXPECT_FALSE(parse_traffic_model("").has_value());
  EXPECT_FALSE(parse_traffic_model("Steady").has_value());
}

TEST(Traffic, SessionLengthsAreBoundedHeavyTailedAndSeeded) {
  TrafficConfig cfg;
  cfg.min_session_len = 8;
  cfg.max_session_len = 4096;
  cfg.tail_alpha = 1.5;
  util::Rng rng(99);
  int over_4x = 0;
  for (int i = 0; i < 2000; ++i) {
    const int len = sample_session_length(cfg, rng);
    ASSERT_GE(len, cfg.min_session_len);
    ASSERT_LE(len, cfg.max_session_len);
    if (len > 4 * cfg.min_session_len) ++over_4x;
  }
  // Pareto(8, 1.5): P(len > 32) = 4^-1.5 = 12.5% per draw — a heavy tail
  // shows up hundreds of times in 2000 draws, never zero.
  EXPECT_GT(over_4x, 50);

  util::Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sample_session_length(cfg, a), sample_session_length(cfg, b));
  }
}

TEST(Traffic, ValidateRejectsBadConfigs) {
  const auto reject = [](auto mutate) {
    TrafficConfig cfg;
    mutate(cfg);
    EXPECT_THROW(validate(cfg), ContractViolation);
  };
  reject([](TrafficConfig& c) { c.base_sessions = 0; });
  reject([](TrafficConfig& c) { c.peak = 0.5; });
  reject([](TrafficConfig& c) { c.period = 0; });
  reject([](TrafficConfig& c) { c.min_session_len = 0; });
  reject([](TrafficConfig& c) { c.max_session_len = c.min_session_len - 1; });
  reject([](TrafficConfig& c) { c.tail_alpha = 0.0; });
  reject([](TrafficConfig& c) { c.abandon_prob = 1.5; });
  reject([](TrafficConfig& c) { c.reconnect_prob = -0.1; });
  reject([](TrafficConfig& c) { c.reconnect_delay_min = 0; });
  reject([](TrafficConfig& c) { c.reconnect_delay_max = 1; });
  validate(TrafficConfig{});  // defaults are valid
}

// ---- session churner -------------------------------------------------------

TrafficConfig churny_traffic() {
  TrafficConfig cfg;
  cfg.model = TrafficModel::kSteady;
  cfg.base_sessions = 24;
  cfg.min_session_len = 2;
  cfg.max_session_len = 30;
  cfg.tail_alpha = 1.2;
  cfg.reconnect_prob = 0.6;
  cfg.abandon_prob = 0.2;
  cfg.reconnect_delay_min = 2;
  cfg.reconnect_delay_max = 6;
  return cfg;
}

TEST(Churner, SameSeedReplaysIdenticalPlans) {
  SessionChurner a(churny_traffic(), 1234);
  SessionChurner b(churny_traffic(), 1234);
  for (std::int64_t t = 0; t < 80; ++t) {
    const TickPlan pa = a.plan(t);
    const TickPlan pb = b.plan(t);
    ASSERT_EQ(pa.closes, pb.closes) << "tick " << t;
    ASSERT_EQ(pa.submits, pb.submits) << "tick " << t;
  }
  EXPECT_EQ(a.stats().joins, b.stats().joins);
  EXPECT_EQ(a.stats().rejoins, b.stats().rejoins);
  EXPECT_EQ(a.stats().closes, b.stats().closes);
  EXPECT_EQ(a.stats().abandons, b.stats().abandons);
}

TEST(Churner, TracksTrafficTargetExactly) {
  TrafficConfig cfg = churny_traffic();
  cfg.model = TrafficModel::kDiurnal;
  cfg.peak = 2.5;
  cfg.period = 20;
  SessionChurner churner(cfg, 5);
  for (std::int64_t t = 0; t < 100; ++t) {
    const TickPlan plan = churner.plan(t);
    // After every plan the active population sits exactly on the model's
    // concurrency target, and every active session submits once.
    EXPECT_EQ(plan.submits.size(),
              static_cast<std::size_t>(target_sessions(cfg, t)))
        << "tick " << t;
    EXPECT_TRUE(std::is_sorted(plan.submits.begin(), plan.submits.end()));
    EXPECT_TRUE(std::is_sorted(plan.closes.begin(), plan.closes.end()));
  }
  EXPECT_GT(churner.stats().closes, 0u);
}

TEST(Churner, ImmortalSessionsNeverChurn) {
  TrafficConfig cfg;
  cfg.base_sessions = 10;
  cfg.min_session_len = 1000;
  cfg.max_session_len = 1000;
  SessionChurner churner(cfg, 3);
  for (std::int64_t t = 0; t < 60; ++t) {
    const TickPlan plan = churner.plan(t);
    EXPECT_TRUE(plan.closes.empty()) << "tick " << t;
    EXPECT_EQ(plan.submits.size(), 10u) << "tick " << t;
  }
  EXPECT_EQ(churner.stats().joins, 10u);
  EXPECT_EQ(churner.stats().distinct_sessions(), 10u);
  EXPECT_EQ(churner.stats().closes, 0u);
  EXPECT_EQ(churner.stats().rejoins, 0u);
}

TEST(Churner, LeaversReconnectUnderTheSameId) {
  TrafficConfig cfg = churny_traffic();
  cfg.reconnect_prob = 1.0;
  cfg.abandon_prob = 0.0;
  SessionChurner churner(cfg, 21);
  std::vector<serve::SessionId> closed;
  bool reused = false;
  for (std::int64_t t = 0; t < 120; ++t) {
    const TickPlan plan = churner.plan(t);
    for (const serve::SessionId id : plan.submits) {
      if (std::find(closed.begin(), closed.end(), id) != closed.end()) {
        reused = true;
      }
    }
    closed.insert(closed.end(), plan.closes.begin(), plan.closes.end());
  }
  EXPECT_GT(churner.stats().closes, 0u);
  EXPECT_GT(churner.stats().rejoins, 0u);
  EXPECT_TRUE(reused) << "no closed session id ever submitted again";
}

TEST(Churner, AbandonersLeaveWithoutClosing) {
  TrafficConfig cfg = churny_traffic();
  cfg.abandon_prob = 1.0;
  cfg.reconnect_prob = 0.0;
  SessionChurner churner(cfg, 8);
  for (std::int64_t t = 0; t < 60; ++t) {
    const TickPlan plan = churner.plan(t);
    EXPECT_TRUE(plan.closes.empty()) << "tick " << t;
  }
  EXPECT_GT(churner.stats().abandons, 0u);
  EXPECT_EQ(churner.stats().closes, 0u);
}

TEST(Churner, RequiresConsecutiveTicks) {
  SessionChurner skipper(churny_traffic(), 1);
  EXPECT_THROW((void)skipper.plan(1), ContractViolation);
  SessionChurner churner(churny_traffic(), 1);
  (void)churner.plan(0);
  EXPECT_THROW((void)churner.plan(2), ContractViolation);
  EXPECT_THROW((void)churner.plan(0), ContractViolation);
}

// ---- invariant checker -----------------------------------------------------

serve::VerdictEvent verdict(serve::SessionId session, int cycle,
                            std::int64_t ingest_tick) {
  serve::VerdictEvent ev;
  ev.session = session;
  ev.cycle = cycle;
  ev.prediction = 0;
  ev.p_unsafe = 0.25;
  ev.ingest_tick = ingest_tick;
  return ev;
}

TEST(InvariantCheckerTest, AcceptsAConformingRun) {
  InvariantChecker checker(/*window=*/3, /*queue_bound=*/8);
  for (int i = 0; i < 4; ++i) checker.on_accepted(7);
  checker.on_queue_depth(2);
  const std::vector<serve::VerdictEvent> events = {verdict(7, 2, 0),
                                                   verdict(7, 3, 0)};
  checker.on_verdicts(events, /*drain_tick=*/1);
  checker.on_tick_complete(0);
  checker.finish(0);
  EXPECT_EQ(checker.max_queue_depth(), 2u);
  // Both verdicts drained 1 tick after ingest.
  ASSERT_EQ(checker.latency_counts().size(), 2u);
  EXPECT_EQ(checker.latency_counts()[1], 2u);
}

TEST(InvariantCheckerTest, CatchesVerdictWithoutCompletedWindow) {
  InvariantChecker checker(3, 8);
  const std::vector<serve::VerdictEvent> events = {verdict(7, 2, 0)};
  EXPECT_THROW(checker.on_verdicts(events, 1), InvariantViolation);

  InvariantChecker warm(3, 8);
  warm.on_accepted(7);
  warm.on_accepted(7);  // two records: window never completes
  EXPECT_THROW(warm.on_verdicts(events, 1), InvariantViolation);
}

TEST(InvariantCheckerTest, CatchesOutOfOrderCycles) {
  InvariantChecker checker(3, 8);
  for (int i = 0; i < 4; ++i) checker.on_accepted(7);  // expects 2 then 3
  const std::vector<serve::VerdictEvent> events = {verdict(7, 3, 0)};
  EXPECT_THROW(checker.on_verdicts(events, 1), InvariantViolation);
}

TEST(InvariantCheckerTest, CatchesNegativeLatency) {
  InvariantChecker checker(3, 8);
  for (int i = 0; i < 3; ++i) checker.on_accepted(7);
  const std::vector<serve::VerdictEvent> events = {verdict(7, 2, 5)};
  EXPECT_THROW(checker.on_verdicts(events, /*drain_tick=*/4),
               InvariantViolation);
}

TEST(InvariantCheckerTest, CatchesQueueBreaches) {
  InvariantChecker checker(3, 8);
  checker.on_queue_depth(8);  // at the bound: fine
  EXPECT_THROW(checker.on_queue_depth(9), InvariantViolation);
  EXPECT_THROW(checker.on_tick_complete(1), InvariantViolation);
  checker.on_tick_complete(0);
}

TEST(InvariantCheckerTest, CatchesOutstandingVerdictsAtFinish) {
  InvariantChecker checker(3, 8);
  for (int i = 0; i < 3; ++i) checker.on_accepted(7);
  EXPECT_THROW(checker.finish(0), InvariantViolation);
  const std::vector<serve::VerdictEvent> events = {verdict(7, 2, 0)};
  checker.on_verdicts(events, 0);
  checker.finish(0);
  EXPECT_THROW(checker.finish(1), InvariantViolation);
}

TEST(InvariantCheckerTest, SessionEndStartsFreshEpochButDrainsOldWindows) {
  InvariantChecker checker(3, 8);
  for (int i = 0; i < 3; ++i) checker.on_accepted(7);  // stages cycle 2
  checker.on_session_end(7);
  for (int i = 0; i < 3; ++i) checker.on_accepted(7);  // stages cycle 2 again
  const std::vector<serve::VerdictEvent> events = {verdict(7, 2, 0),
                                                   verdict(7, 2, 1)};
  checker.on_verdicts(events, 1);
  checker.finish(0);
}

TEST(InvariantCheckerTest, LatencyPercentilesAreExact) {
  EXPECT_EQ(latency_percentile({}, 0.5), 0.0);
  EXPECT_EQ(latency_percentile({0, 0, 4}, 0.0), 2.0);
  EXPECT_EQ(latency_percentile({0, 0, 4}, 0.5), 2.0);
  EXPECT_EQ(latency_percentile({0, 0, 4}, 1.0), 2.0);
  // 50 zeros, 49 ones, 1 three: p50 = 0, p99 = 1, p100 = 3.
  const std::vector<std::uint64_t> counts = {50, 49, 0, 1};
  EXPECT_EQ(latency_percentile(counts, 0.50), 0.0);
  EXPECT_EQ(latency_percentile(counts, 0.99), 1.0);
  EXPECT_EQ(latency_percentile(counts, 1.0), 3.0);
}

// ---- engine growth: TTL eviction, stats ------------------------------------

core::ExperimentConfig tiny_config() {
  core::ExperimentConfig cfg;
  cfg.campaign.patients = 3;
  cfg.campaign.sims_per_patient = 3;
  cfg.campaign.trace_steps = 60;
  cfg.campaign.seed = 11;
  cfg.epochs = 2;
  cfg.cache_dir = "";
  return cfg;
}

class LoadgenEngineTest : public ::testing::Test {
 protected:
  LoadgenEngineTest() : exp_(tiny_config()) {}

  monitor::MlMonitor& mon() { return exp_.monitor(mlp_); }
  int window() const { return exp_.config().dataset.window; }

  core::Experiment exp_;
  const core::MonitorVariant mlp_{monitor::Arch::kMlp, false};
};

TEST_F(LoadgenEngineTest, TtlEvictsIdleSessionsDeterministically) {
  serve::EngineConfig cfg;
  cfg.window = window();
  cfg.shards = 1;  // one shard so eviction order is pure ascending-id
  cfg.idle_ttl_ticks = 2;
  cfg.max_sessions = 3;
  serve::Engine engine(mon(), cfg);
  const auto& rec = exp_.test_traces().front().steps[0];

  // A and B join at tick 0 and go idle; C keeps streaming.
  engine.submit(30, rec);
  engine.submit(10, rec);
  engine.submit(20, rec);
  int evicted_at = -1;
  std::vector<serve::SessionId> evicted;
  for (int t = 0; t < 6 && evicted_at < 0; ++t) {
    engine.submit(20, rec);  // keeps its last_seen fresh
    (void)engine.tick();
    if (!engine.evicted_last_tick().empty()) {
      evicted_at = t;
      evicted = engine.evicted_last_tick();
    }
  }
  // last_seen = 0; eviction fires during the tick where now - ttl > 0,
  // i.e. the first tick after more than idle_ttl_ticks idle ticks.
  ASSERT_EQ(evicted_at, 3);
  EXPECT_EQ(evicted, (std::vector<serve::SessionId>{10, 30}));
  EXPECT_EQ(engine.sessions_active(), 1u);
  EXPECT_EQ(engine.stats().evicted, 2u);

  // Eviction returned the budget slots, and the ids can readmit.
  EXPECT_EQ(engine.try_submit(40, rec), serve::SubmitStatus::kAccepted);
  EXPECT_EQ(engine.try_submit(10, rec), serve::SubmitStatus::kAccepted);
  EXPECT_EQ(engine.try_submit(50, rec),
            serve::SubmitStatus::kRejectedSessionLimit);
  EXPECT_TRUE(engine.evicted_last_tick().empty() ||
              engine.tick().empty());  // log rewritten per tick
}

TEST_F(LoadgenEngineTest, TtlDisabledNeverEvicts) {
  serve::EngineConfig cfg;
  cfg.window = window();
  cfg.idle_ttl_ticks = 0;
  serve::Engine engine(mon(), cfg);
  const auto& rec = exp_.test_traces().front().steps[0];
  engine.submit(1, rec);
  for (int t = 0; t < 10; ++t) {
    (void)engine.tick();
    EXPECT_TRUE(engine.evicted_last_tick().empty());
  }
  EXPECT_EQ(engine.sessions_active(), 1u);

  serve::EngineConfig bad = cfg;
  bad.idle_ttl_ticks = -1;
  EXPECT_THROW(serve::Engine(mon(), bad), ContractViolation);
}

TEST_F(LoadgenEngineTest, StatsSnapshotAggregatesShards) {
  serve::EngineConfig cfg;
  cfg.window = window();
  cfg.shards = 4;
  serve::Engine engine(mon(), cfg);
  const sim::Trace& trace = exp_.test_traces().front();

  const int records = window() + 5;
  for (int t = 0; t < records; ++t) {
    for (serve::SessionId id : {1ULL, 2ULL, 3ULL}) {
      engine.submit(id, trace.steps[static_cast<std::size_t>(t)]);
    }
  }
  std::size_t verdicts = engine.tick().size();
  (void)engine.close_session(2);
  verdicts += engine.tick().size();

  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.ticks, 2);
  EXPECT_EQ(stats.ticks, engine.ticks());
  EXPECT_EQ(stats.sessions, 2u);
  EXPECT_EQ(stats.queue_depth(), 0u);
  EXPECT_EQ(stats.records, static_cast<std::uint64_t>(records) * 3u);
  EXPECT_EQ(stats.windows_flushed, verdicts);
  EXPECT_EQ(stats.closed, 1u);
  EXPECT_EQ(stats.evicted, 0u);
  EXPECT_EQ(stats.rejected_queue_full, 0u);
  EXPECT_EQ(stats.rejected_session_limit, 0u);
  ASSERT_EQ(stats.shards.size(), 4u);
  std::uint64_t shard_records = 0;
  for (const auto& shard : stats.shards) shard_records += shard.records;
  EXPECT_EQ(shard_records, stats.records);
  EXPECT_GT(stats.flushes, 0u);
}

// ---- end-to-end workload ----------------------------------------------------

class WorkloadTest : public LoadgenEngineTest {
 protected:
  WorkloadConfig small_config() {
    WorkloadConfig cfg;
    cfg.traffic.model = TrafficModel::kDiurnal;
    cfg.traffic.base_sessions = 12;
    cfg.traffic.peak = 2.0;
    cfg.traffic.period = 20;
    cfg.traffic.min_session_len = 4;
    cfg.traffic.max_session_len = 48;
    cfg.traffic.tail_alpha = 1.3;
    cfg.traffic.abandon_prob = 0.3;
    cfg.traffic.reconnect_prob = 0.5;
    cfg.engine.window = window();
    cfg.engine.shards = 4;
    cfg.engine.max_batch = 8;
    cfg.engine.queue_capacity = 256;
    cfg.engine.idle_ttl_ticks = 5;
    cfg.ticks = 60;
    cfg.seed = 7;
    return cfg;
  }
};

TEST_F(WorkloadTest, RecordSourceIsPureInIdAndTick) {
  Workload wl(mon(), exp_.test_traces(), small_config());
  const auto& a = wl.record_for(42, 13);
  const auto& b = wl.record_for(42, 13);
  EXPECT_EQ(&a, &b);  // same underlying step, not just equal values
}

TEST_F(WorkloadTest, ChurnedRunHoldsInvariantsAndCountsAddUp) {
  Workload wl(mon(), exp_.test_traces(), small_config());
  util::set_max_parallelism(1);
  const WorkloadReport report = wl.run();  // throws on any violation
  util::set_max_parallelism(0);

  EXPECT_GT(report.accepted, 0u);
  EXPECT_GT(report.verdicts, 0u);
  EXPECT_GT(report.rejoins, 0u);
  EXPECT_GT(report.eviction_log.size(), 0u);  // abandoners leave via TTL
  EXPECT_EQ(report.final_stats.records, report.accepted);
  EXPECT_EQ(report.final_stats.windows_flushed, report.verdicts);
  EXPECT_EQ(report.final_stats.evicted, report.eviction_log.size());
  EXPECT_EQ(report.stream_sha256.size(), 64u);
  std::uint64_t latency_total = 0;
  for (const std::uint64_t c : report.latency_counts) latency_total += c;
  EXPECT_EQ(latency_total, report.verdicts);
  // Draining every cycle: every verdict lands in the same tick it was
  // completed in.
  EXPECT_EQ(latency_percentile(report.latency_counts, 1.0), 0.0);
}

TEST_F(WorkloadTest, SerialAndPooledRunsAreByteIdentical) {
  WorkloadConfig cfg = small_config();
  cfg.record_stream = true;
  Workload wl(mon(), exp_.test_traces(), cfg);
  util::set_max_parallelism(1);
  const WorkloadReport serial = wl.run();
  util::set_max_parallelism(0);
  const WorkloadReport pooled = wl.run();
  ASSERT_FALSE(serial.stream.empty());
  EXPECT_EQ(serial.stream, pooled.stream);
  EXPECT_EQ(serial.stream_sha256, pooled.stream_sha256);
  EXPECT_EQ(serial.verdicts, pooled.verdicts);
  EXPECT_EQ(serial.eviction_log.size(), pooled.eviction_log.size());
}

TEST_F(WorkloadTest, TtlEvictionIsEquivalentToExplicitClose) {
  // Run A evicts idle sessions by TTL; run B has TTL off and replays A's
  // eviction log as explicit closes at the same tick boundaries. The
  // verdict streams must match byte for byte.
  WorkloadConfig with_ttl = small_config();
  Workload wl_a(mon(), exp_.test_traces(), with_ttl);
  util::set_max_parallelism(1);
  const WorkloadReport a = wl_a.run();
  ASSERT_GT(a.eviction_log.size(), 0u);

  WorkloadConfig no_ttl = with_ttl;
  no_ttl.engine.idle_ttl_ticks = 0;
  Workload wl_b(mon(), exp_.test_traces(), no_ttl);
  const WorkloadReport b = wl_b.run(a.eviction_log);
  util::set_max_parallelism(0);
  EXPECT_TRUE(b.eviction_log.empty());
  EXPECT_EQ(a.stream_sha256, b.stream_sha256)
      << "TTL eviction is not equivalent to closing at the eviction tick";
  EXPECT_EQ(a.verdicts, b.verdicts);
}

TEST_F(WorkloadTest, RejectsBadConfigs) {
  WorkloadConfig cfg = small_config();
  cfg.ticks = 0;
  EXPECT_THROW(Workload(mon(), exp_.test_traces(), cfg), ContractViolation);
  EXPECT_THROW(Workload(mon(), {}, small_config()), ContractViolation);
}

}  // namespace
}  // namespace cpsguard::loadgen
