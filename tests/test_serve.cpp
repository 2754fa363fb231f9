// Streaming detection service suite: warm-up boundary, per-session
// isolation (interleaved sessions reproduce dedicated OnlineMonitors
// bit-for-bit), admission control, deterministic golden replay (serial vs
// pooled flushes byte-identical, pinned against tests/golden/, including a
// mid-stream hot-swap + rollback segment), live model hot-swap (epoch
// boundary latency, no-op self-swap oracle, shadow scoring, rollback,
// registry-driven swap), and concurrent ingest (the TSan CI job runs this
// binary).
//
// Re-bless the replay golden after an intentional model/output change:
//   CPSGUARD_BLESS=1 ./build/tests/test_serve
#include "serve/engine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "attack/fgsm.h"
#include "core/experiment.h"
#include "core/online_monitor.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/sha256.h"
#include "registry/registry.h"
#include "serve/stable_hash.h"
#include "util/contracts.h"
#include "util/error.h"
#include "util/json.h"
#include "util/thread_pool.h"

#ifndef CPSGUARD_GOLDEN_DIR
#define CPSGUARD_GOLDEN_DIR "tests/golden"
#endif

namespace cpsguard::serve {
namespace {

namespace fs = std::filesystem;

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

class ServeTest : public ::testing::Test {
 protected:
  ServeTest() : exp_(tiny_config()) {}

  monitor::MlMonitor& mon() { return exp_.monitor(mlp_); }
  /// A second, genuinely different model (other architecture, other
  /// scaler-space behaviour is identical since the scaler fits the same
  /// data) for hot-swap tests.
  monitor::MlMonitor& next_mon() { return exp_.monitor(gru_); }
  int window() const { return exp_.config().dataset.window; }

  core::Experiment exp_;
  const core::MonitorVariant mlp_{monitor::Arch::kMlp, false};
  const core::MonitorVariant gru_{monitor::Arch::kGru, false};
};

TEST_F(ServeTest, WarmupBoundary) {
  EngineConfig cfg;
  cfg.window = window();
  Engine engine(mon(), cfg);
  const sim::Trace& trace = exp_.test_traces().front();

  for (int t = 0; t < window() - 1; ++t) {
    engine.submit(9001, trace.steps[static_cast<std::size_t>(t)]);
    EXPECT_TRUE(engine.tick().empty()) << "cycle " << t;
  }
  engine.submit(9001, trace.steps[static_cast<std::size_t>(window() - 1)]);
  const auto events = engine.tick();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].session, 9001u);
  EXPECT_EQ(events[0].cycle, window() - 1);
  EXPECT_GE(events[0].p_unsafe, 0.0);
  EXPECT_LE(events[0].p_unsafe, 1.0);
}

TEST_F(ServeTest, InterleavedSessionsMatchDedicatedMonitors) {
  // Three interleaved sessions, a small micro-batch (so inline batch-full
  // flushes happen) and uneven ticks must reproduce per-trace
  // OnlineMonitors exactly — cross-session batching may not leak state.
  EngineConfig cfg;
  cfg.window = window();
  cfg.shards = 2;
  cfg.max_batch = 4;
  cfg.queue_capacity = 1024;
  Engine engine(mon(), cfg);

  const auto& traces = exp_.test_traces();
  ASSERT_GE(traces.size(), 3u);
  const SessionId ids[3] = {101, 202, 303};
  std::map<SessionId, std::vector<VerdictEvent>> got;
  const int steps = traces[0].length();
  for (int t = 0; t < steps; ++t) {
    for (int s = 0; s < 3; ++s) {
      if (t < traces[static_cast<std::size_t>(s)].length()) {
        engine.submit(ids[s],
                      traces[static_cast<std::size_t>(s)]
                          .steps[static_cast<std::size_t>(t)]);
      }
    }
    if (t % 7 == 0) {
      for (const auto& ev : engine.tick()) got[ev.session].push_back(ev);
    }
  }
  for (const auto& ev : engine.tick()) got[ev.session].push_back(ev);

  for (int s = 0; s < 3; ++s) {
    const sim::Trace& trace = traces[static_cast<std::size_t>(s)];
    core::OnlineMonitor dedicated(mon(), window());
    const auto& events = got[ids[s]];
    std::size_t next = 0;
    for (int t = 0; t < trace.length(); ++t) {
      const auto v = dedicated.step(trace.steps[static_cast<std::size_t>(t)]);
      if (!v.ready) continue;
      ASSERT_LT(next, events.size()) << "session " << s << " cycle " << t;
      const VerdictEvent& ev = events[next++];
      EXPECT_EQ(ev.cycle, t);
      EXPECT_EQ(ev.prediction, v.prediction) << "session " << s << " cycle " << t;
      EXPECT_EQ(ev.p_unsafe, v.p_unsafe) << "session " << s << " cycle " << t;
    }
    EXPECT_EQ(next, events.size()) << "session " << s << " extra verdicts";
  }
}

TEST_F(ServeTest, BackpressureRejectsWithTypedError) {
  const int w = window();
  EngineConfig cfg;
  cfg.window = w;
  cfg.shards = 1;
  cfg.max_batch = 8;
  cfg.queue_capacity = 8;
  Engine engine(mon(), cfg);
  const sim::Trace& trace = exp_.test_traces().front();
  const auto& rec = trace.steps[0];

  // One session streaming without any drain: windows complete from cycle
  // w-1 on, the 8th completed window batch-full-flushes into the undrained
  // queue, and the next record must bounce.
  for (int t = 0; t < w + 7; ++t) {
    ASSERT_EQ(engine.try_submit(5, rec), SubmitStatus::kAccepted) << t;
  }
  EXPECT_EQ(engine.queue_depth(), 8u);
  EXPECT_EQ(engine.try_submit(5, rec), SubmitStatus::kRejectedQueueFull);
  EXPECT_THROW(engine.submit(5, rec), QueueFullError);
  // Rejection is not a silent drop: the window did not advance, so after
  // draining, the same record is admitted and produces the next verdict.
  const auto drained = engine.tick();
  EXPECT_EQ(drained.size(), 8u);
  EXPECT_EQ(engine.queue_depth(), 0u);
  EXPECT_EQ(engine.try_submit(5, rec), SubmitStatus::kAccepted);
  const auto after = engine.tick();
  ASSERT_EQ(after.size(), 1u);
  // Cycles 0..w+6 were accepted; the rejected record left no ghost cycle.
  EXPECT_EQ(after[0].cycle, w + 7);
}

TEST_F(ServeTest, SessionLimitRejectsWithTypedError) {
  EngineConfig cfg;
  cfg.window = window();
  cfg.shards = 2;
  cfg.max_sessions = 2;
  Engine engine(mon(), cfg);
  const auto& rec = exp_.test_traces().front().steps[0];

  EXPECT_EQ(engine.try_submit(1, rec), SubmitStatus::kAccepted);
  EXPECT_EQ(engine.try_submit(2, rec), SubmitStatus::kAccepted);
  EXPECT_EQ(engine.try_submit(3, rec), SubmitStatus::kRejectedSessionLimit);
  EXPECT_THROW(engine.submit(3, rec), SessionLimitError);
  EXPECT_EQ(engine.sessions_active(), 2u);
  // Closing a session frees its budget slot.
  EXPECT_TRUE(engine.close_session(1));
  EXPECT_FALSE(engine.close_session(1));
  EXPECT_EQ(engine.try_submit(3, rec), SubmitStatus::kAccepted);
}

TEST_F(ServeTest, RejectionLeavesObservableStateUnchangedAndRecovers) {
  // Queue-full path: a rejection must not move queue_depth,
  // sessions_active or the records ledger, and draining must make the
  // very same submit succeed.
  const int w = window();
  EngineConfig cfg;
  cfg.window = w;
  cfg.shards = 1;
  cfg.max_batch = 8;
  cfg.queue_capacity = 8;
  Engine engine(mon(), cfg);
  const auto& rec = exp_.test_traces().front().steps[0];
  for (int t = 0; t < w + 7; ++t) {
    ASSERT_EQ(engine.try_submit(5, rec), SubmitStatus::kAccepted);
  }
  const std::size_t depth_before = engine.queue_depth();
  const std::size_t sessions_before = engine.sessions_active();
  const std::uint64_t records_before = engine.stats().records;
  EXPECT_EQ(engine.try_submit(5, rec), SubmitStatus::kRejectedQueueFull);
  EXPECT_EQ(engine.queue_depth(), depth_before);
  EXPECT_EQ(engine.sessions_active(), sessions_before);
  EXPECT_EQ(engine.stats().records, records_before);
  EXPECT_EQ(engine.stats().rejected_queue_full, 1u);
  (void)engine.tick();
  EXPECT_EQ(engine.try_submit(5, rec), SubmitStatus::kAccepted);

  // Session-limit path: the rejected session must leave no ghost state,
  // and closing an existing session must readmit it.
  EngineConfig limited;
  limited.window = w;
  limited.max_sessions = 1;
  Engine small(mon(), limited);
  ASSERT_EQ(small.try_submit(1, rec), SubmitStatus::kAccepted);
  const std::size_t small_depth = small.queue_depth();
  EXPECT_EQ(small.try_submit(2, rec), SubmitStatus::kRejectedSessionLimit);
  EXPECT_EQ(small.sessions_active(), 1u);
  EXPECT_EQ(small.queue_depth(), small_depth);
  EXPECT_EQ(small.stats().rejected_session_limit, 1u);
  EXPECT_TRUE(small.close_session(1));
  EXPECT_EQ(small.try_submit(2, rec), SubmitStatus::kAccepted);
  EXPECT_EQ(small.sessions_active(), 1u);
}

TEST_F(ServeTest, RejectsBadConfigAndUntrainedMonitor) {
  monitor::MonitorConfig mc;
  monitor::MlMonitor untrained(mc);
  EXPECT_THROW(Engine(untrained, EngineConfig{}), ContractViolation);

  EngineConfig bad;
  bad.queue_capacity = 1;  // cannot hold one full micro-batch
  EXPECT_THROW(Engine(mon(), bad), ContractViolation);
  EngineConfig no_shards;
  no_shards.shards = 0;
  EXPECT_THROW(Engine(mon(), no_shards), ContractViolation);
}

TEST_F(ServeTest, RoutingIsStable) {
  EngineConfig cfg;
  cfg.window = window();
  cfg.shards = 8;
  Engine engine(mon(), cfg);
  for (SessionId id : {0ULL, 1ULL, 42ULL, 0xdeadbeefULL}) {
    const int shard = engine.shard_of(id);
    EXPECT_EQ(shard, engine.shard_of(id));
    EXPECT_EQ(shard, static_cast<int>(stable_hash64(id) % 8));
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 8);
  }
}

// ---- deterministic golden replay ------------------------------------------

/// Serialize one VerdictEvent as a replay line. p_unsafe goes out as raw
/// IEEE-754 bits — byte-identity, not just closeness — and model_version
/// pins which model scored the window.
std::string verdict_line(const VerdictEvent& ev) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(ev.p_unsafe));
  std::memcpy(&bits, &ev.p_unsafe, sizeof(bits));
  char line[112];
  std::snprintf(line, sizeof(line), "%llu,%d,%d,%llu,%016llx\n",
                static_cast<unsigned long long>(ev.session), ev.cycle,
                ev.prediction,
                static_cast<unsigned long long>(ev.model_version),
                static_cast<unsigned long long>(bits));
  return line;
}

std::string replay(core::Experiment& exp, monitor::MlMonitor& mon,
                   monitor::MlMonitor& next) {
  EngineConfig cfg;
  cfg.window = exp.config().dataset.window;
  cfg.shards = 4;
  cfg.max_batch = 16;
  Engine engine(mon, cfg);

  const auto& traces = exp.test_traces();
  const int kSessions = 8;
  std::string out;
  const sim::Trace& longest = traces.front();
  for (int t = 0; t < longest.length(); ++t) {
    // Churn segment: two sessions close mid-stream and reopen on their
    // next submit (window refills from scratch), so the golden pins the
    // close/reopen path too.
    if (t == longest.length() / 2) {
      engine.close_session(1000);      // reopens next cycle
      engine.close_session(1000 + 21); // s == 3
    }
    // Swap segment: hot-swap to the second model a third of the way in
    // (activates inside that tick, after its flush — so that tick's
    // verdicts still carry v1), then roll back to v1 at two thirds. The
    // golden therefore pins the epoch protocol and the raw-ring rescale.
    if (t == longest.length() / 3) engine.stage_model(next, 2);
    if (t == 2 * longest.length() / 3) engine.rollback();
    for (int s = 0; s < kSessions; ++s) {
      const sim::Trace& trace = traces[static_cast<std::size_t>(s) % traces.size()];
      if (t >= trace.length()) continue;
      engine.submit(1000 + static_cast<SessionId>(s) * 7,
                    trace.steps[static_cast<std::size_t>(t)]);
    }
    for (const auto& ev : engine.tick()) out += verdict_line(ev);
  }
  return out;
}

TEST_F(ServeTest, DeterministicGoldenReplay) {
  // Serial (max_parallelism 1: shards flush inline in shard order) vs
  // pooled flushes: the verdict stream — including the mid-stream hot-swap
  // and rollback — must be byte-identical, and match the checked-in golden.
  util::set_max_parallelism(1);
  const std::string serial = replay(exp_, mon(), next_mon());
  util::set_max_parallelism(0);
  const std::string pooled = replay(exp_, mon(), next_mon());
  ASSERT_FALSE(serial.empty());
  ASSERT_EQ(serial, pooled)
      << "serial and pooled serve runs diverged — a flush reduction or "
      << "delivery order is schedule-dependent";

  const fs::path golden = fs::path(CPSGUARD_GOLDEN_DIR) / "serve_replay.csv";
  if (std::getenv("CPSGUARD_BLESS") != nullptr) {
    fs::create_directories(golden.parent_path());
    std::ofstream out(golden, std::ios::binary);
    out << serial;
    GTEST_SKIP() << "blessed " << golden;
  }
  std::ifstream in(golden, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << golden;
  const std::string expected{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
  EXPECT_EQ(obs::sha256_hex(serial), obs::sha256_hex(expected))
      << "serve replay drifted from " << golden
      << " (re-bless with CPSGUARD_BLESS=1 if intentional)";
  EXPECT_EQ(serial, expected);
}

// ---- live model hot-swap ---------------------------------------------------

/// Drive `sessions` interleaved sessions through `engine` for the length of
/// the longest trace, calling `at_tick(t)` before each cycle's submits, and
/// return the serialized verdict stream.
template <typename AtTick>
std::string drive(core::Experiment& exp, Engine& engine, int sessions,
                  AtTick at_tick) {
  const auto& traces = exp.test_traces();
  std::string out;
  const int steps = traces.front().length();
  for (int t = 0; t < steps; ++t) {
    at_tick(t);
    for (int s = 0; s < sessions; ++s) {
      const sim::Trace& trace =
          traces[static_cast<std::size_t>(s) % traces.size()];
      if (t >= trace.length()) continue;
      engine.submit(2000 + static_cast<SessionId>(s) * 11,
                    trace.steps[static_cast<std::size_t>(t)]);
    }
    for (const auto& ev : engine.tick()) out += verdict_line(ev);
  }
  return out;
}

TEST_F(ServeTest, SwapActivatesAtEpochBoundaryWithBoundedLatency) {
  EngineConfig cfg;
  cfg.window = window();
  cfg.shards = 2;
  cfg.max_batch = 16;
  Engine engine(mon(), cfg);
  const sim::Trace& trace = exp_.test_traces().front();

  // Warm up one session so every tick emits a verdict.
  int t = 0;
  for (; t < window(); ++t) {
    engine.submit(7, trace.steps[static_cast<std::size_t>(t)]);
    (void)engine.tick();
  }

  engine.stage_model(next_mon(), 2);
  // Staging is not activation: verdicts keep flowing from v1 until the
  // next epoch boundary.
  EXPECT_EQ(engine.active_version(), 1u);
  EXPECT_EQ(engine.staged_version(), 2u);

  // The activating tick flushes with the old model first, so its verdicts
  // still carry v1 — no micro-batch ever mixes versions.
  engine.submit(7, trace.steps[static_cast<std::size_t>(t++)]);
  const auto boundary = engine.tick();
  ASSERT_EQ(boundary.size(), 1u);
  EXPECT_EQ(boundary[0].model_version, 1u);
  EXPECT_EQ(engine.active_version(), 2u);
  EXPECT_EQ(engine.staged_version(), 0u);

  // From the very next tick on, verdicts carry v2: latency is exactly one
  // flush epoch, never more.
  engine.submit(7, trace.steps[static_cast<std::size_t>(t++)]);
  const auto after = engine.tick();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].model_version, 2u);

  const SwapStats& ss = engine.swap_stats();
  EXPECT_EQ(ss.swaps, 1u);
  EXPECT_EQ(ss.last_activate_tick, ss.last_stage_tick);
  EXPECT_LE(ss.max_latency_ticks, 1);
  EXPECT_EQ(engine.stats().swaps, 2u);  // one activation per shard
}

TEST_F(ServeTest, NoOpSelfSwapLeavesStreamByteIdentical) {
  // Swapping in a clone of the active model at the active version must be
  // invisible: the raw-ring rescale reproduces every in-flight window bit
  // for bit, so the full verdict stream (version column included) matches
  // a swap-free run exactly. This is the standing no-op oracle the loadgen
  // soak leans on.
  EngineConfig cfg;
  cfg.window = window();
  cfg.shards = 4;
  cfg.max_batch = 8;
  Engine plain(mon(), cfg);
  const std::string baseline = drive(exp_, plain, 6, [](int) {});

  Engine swapping(mon(), cfg);
  const std::string swapped =
      drive(exp_, swapping, 6, [&](int t) {
        if (t > 0 && t % 5 == 0) {
          swapping.stage_model(mon(), swapping.active_version());
        }
      });
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(swapped, baseline)
      << "self-swap perturbed the verdict stream — the raw-ring rescale is "
         "not bit-identical to fresh ingest";
  EXPECT_GT(swapping.swap_stats().swaps, 0u);
  EXPECT_LE(swapping.swap_stats().max_latency_ticks, 1);
}

TEST_F(ServeTest, ShadowModeDualScoresWithoutChangingVerdicts) {
  EngineConfig cfg;
  cfg.window = window();
  cfg.shards = 2;
  cfg.max_batch = 8;
  Engine plain(mon(), cfg);
  const std::string baseline = drive(exp_, plain, 4, [](int) {});

  // Shadow-stage the candidate a third of the way in: verdicts must stay
  // byte-identical to the baseline (the shadow model observes, never
  // scores), while the shadow counters prove it actually ran.
  Engine shadowed(mon(), cfg);
  const int stage_at = exp_.test_traces().front().length() / 3;
  const std::string stream =
      drive(exp_, shadowed, 4, [&](int t) {
        if (t == stage_at) {
          shadowed.stage_model(next_mon(), 2, SwapMode::kShadow);
        }
      });
  EXPECT_EQ(stream, baseline);
  EXPECT_EQ(shadowed.active_version(), 1u);
  EXPECT_EQ(shadowed.shadow_version(), 2u);
  EXPECT_GT(shadowed.stats().shadow_windows, 0u);
  EXPECT_LE(shadowed.stats().shadow_disagree, shadowed.stats().shadow_windows);

  // Promotion turns the shadow into a staged epoch swap; the next tick
  // activates it.
  EXPECT_TRUE(shadowed.promote_shadow());
  EXPECT_EQ(shadowed.staged_version(), 2u);
  EXPECT_EQ(shadowed.shadow_version(), 0u);
  (void)shadowed.tick();
  EXPECT_EQ(shadowed.active_version(), 2u);
  EXPECT_FALSE(shadowed.promote_shadow());  // nothing left to promote
}

TEST_F(ServeTest, RollbackRestoresThePreviousModelStream) {
  EngineConfig cfg;
  cfg.window = window();
  cfg.shards = 2;
  cfg.max_batch = 8;
  Engine plain(mon(), cfg);
  const std::string baseline = drive(exp_, plain, 4, [](int) {});

  // Swap to v2 a third of the way in, roll back at two thirds. After the
  // rollback activates, the stream must rejoin the never-swapped baseline
  // exactly — same predictions, same bits, same version column — because
  // the raw rings rebuild v1's scaled windows bit for bit.
  const int steps = exp_.test_traces().front().length();
  Engine engine(mon(), cfg);
  bool rolled = false;
  const std::string stream = drive(exp_, engine, 4, [&](int t) {
    if (t == steps / 3) engine.stage_model(next_mon(), 2);
    if (t == 2 * steps / 3) rolled = engine.rollback();
  });
  EXPECT_TRUE(rolled);
  EXPECT_EQ(engine.active_version(), 1u);
  EXPECT_EQ(engine.swap_stats().swaps, 2u);  // swap + rollback activation

  // Compare the post-rollback suffix line by line against the baseline.
  // The rollback staged at tick 2*steps/3 activates inside that tick, so
  // every verdict from cycle 2*steps/3 + 1 on must match.
  std::map<std::string, std::string> base_lines;  // "session,cycle" -> line
  auto index = [](const std::string& s,
                  std::map<std::string, std::string>& into) {
    std::size_t pos = 0;
    while (pos < s.size()) {
      const std::size_t eol = s.find('\n', pos);
      const std::string line = s.substr(pos, eol - pos);
      const std::size_t second_comma = line.find(',', line.find(',') + 1);
      into[line.substr(0, second_comma)] = line;
      pos = eol + 1;
    }
  };
  std::map<std::string, std::string> got_lines;
  index(baseline, base_lines);
  index(stream, got_lines);
  int compared = 0;
  for (const auto& [key, line] : got_lines) {
    const int cycle = std::stoi(key.substr(key.find(',') + 1));
    if (cycle <= 2 * steps / 3) continue;
    ASSERT_TRUE(base_lines.count(key)) << key;
    EXPECT_EQ(line, base_lines[key]) << "post-rollback divergence at " << key;
    ++compared;
  }
  EXPECT_GT(compared, 0);

  // Rollback with nothing to roll back is a clean no-op.
  Engine idle(mon(), cfg);
  EXPECT_FALSE(idle.rollback());
  // Rollback before activation just drops the staged model.
  idle.stage_model(next_mon(), 2);
  EXPECT_FALSE(idle.rollback());
  EXPECT_EQ(idle.staged_version(), 0u);
  (void)idle.tick();
  EXPECT_EQ(idle.active_version(), 1u);
}

TEST_F(ServeTest, SwapModelFromRegistryMatchesFromScratchEngine) {
  const fs::path dir =
      fs::temp_directory_path() / "cpsguard_serve_registry_swap";
  fs::remove_all(dir);
  registry::ModelRegistry reg(dir.string());
  (void)exp_.publish_monitor(mlp_, reg);  // v1
  (void)exp_.publish_monitor(gru_, reg);  // v2

  EngineConfig cfg;
  cfg.window = window();
  cfg.shards = 2;
  cfg.max_batch = 8;

  // Reference: the candidate model serving from the very first cycle.
  Engine reference(next_mon(), cfg);
  const std::string ref_stream = drive(exp_, reference, 4, [](int) {});

  // Swap the registry's v2 in mid-stream. The mmap'd artifact dies inside
  // swap_model (shards clone), so GC'ing v1 afterwards is safe.
  const int steps = exp_.test_traces().front().length();
  Engine engine(mon(), cfg);
  const std::string stream = drive(exp_, engine, 4, [&](int t) {
    if (t == steps / 2) {
      engine.swap_model(reg, 2);
      EXPECT_EQ(reg.gc(1), (std::vector<std::uint64_t>{1}));
    }
  });
  EXPECT_EQ(engine.active_version(), 2u);
  EXPECT_LE(engine.swap_stats().max_latency_ticks, 1);

  // After activation the swapped engine must agree with the from-scratch
  // reference bit for bit (modulo the version column: the reference's v1
  // label vs the swapped engine's v2): the raw rings rebuild the
  // candidate's scaled windows exactly as fresh ingest would.
  auto tail = [&](const std::string& s) {
    std::map<std::string, std::pair<int, std::string>> out;
    std::size_t pos = 0;
    while (pos < s.size()) {
      const std::size_t eol = s.find('\n', pos);
      const std::string line = s.substr(pos, eol - pos);
      const std::size_t c1 = line.find(',');
      const std::size_t c2 = line.find(',', c1 + 1);
      const std::size_t c3 = line.find(',', c2 + 1);
      const int cycle = std::stoi(line.substr(c1 + 1, c2 - c1 - 1));
      // prediction + p_unsafe bits, version column dropped.
      out[line.substr(0, c2)] = {cycle, line.substr(c2 + 1, c3 - c2 - 1) +
                                            line.substr(line.rfind(','))};
      pos = eol + 1;
    }
    return out;
  };
  const auto ref_lines = tail(ref_stream);
  const auto got_lines = tail(stream);
  int compared = 0;
  for (const auto& [key, val] : got_lines) {
    if (val.first <= steps / 2) continue;
    const auto it = ref_lines.find(key);
    ASSERT_NE(it, ref_lines.end()) << key;
    EXPECT_EQ(val.second, it->second.second)
        << "post-swap divergence from from-scratch candidate at " << key;
    ++compared;
  }
  EXPECT_GT(compared, 0);

  // Asking for a version the registry no longer holds is a typed error.
  EXPECT_THROW(engine.swap_model(reg, 1), CpsError);
  fs::remove_all(dir);
}

TEST_F(ServeTest, RegistrySwapServesFromTheMappingAfterGc) {
  const fs::path dir =
      fs::temp_directory_path() / "cpsguard_serve_registry_gc_served";
  fs::remove_all(dir);
  registry::ModelRegistry reg(dir.string());
  ASSERT_EQ(exp_.publish_monitor(mlp_, reg), 1u);
  ASSERT_EQ(exp_.publish_monitor(gru_, reg), 2u);

  EngineConfig cfg;
  cfg.window = window();
  cfg.shards = 2;
  cfg.max_batch = 8;

  // Reference: v1 serving from the very first cycle.
  Engine reference(mon(), cfg);
  const std::string ref_stream = drive(exp_, reference, 4, [](int) {});

  // Start on v2, swap the registry's v1 in, then GC v1's file away while
  // it is the model being served. swap_model does not copy the weights, so
  // every later verdict reads the retained mapping of an unlinked file.
  const int steps = exp_.test_traces().front().length();
  EngineConfig v2_cfg = cfg;
  v2_cfg.initial_model_version = 2;
  Engine engine(next_mon(), v2_cfg);
  const std::string stream = drive(exp_, engine, 4, [&](int t) {
    if (t == steps / 2) {
      engine.swap_model(reg, 1);
      EXPECT_EQ(reg.gc(1), (std::vector<std::uint64_t>{1}));
      EXPECT_FALSE(fs::exists(reg.path_of(1)));
    }
  });
  EXPECT_EQ(engine.active_version(), 1u);

  // Every verdict after the activating tick is byte-identical to the
  // from-scratch v1 engine, version column included.
  std::map<std::string, std::string> ref_lines;
  std::map<std::string, std::string> got_lines;
  auto index = [](const std::string& s,
                  std::map<std::string, std::string>& into) {
    std::size_t pos = 0;
    while (pos < s.size()) {
      const std::size_t eol = s.find('\n', pos);
      const std::string line = s.substr(pos, eol - pos);
      into[line.substr(0, line.find(',', line.find(',') + 1))] = line;
      pos = eol + 1;
    }
  };
  index(ref_stream, ref_lines);
  index(stream, got_lines);
  int compared = 0;
  for (const auto& [key, line] : got_lines) {
    if (std::stoi(key.substr(key.find(',') + 1)) <= steps / 2) continue;
    ASSERT_TRUE(ref_lines.count(key)) << key;
    EXPECT_EQ(line, ref_lines[key]) << "post-GC divergence at " << key;
    ++compared;
  }
  EXPECT_GT(compared, 0);
  fs::remove_all(dir);
}

TEST_F(ServeTest, EngineAndStageCopyTheModelOnceWhateverTheShardCount) {
  obs::Counter& clones = obs::Registry::instance().counter("monitor.clones");
  const monitor::MlMonitor& current = mon();  // train before counting
  const monitor::MlMonitor& candidate = next_mon();
  EngineConfig cfg;
  cfg.window = window();
  cfg.shards = 8;
  const std::uint64_t before = clones.value();
  Engine engine(current, cfg);
  EXPECT_EQ(clones.value() - before, 1u);
  engine.stage_model(candidate, 2);
  engine.stage_model(candidate, 3, SwapMode::kShadow);
  EXPECT_EQ(clones.value() - before, 3u);
  (void)engine.tick();
  EXPECT_TRUE(engine.rollback());
  (void)engine.tick();
  EXPECT_EQ(engine.active_version(), 1u);
  EXPECT_EQ(clones.value() - before, 3u);  // rollback re-stages, no copy
}

// ---- telemetry ------------------------------------------------------------

/// Every serve.* registry counter and the EngineStats field it publishes.
/// serve.windows_ready is checked separately (flushed + pending).
const std::pair<const char*, std::uint64_t ShardStats::*> kServeCounters[] = {
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

std::uint64_t registry_counter(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

TEST_F(ServeTest, RegistryCountersMatchEngineStatsAtTickBoundaries) {
  // Two engines in one process publish into the same registry. After each
  // tick every serve.* counter has grown by exactly the sum of both
  // engines' stats(), and the gauges describe the engine that ticked last.
  std::map<std::string, std::uint64_t> base;
  for (const auto& [name, field] : kServeCounters) {
    base[name] = registry_counter(name);
  }
  base["serve.windows_ready"] = registry_counter("serve.windows_ready");
  base["serve.ticks"] = registry_counter("serve.ticks");

  // A: shadow-scores a second model, which is later promoted (a swap).
  EngineConfig a_cfg;
  a_cfg.window = window();
  a_cfg.shards = 2;
  a_cfg.max_batch = 4;
  Engine a(mon(), a_cfg);
  a.stage_model(next_mon(), 2, SwapMode::kShadow);
  // B: one shard with room for a single micro-batch (queue-full
  // rejections), two sessions (session-limit rejections) and a 1-tick idle
  // TTL (evictions).
  EngineConfig b_cfg;
  b_cfg.window = window();
  b_cfg.shards = 1;
  b_cfg.max_batch = 8;
  b_cfg.queue_capacity = 8;
  b_cfg.max_sessions = 2;
  b_cfg.idle_ttl_ticks = 1;
  Engine b(mon(), b_cfg);

  const auto expect_published = [&](const Engine& last, int tick) {
    const EngineStats sa = a.stats();
    const EngineStats sb = b.stats();
    for (const auto& [name, field] : kServeCounters) {
      EXPECT_EQ(registry_counter(name) - base[name], sa.*field + sb.*field)
          << name << " after tick " << tick;
    }
    EXPECT_EQ(registry_counter("serve.windows_ready") -
                  base["serve.windows_ready"],
              registry_counter("serve.windows_flushed") -
                  base["serve.windows_flushed"])
        << "tick " << tick;
    EXPECT_EQ(registry_counter("serve.ticks") - base["serve.ticks"],
              static_cast<std::uint64_t>(sa.ticks + sb.ticks));
    const EngineStats sl = last.stats();
    obs::Registry& reg = obs::Registry::instance();
    EXPECT_EQ(reg.gauge("serve.sessions_active").value(),
              static_cast<double>(sl.sessions));
    EXPECT_EQ(reg.gauge("serve.queue_depth").value(),
              static_cast<double>(sl.queue_depth()));
  };

  const sim::Trace& trace = exp_.test_traces().front();
  const int ticks = 3 * window();
  for (int t = 0; t < ticks; ++t) {
    const auto& rec = trace.steps[static_cast<std::size_t>(t)];
    if (t == ticks / 2) {
      ASSERT_TRUE(a.promote_shadow());
    }
    for (SessionId id = 1; id <= 5; ++id) a.submit(id, rec);
    (void)a.tick();
    expect_published(a, t);

    // Session 901 submits once and is TTL-evicted two ticks later; 902
    // finds no session slot; 900 streams without a drain until B's queue
    // is full.
    if (t == 0) {
      (void)b.try_submit(901, rec);
      (void)b.try_submit(900, rec);
      (void)b.try_submit(902, rec);
      while (b.try_submit(900, rec) == SubmitStatus::kAccepted) {
      }
    } else {
      (void)b.try_submit(900, rec);
    }
    (void)b.tick();
    expect_published(b, t);
  }
  const EngineStats sa = a.stats();
  const EngineStats sb = b.stats();
  EXPECT_GT(sa.shadow_windows, 0u);
  EXPECT_GT(sa.swaps, 0u);
  EXPECT_GT(sb.rejected_queue_full, 0u);
  EXPECT_GT(sb.rejected_session_limit, 0u);
  EXPECT_GT(sb.evicted, 0u);
}

TEST_F(ServeTest, NdjsonEventsParseBackAndShadowEventsSumToStats) {
  const fs::path path =
      fs::temp_directory_path() / "cpsguard_serve_events_test.ndjson";
  fs::remove(path);
  obs::enable_events(path.string());

  // A few shadow-scored ticks (serve.shadow + span events).
  EngineConfig cfg;
  cfg.window = window();
  cfg.shards = 2;
  cfg.max_batch = 4;
  Engine engine(mon(), cfg);
  engine.stage_model(next_mon(), 2, SwapMode::kShadow);
  const sim::Trace& trace = exp_.test_traces().front();
  for (int t = 0; t < 2 * window(); ++t) {
    for (SessionId id = 1; id <= 6; ++id) {
      engine.submit(id, trace.steps[static_cast<std::size_t>(t)]);
    }
    (void)engine.tick();
  }
  // One FGSM attack and one training epoch.
  const monitor::Dataset& test = exp_.test_data();
  const std::unique_ptr<monitor::MlMonitor> attacked = mon().clone();
  (void)attack::fgsm_attack(attacked->classifier(),
                            attacked->scaler().transform(test.x), test.labels,
                            attack::FgsmConfig{});
  monitor::MonitorConfig mc;
  mc.epochs = 1;
  monitor::MlMonitor fresh(mc);
  (void)fresh.train(exp_.train_data());
  obs::disable_events();

  std::ifstream in(path);
  std::string line;
  std::map<std::string, int> seen;
  std::uint64_t shadow_windows = 0;
  std::uint64_t shadow_disagree = 0;
  while (std::getline(in, line)) {
    util::Json ev = util::Json::object();
    ASSERT_NO_THROW(ev = util::Json::parse(line)) << line;
    ASSERT_TRUE(ev.is_object()) << line;
    const util::Json* name = ev.get("ev");
    ASSERT_TRUE(name != nullptr && name->is_string()) << line;
    const util::Json* ts = ev.get("ts_ns");
    ASSERT_TRUE(ts != nullptr && ts->is_integer()) << line;
    ++seen[name->as_str()];
    if (name->as_str() == "serve.shadow") {
      const util::Json* windows = ev.get("windows");
      const util::Json* disagree = ev.get("disagree");
      ASSERT_TRUE(windows != nullptr && windows->is_integer()) << line;
      ASSERT_TRUE(disagree != nullptr && disagree->is_integer()) << line;
      shadow_windows += static_cast<std::uint64_t>(windows->as_int());
      shadow_disagree += static_cast<std::uint64_t>(disagree->as_int());
    }
  }
  fs::remove(path);
  for (const char* expected :
       {"serve.shadow", "span", "attack.fgsm", "train.epoch"}) {
    EXPECT_GT(seen[expected], 0) << "no " << expected << " event";
  }
  const EngineStats stats = engine.stats();
  EXPECT_GT(stats.shadow_windows, 0u);
  EXPECT_EQ(shadow_windows, stats.shadow_windows);
  EXPECT_EQ(shadow_disagree, stats.shadow_disagree);
}

// ---- concurrent ingest -----------------------------------------------------

TEST_F(ServeTest, ConcurrentIngestIsRaceFreeAndLossless) {
  EngineConfig cfg;
  cfg.window = window();
  cfg.shards = 4;
  cfg.max_batch = 16;
  cfg.queue_capacity = 4096;
  Engine engine(mon(), cfg);

  const auto& traces = exp_.test_traces();
  const int kThreads = 4;
  const int kSessionsPerThread = 8;
  const int kRecords = 40;

  std::vector<VerdictEvent> ticker_events;
  std::atomic<bool> done{false};
  std::thread ticker([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const auto evs = engine.tick();
      ticker_events.insert(ticker_events.end(), evs.begin(), evs.end());
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  std::atomic<int> rejected{0};
  for (int th = 0; th < kThreads; ++th) {
    producers.emplace_back([&, th] {
      for (int t = 0; t < kRecords; ++t) {
        for (int s = 0; s < kSessionsPerThread; ++s) {
          const auto id = static_cast<SessionId>(th * 1000 + s);
          const sim::Trace& trace =
              traces[static_cast<std::size_t>(th + s) % traces.size()];
          const auto& rec =
              trace.steps[static_cast<std::size_t>(t) %
                          trace.steps.size()];
          if (engine.try_submit(id, rec) != SubmitStatus::kAccepted) {
            rejected.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& p : producers) p.join();
  done.store(true, std::memory_order_relaxed);
  ticker.join();

  const auto final_events = engine.tick();
  EXPECT_EQ(rejected.load(), 0);
  const std::size_t expected_windows =
      static_cast<std::size_t>(kThreads) * kSessionsPerThread *
      static_cast<std::size_t>(kRecords - window() + 1);
  EXPECT_EQ(ticker_events.size() + final_events.size(), expected_windows);
  EXPECT_EQ(engine.sessions_active(),
            static_cast<std::size_t>(kThreads) * kSessionsPerThread);
  EXPECT_EQ(engine.queue_depth(), 0u);
}

}  // namespace
}  // namespace cpsguard::serve
