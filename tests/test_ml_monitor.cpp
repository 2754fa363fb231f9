#include "monitor/ml_monitor.h"

#include "eval/batch_eval.h"
#include "monitor/features.h"
#include "registry/model_io.h"

#include <gtest/gtest.h>

#include "sim/closed_loop.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace cpsguard::monitor {
namespace {

Dataset small_dataset(std::uint64_t seed, int traces = 6, int steps = 60) {
  std::vector<sim::Trace> ts;
  auto patient = sim::make_patient(sim::Testbed::kGlucosymOpenAps);
  auto controller = sim::make_controller(sim::Testbed::kGlucosymOpenAps);
  const auto profiles = sim::testbed_profiles(sim::Testbed::kGlucosymOpenAps, 2, 5);
  util::Rng rng(seed);
  for (int i = 0; i < traces; ++i) {
    sim::SimConfig cfg;
    cfg.steps = steps;
    cfg.inject_fault = (i % 2 == 0);
    ts.push_back(run_closed_loop(*patient, *controller,
                                 profiles[static_cast<std::size_t>(i % 2)], cfg, rng));
  }
  return build_dataset(ts, DatasetConfig{});
}

MonitorConfig fast_config(Arch arch, bool semantic) {
  MonitorConfig cfg;
  cfg.arch = arch;
  cfg.semantic = semantic;
  cfg.hidden = {16, 8};  // small for test speed
  cfg.epochs = 3;
  return cfg;
}

TEST(MonitorConfig, DisplayNamesMatchTableIII) {
  EXPECT_EQ(fast_config(Arch::kMlp, false).display_name(), "MLP");
  EXPECT_EQ(fast_config(Arch::kLstm, false).display_name(), "LSTM");
  EXPECT_EQ(fast_config(Arch::kMlp, true).display_name(), "MLP-Custom");
  EXPECT_EQ(fast_config(Arch::kLstm, true).display_name(), "LSTM-Custom");
}

TEST(MonitorConfig, PaperDefaultHiddenSizes) {
  MonitorConfig mlp;
  mlp.arch = Arch::kMlp;
  EXPECT_EQ(mlp.effective_hidden(), (std::vector<int>{256, 128}));
  MonitorConfig lstm;
  lstm.arch = Arch::kLstm;
  EXPECT_EQ(lstm.effective_hidden(), (std::vector<int>{128, 64}));
  MonitorConfig custom;
  custom.hidden = {32};
  EXPECT_EQ(custom.effective_hidden(), (std::vector<int>{32}));
}

TEST(MlMonitor, TrainingReducesLossAndEnablesPrediction) {
  const Dataset ds = small_dataset(1);
  MlMonitor mon(fast_config(Arch::kMlp, false));
  EXPECT_FALSE(mon.trained());
  const TrainReport report = mon.train(ds);
  EXPECT_TRUE(mon.trained());
  ASSERT_EQ(report.epoch_loss.size(), 3u);
  EXPECT_LT(report.epoch_loss.back(), report.epoch_loss.front());
  const auto preds = mon.predict(ds.x);
  ASSERT_EQ(preds.size(), static_cast<std::size_t>(ds.size()));
  for (int p : preds) EXPECT_TRUE(p == 0 || p == 1);
}

TEST(MlMonitor, SemanticVariantTrains) {
  const Dataset ds = small_dataset(2);
  MlMonitor mon(fast_config(Arch::kLstm, true));
  const TrainReport report = mon.train(ds);
  EXPECT_FALSE(report.epoch_loss.empty());
  EXPECT_TRUE(mon.trained());
}

TEST(MlMonitor, PredictProbaRowsSumToOne) {
  const Dataset ds = small_dataset(3);
  MlMonitor mon(fast_config(Arch::kMlp, false));
  mon.train(ds);
  const nn::Matrix p = mon.predict_proba(ds.x);
  for (int r = 0; r < p.rows(); ++r) {
    EXPECT_NEAR(p.at(r, 0) + p.at(r, 1), 1.0f, 1e-5);
  }
}

TEST(MlMonitor, ScaledAndRawPredictionsAgree) {
  const Dataset ds = small_dataset(4);
  MlMonitor mon(fast_config(Arch::kMlp, false));
  mon.train(ds);
  const auto raw = mon.predict(ds.x);
  const auto scaled = mon.predict_scaled(mon.scaler().transform(ds.x));
  EXPECT_EQ(raw, scaled);
}

// Monitors persist only as cpsguard.model.v1 artifacts: scaler and weights
// must survive the write/parse/load round trip exactly.
TEST(MlMonitor, SaveLoadRoundtripPreservesPredictions) {
  const Dataset ds = small_dataset(5);
  MlMonitor a(fast_config(Arch::kLstm, false));
  a.train(ds);
  registry::ModelMeta meta;
  meta.display_name = "LSTM";
  meta.hidden = a.config().effective_hidden();
  const registry::ModelArtifact art =
      registry::ModelArtifact::parse(registry::build_model_artifact(a, meta));
  const auto b = registry::load_monitor(art);
  EXPECT_TRUE(b->trained());
  EXPECT_EQ(b->config().arch, Arch::kLstm);
  EXPECT_TRUE(a.predict_proba(ds.x) == b->predict_proba(ds.x));
}

TEST(MlMonitor, UntrainedOperationsThrow) {
  MlMonitor mon(fast_config(Arch::kMlp, false));
  nn::Tensor3 x(1, 6, Features::kNumFeatures);
  EXPECT_THROW(mon.predict(x), cpsguard::ContractViolation);
  EXPECT_THROW((void)mon.classifier(), cpsguard::ContractViolation);
  EXPECT_THROW((void)mon.scaler(), cpsguard::ContractViolation);
  EXPECT_THROW((void)mon.clone(), cpsguard::ContractViolation);
}

TEST(MlMonitor, DeterministicGivenSeed) {
  const Dataset ds = small_dataset(6);
  MlMonitor a(fast_config(Arch::kMlp, false));
  MlMonitor b(fast_config(Arch::kMlp, false));
  a.train(ds);
  b.train(ds);
  EXPECT_EQ(a.predict(ds.x), b.predict(ds.x));
}

TEST(MlMonitor, SeedChangesModel) {
  const Dataset ds = small_dataset(7);
  MonitorConfig c1 = fast_config(Arch::kMlp, false);
  MonitorConfig c2 = c1;
  c2.seed = c1.seed + 1;
  MlMonitor a(c1), b(c2);
  a.train(ds);
  b.train(ds);
  // Different seeds → different weights; probabilistically different preds.
  const auto pa = a.predict_proba(ds.x);
  const auto pb = b.predict_proba(ds.x);
  double diff = 0.0;
  for (int r = 0; r < pa.rows(); ++r) diff += std::abs(pa.at(r, 1) - pb.at(r, 1));
  EXPECT_GT(diff, 1e-3);
}

void expect_identical_owned_copy(const MlMonitor& src, MlMonitor& copy,
                                 const Dataset& ds) {
  ASSERT_TRUE(copy.trained());
  EXPECT_EQ(copy.config().arch, src.config().arch);
  EXPECT_TRUE(src.predict_proba(ds.x) == copy.predict_proba(ds.x));
  EXPECT_EQ(src.predict(ds.x), copy.predict(ds.x));
  for (const nn::Param* p : copy.classifier().params()) {
    EXPECT_FALSE(p->value.borrowed()) << p->name;
  }
}

TEST(MlMonitor, CloneIsBitIdenticalAndIndependent) {
  const Dataset ds = small_dataset(8);
  for (const Arch arch : {Arch::kMlp, Arch::kLstm, Arch::kGru}) {
    SCOPED_TRACE(to_string(arch));
    MlMonitor mon(fast_config(arch, false));
    mon.train(ds);
    const auto copy = mon.clone();
    expect_identical_owned_copy(mon, *copy, ds);
    // Independent object: the clone survives the original.
    EXPECT_NE(&mon.classifier(), &copy->classifier());

    // A registry-bound source (weights are views into the artifact's
    // buffer) clones into owned storage that outlives the artifact.
    registry::ModelMeta meta;
    meta.display_name = to_string(arch);
    meta.hidden = mon.config().effective_hidden();
    std::unique_ptr<MlMonitor> from_view;
    {
      const registry::ModelArtifact art = registry::ModelArtifact::parse(
          registry::build_model_artifact(mon, meta));
      const auto bound = registry::load_monitor(art);
      ASSERT_TRUE(bound->classifier().params().front()->value.borrowed());
      from_view = bound->clone();
    }
    expect_identical_owned_copy(mon, *from_view, ds);
  }
}

TEST(BatchEval, ChunkedPredictProbaMatchesSingleCall) {
  const Dataset ds = small_dataset(9);
  MlMonitor trained(fast_config(Arch::kMlp, false));
  trained.train(ds);
  // Everything below reads through a const reference: the chunks share
  // the one monitor instead of cloning it.
  const MlMonitor& mon = trained;
  const nn::Matrix whole = mon.predict_proba(ds.x);
  // Tiny chunk forces many shards (when the pool has >1 worker); either way
  // the stitched result must be bit-identical to the one-shot call.
  const nn::Matrix chunked = eval::batched_predict_proba(mon, ds.x, 8);
  EXPECT_TRUE(whole == chunked);
  EXPECT_EQ(eval::batched_predict(mon, ds.x, 8), mon.predict(ds.x));
  const nn::Tensor3 scaled = mon.scaler().transform(ds.x);
  EXPECT_TRUE(eval::batched_predict_proba_scaled(mon, scaled, 8) ==
              mon.predict_proba_scaled(scaled));
  EXPECT_TRUE(whole == mon.predict_proba_scaled(scaled));
}

TEST(MlMonitor, RejectsBadConfig) {
  MonitorConfig bad;
  bad.epochs = 0;
  EXPECT_THROW(MlMonitor{bad}, cpsguard::ContractViolation);
  MonitorConfig bad_lr;
  bad_lr.learning_rate = 0.0;
  EXPECT_THROW(MlMonitor{bad_lr}, cpsguard::ContractViolation);
}

TEST(MlMonitor, TrainOnEmptyDatasetThrows) {
  Dataset empty;
  MlMonitor mon(fast_config(Arch::kMlp, false));
  EXPECT_THROW(mon.train(empty), cpsguard::ContractViolation);
}

}  // namespace
}  // namespace cpsguard::monitor
