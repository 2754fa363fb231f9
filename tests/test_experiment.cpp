// End-to-end harness tests at miniature scale: campaign generation,
// splitting, monitor training/caching, and all three perturbation
// evaluations produce sane results.
#include "core/experiment.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <utility>

#include "obs/metrics.h"
#include "registry/artifact.h"
#include "util/contracts.h"
#include "util/logging.h"

namespace cpsguard::core {
namespace {

ExperimentConfig tiny_config(sim::Testbed tb = sim::Testbed::kGlucosymOpenAps) {
  ExperimentConfig cfg;
  cfg.campaign.testbed = tb;
  cfg.campaign.patients = 3;
  cfg.campaign.sims_per_patient = 3;
  cfg.campaign.trace_steps = 60;
  cfg.campaign.seed = 7;
  cfg.epochs = 2;
  cfg.cache_dir = "";  // no caching unless a test opts in
  return cfg;
}

TEST(Campaign, GeneratesRequestedTraceCount) {
  const auto traces = generate_campaign(tiny_config().campaign);
  EXPECT_EQ(traces.size(), 9u);
  for (const auto& t : traces) EXPECT_EQ(t.length(), 60);
}

TEST(Campaign, DeterministicAcrossRuns) {
  const auto a = generate_campaign(tiny_config().campaign);
  const auto b = generate_campaign(tiny_config().campaign);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].length(), b[i].length());
    for (int s = 0; s < a[i].length(); ++s) {
      EXPECT_DOUBLE_EQ(a[i].steps[static_cast<std::size_t>(s)].true_bg,
                       b[i].steps[static_cast<std::size_t>(s)].true_bg);
    }
  }
}

TEST(Campaign, FaultFractionRoughlyRespected) {
  CampaignConfig cfg = tiny_config().campaign;
  cfg.patients = 5;
  cfg.sims_per_patient = 20;
  cfg.fault_fraction = 0.5;
  const auto traces = generate_campaign(cfg);
  int faulty = 0;
  for (const auto& t : traces) faulty += t.fault_injected ? 1 : 0;
  EXPECT_GT(faulty, 30);
  EXPECT_LT(faulty, 70);
}

TEST(Split, ByTraceNoLeakage) {
  const auto traces = generate_campaign(tiny_config().campaign);
  const auto split = build_datasets(traces, monitor::DatasetConfig{}, 0.7, 3);
  EXPECT_EQ(split.train_traces.size() + split.test_traces.size(), traces.size());
  EXPECT_FALSE(split.train_traces.empty());
  EXPECT_FALSE(split.test_traces.empty());
  EXPECT_EQ(split.train.num_traces(),
            static_cast<int>(split.train_traces.size()));
  EXPECT_EQ(split.test.num_traces(), static_cast<int>(split.test_traces.size()));
}

TEST(Split, RejectsBadFraction) {
  const auto traces = generate_campaign(tiny_config().campaign);
  EXPECT_THROW(build_datasets(traces, monitor::DatasetConfig{}, 0.0, 3),
               ContractViolation);
  EXPECT_THROW(build_datasets(traces, monitor::DatasetConfig{}, 1.0, 3),
               ContractViolation);
}

TEST(Variants, FourInPaperOrder) {
  const auto vs = all_variants();
  ASSERT_EQ(vs.size(), 4u);
  EXPECT_EQ(vs[0].name(), "MLP");
  EXPECT_EQ(vs[1].name(), "LSTM");
  EXPECT_EQ(vs[2].name(), "MLP-Custom");
  EXPECT_EQ(vs[3].name(), "LSTM-Custom");
}

class ExperimentTest : public ::testing::Test {
 protected:
  ExperimentTest() : exp_(tiny_config()) {}
  Experiment exp_;
  const MonitorVariant mlp_{monitor::Arch::kMlp, false};
};

TEST_F(ExperimentTest, PrepareBuildsDatasets) {
  exp_.prepare();
  EXPECT_GT(exp_.train_data().size(), 0);
  EXPECT_GT(exp_.test_data().size(), 0);
  const double pos = exp_.train_data().positive_fraction();
  EXPECT_GT(pos, 0.02);
  EXPECT_LT(pos, 0.9);
}

TEST_F(ExperimentTest, CleanEvaluationIsSane) {
  const auto r = exp_.evaluate_clean(mlp_);
  EXPECT_GE(r.f1(), 0.0);
  EXPECT_LE(r.f1(), 1.0);
  EXPECT_GT(r.accuracy(), 0.4);  // should beat coin flip even when tiny
  EXPECT_DOUBLE_EQ(r.robustness_err, 0.0);
}

TEST_F(ExperimentTest, RuleMonitorEvaluates) {
  const auto r = exp_.evaluate_rule_monitor();
  EXPECT_GT(r.confusion.total(), 0);
  EXPECT_GE(r.f1(), 0.0);
}

TEST_F(ExperimentTest, GaussianEvaluationPerturbsPredictions) {
  const auto r = exp_.evaluate_under_gaussian(mlp_, 1.0);
  EXPECT_GE(r.robustness_err, 0.0);
  EXPECT_LE(r.robustness_err, 1.0);
}

TEST_F(ExperimentTest, FgsmDegradesOrMatchesCleanF1) {
  const auto clean = exp_.evaluate_clean(mlp_);
  // At this miniature scale the monitor can be flat enough that moderate
  // budgets flip nothing; a large budget must move *something*.
  const auto attacked = exp_.evaluate_under_fgsm(mlp_, 0.2);
  EXPECT_LE(attacked.f1(), clean.f1() + 0.1);
  const auto heavy = exp_.evaluate_under_fgsm(mlp_, 1.0);
  EXPECT_GT(heavy.robustness_err, 0.0)
      << "a 1.0 FGSM attack should flip at least one prediction";
}

TEST_F(ExperimentTest, BlackboxRunsAndIsWeakerOrEqualToWhitebox) {
  const auto white = exp_.evaluate_under_fgsm(mlp_, 0.1);
  const auto black = exp_.evaluate_under_blackbox(mlp_, 0.1);
  EXPECT_GE(black.robustness_err, 0.0);
  // Transfer attacks are at most about as strong as white-box on average;
  // allow slack at tiny scale.
  EXPECT_LE(black.robustness_err, white.robustness_err + 0.25);
}

TEST_F(ExperimentTest, CleanPredictionsAreMemoized) {
  const auto& a = exp_.clean_predictions(mlp_);
  const auto& b = exp_.clean_predictions(mlp_);
  EXPECT_EQ(&a, &b);
}

std::uint64_t epochs_trained() {
  return obs::Registry::instance().counter("nn.epochs_trained").value();
}

std::string fresh_cache_dir() {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("cpsguard_test_cache_" +
        std::string(
            ::testing::UnitTest::GetInstance()->current_test_info()->name())))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(ExperimentCache, SaveAndReloadProducesSamePredictions) {
  const std::string cache = fresh_cache_dir();
  ExperimentConfig cfg = tiny_config();
  cfg.cache_dir = cache;
  const MonitorVariant v{monitor::Arch::kMlp, false};

  std::vector<int> first;
  {
    Experiment e1(cfg);
    first = e1.monitor(v).predict(e1.test_data().x);
  }
  {
    Experiment e2(cfg);
    e2.prepare();
    const std::uint64_t epochs_before = epochs_trained();
    const auto second = e2.monitor(v).predict(e2.test_data().x);
    EXPECT_EQ(epochs_trained(), epochs_before) << "cache miss: retrained";
    EXPECT_EQ(first, second);
  }
  const std::string path =
      cache + "/MLP_" + Experiment(cfg).config_fingerprint() + ".model";
  EXPECT_NO_THROW((void)registry::ModelArtifact::open(path));
  std::filesystem::remove_all(cache);
}

// One flipped byte anywhere in a cached model (fixed header, meta JSON,
// weight blob, SHA-256 trailer) must be a logged typed reject followed by a
// retrain that rewrites a valid artifact — never a silent load.
TEST(ExperimentCache, CorruptCachedModelIsRejectedAndRetrained) {
  const std::string cache = fresh_cache_dir();
  ExperimentConfig cfg = tiny_config();
  cfg.cache_dir = cache;
  const MonitorVariant v{monitor::Arch::kMlp, false};
  const std::string path =
      cache + "/MLP_" + Experiment(cfg).config_fingerprint() + ".model";

  std::vector<int> reference;
  {
    Experiment e(cfg);
    reference = e.monitor(v).predict(e.test_data().x);
  }
  const auto size = static_cast<std::streamoff>(std::filesystem::file_size(path));
  const struct {
    const char* region;
    std::streamoff offset;
  } flips[] = {{"header", 20},
               {"meta", 130},
               {"blob", size - 33},  // last weight byte before the trailer
               {"sha", size - 1}};
  const util::LogLevel saved_level = util::log_level();
  util::set_log_level(util::LogLevel::kWarn);
  for (const auto& flip : flips) {
    SCOPED_TRACE(flip.region);
    {
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      f.seekg(flip.offset);
      const char c = static_cast<char>(f.get());
      f.seekp(flip.offset);
      f.put(static_cast<char>(c ^ 0x5a));
    }
    EXPECT_THROW((void)registry::ModelArtifact::open(path),
                 registry::ModelFormatError);

    Experiment e(cfg);
    e.prepare();
    const std::uint64_t epochs_before = epochs_trained();
    ::testing::internal::CaptureStderr();
    const auto preds = e.monitor(v).predict(e.test_data().x);
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("model cache for MLP rejected (model artifact"),
              std::string::npos)
        << log;
    EXPECT_GT(epochs_trained(), epochs_before) << "corrupt cache was loaded";
    EXPECT_EQ(preds, reference);
    EXPECT_NO_THROW((void)registry::ModelArtifact::open(path));
  }
  {
    // A valid artifact under another variant's name is rejected too.
    SCOPED_TRACE("foreign variant");
    const MonitorVariant custom{monitor::Arch::kMlp, true};
    const std::string custom_path =
        cache + "/MLP-Custom_" + Experiment(cfg).config_fingerprint() + ".model";
    std::filesystem::copy_file(path, custom_path);
    Experiment e(cfg);
    e.prepare();
    const std::uint64_t epochs_before = epochs_trained();
    ::testing::internal::CaptureStderr();
    (void)e.monitor(custom);
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("model cache for MLP-Custom rejected (model artifact: "
                       "holds MLP for config"),
              std::string::npos)
        << log;
    EXPECT_GT(epochs_trained(), epochs_before);
  }
  util::set_log_level(saved_level);
  std::filesystem::remove_all(cache);
}

// The fingerprint is the only cache key: every field that shapes the
// campaign, the datasets or training must move it.
TEST(ExperimentCache, FingerprintCoversEveryTrainingField) {
  const ExperimentConfig base = tiny_config();
  const std::string base_fp = Experiment(base).config_fingerprint();
  const std::vector<std::pair<const char*, void (*)(ExperimentConfig&)>>
      edits = {
          {"testbed",
           [](ExperimentConfig& c) {
             c.campaign.testbed = sim::Testbed::kT1dBasalBolus;
           }},
          {"patients", [](ExperimentConfig& c) { c.campaign.patients += 1; }},
          {"sims",
           [](ExperimentConfig& c) { c.campaign.sims_per_patient += 1; }},
          {"fault_fraction",
           [](ExperimentConfig& c) { c.campaign.fault_fraction = 0.5; }},
          {"trace_steps",
           [](ExperimentConfig& c) { c.campaign.trace_steps += 1; }},
          {"seed", [](ExperimentConfig& c) { c.campaign.seed += 1; }},
          {"window", [](ExperimentConfig& c) { c.dataset.window += 1; }},
          {"horizon", [](ExperimentConfig& c) { c.dataset.horizon += 1; }},
          {"bg_target", [](ExperimentConfig& c) { c.dataset.bg_target += 1; }},
          {"train_fraction",
           [](ExperimentConfig& c) { c.train_fraction = 0.6; }},
          {"epochs", [](ExperimentConfig& c) { c.epochs += 1; }},
          {"batch_size", [](ExperimentConfig& c) { c.batch_size += 1; }},
          {"learning_rate",
           [](ExperimentConfig& c) { c.learning_rate = 0.002; }},
          {"semantic_weight_mlp",
           [](ExperimentConfig& c) { c.semantic_weight_mlp = 0.75; }},
          {"semantic_weight_lstm",
           [](ExperimentConfig& c) { c.semantic_weight_lstm = 1.5; }},
      };
  for (const auto& [field, edit] : edits) {
    ExperimentConfig changed = base;
    edit(changed);
    EXPECT_NE(Experiment(changed).config_fingerprint(), base_fp) << field;
  }
  // The cache location is not part of the configuration.
  ExperimentConfig moved = base;
  moved.cache_dir = "elsewhere";
  EXPECT_EQ(Experiment(moved).config_fingerprint(), base_fp);
}

TEST(ExperimentT1d, SecondTestbedWorksEndToEnd) {
  Experiment exp(tiny_config(sim::Testbed::kT1dBasalBolus));
  const MonitorVariant lstm{monitor::Arch::kLstm, true};
  const auto clean = exp.evaluate_clean(lstm);
  EXPECT_GT(clean.confusion.total(), 0);
  const auto noisy = exp.evaluate_under_gaussian(lstm, 0.5);
  EXPECT_GE(noisy.robustness_err, 0.0);
}

// Regression: only kLstm used to carry an arch seed tag, so MLP and GRU
// variants derived bit-identical training seeds. Every architecture must
// now map to a distinct seed while MLP/LSTM keep their historical values
// (so cached monitors and committed figure CSVs stay valid).
TEST(MonitorConfigSeeds, DistinctPerArchAndHistoricallyStable) {
  const ExperimentConfig cfg = tiny_config();
  const Experiment exp(cfg);
  const std::uint64_t base = cfg.campaign.seed;

  // Historical derivations, frozen.
  EXPECT_EQ(exp.monitor_config({monitor::Arch::kMlp, false}).seed,
            base ^ 0x1234ULL);
  EXPECT_EQ(exp.monitor_config({monitor::Arch::kMlp, true}).seed,
            base ^ 0xABCDULL);
  EXPECT_EQ(exp.monitor_config({monitor::Arch::kLstm, false}).seed,
            base ^ 0x1234ULL ^ 0xBEEF0000ULL);
  EXPECT_EQ(exp.monitor_config({monitor::Arch::kLstm, true}).seed,
            base ^ 0xABCDULL ^ 0xBEEF0000ULL);

  // All (arch, semantic) combinations must yield pairwise-distinct seeds —
  // the GRU/MLP collision was the bug.
  std::vector<std::uint64_t> seeds;
  for (const auto arch :
       {monitor::Arch::kMlp, monitor::Arch::kLstm, monitor::Arch::kGru}) {
    for (const bool semantic : {false, true}) {
      seeds.push_back(exp.monitor_config({arch, semantic}).seed);
    }
  }
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (std::size_t j = i + 1; j < seeds.size(); ++j) {
      EXPECT_NE(seeds[i], seeds[j]) << "variants " << i << " and " << j;
    }
  }
}

// The parallel sweep APIs must reproduce the pointwise evaluations exactly
// (identical confusion counts and robustness errors, point by point).
TEST_F(ExperimentTest, GaussianSweepMatchesPointwise) {
  const std::vector<double> sigmas = {0.25, 1.0};
  const auto sweep = exp_.evaluate_under_gaussian_sweep(mlp_, sigmas);
  ASSERT_EQ(sweep.size(), sigmas.size());
  for (std::size_t i = 0; i < sigmas.size(); ++i) {
    const auto point = exp_.evaluate_under_gaussian(mlp_, sigmas[i]);
    EXPECT_EQ(sweep[i].confusion.tp, point.confusion.tp) << "sigma " << sigmas[i];
    EXPECT_EQ(sweep[i].confusion.fp, point.confusion.fp) << "sigma " << sigmas[i];
    EXPECT_EQ(sweep[i].confusion.fn, point.confusion.fn) << "sigma " << sigmas[i];
    EXPECT_EQ(sweep[i].confusion.tn, point.confusion.tn) << "sigma " << sigmas[i];
    EXPECT_DOUBLE_EQ(sweep[i].robustness_err, point.robustness_err);
  }
}

TEST_F(ExperimentTest, FgsmSweepMatchesPointwise) {
  const std::vector<double> epsilons = {0.05, 0.2};
  const auto sweep = exp_.evaluate_under_fgsm_sweep(mlp_, epsilons);
  ASSERT_EQ(sweep.size(), epsilons.size());
  for (std::size_t i = 0; i < epsilons.size(); ++i) {
    const auto point = exp_.evaluate_under_fgsm(mlp_, epsilons[i]);
    EXPECT_EQ(sweep[i].confusion.tp, point.confusion.tp) << "eps " << epsilons[i];
    EXPECT_EQ(sweep[i].confusion.fp, point.confusion.fp) << "eps " << epsilons[i];
    EXPECT_EQ(sweep[i].confusion.fn, point.confusion.fn) << "eps " << epsilons[i];
    EXPECT_EQ(sweep[i].confusion.tn, point.confusion.tn) << "eps " << epsilons[i];
    EXPECT_DOUBLE_EQ(sweep[i].robustness_err, point.robustness_err);
  }
}

TEST_F(ExperimentTest, BlackboxSweepMatchesPointwise) {
  const std::vector<double> epsilons = {0.1};
  const auto sweep = exp_.evaluate_under_blackbox_sweep(mlp_, epsilons);
  ASSERT_EQ(sweep.size(), epsilons.size());
  const auto point = exp_.evaluate_under_blackbox(mlp_, epsilons[0]);
  EXPECT_EQ(sweep[0].confusion.tp, point.confusion.tp);
  EXPECT_EQ(sweep[0].confusion.fp, point.confusion.fp);
  EXPECT_EQ(sweep[0].confusion.fn, point.confusion.fn);
  EXPECT_EQ(sweep[0].confusion.tn, point.confusion.tn);
  EXPECT_DOUBLE_EQ(sweep[0].robustness_err, point.robustness_err);
}

TEST(ExperimentTrainAll, HydratesAllVariants) {
  ExperimentConfig cfg = tiny_config();
  cfg.epochs = 1;
  Experiment exp(cfg);
  exp.train_all();
  for (const auto& v : all_variants()) {
    EXPECT_TRUE(exp.monitor(v).trained());
  }
}

}  // namespace
}  // namespace cpsguard::core
