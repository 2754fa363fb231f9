// Model registry + artifact suite: mmap zero-copy load bit-identity against
// the freshly trained monitor (all three architectures), canonical rebuild,
// flip-a-byte corruption rejection, atomic-publish crash safety under chaos
// injection, lineage chaining, retained-version GC, and the inference-only
// contract of a bound (view-backed) monitor.
#include "registry/registry.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "registry/artifact.h"
#include "registry/model_io.h"
#include "util/chaos.h"
#include "util/contracts.h"

namespace cpsguard::registry {
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

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class RegistryTest : public ::testing::Test {
 protected:
  RegistryTest() : exp_(tiny_config()) {
    dir_ = (fs::temp_directory_path() /
            ("cpsguard_registry_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  ~RegistryTest() override {
    util::chaos().configure(util::ChaosConfig{});  // off, for later tests
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  core::Experiment exp_;
  std::string dir_;
};

TEST_F(RegistryTest, MmapLoadIsBitIdenticalForAllArchitectures) {
  ModelRegistry reg(dir_);
  const core::MonitorVariant variants[] = {
      {monitor::Arch::kMlp, false},
      {monitor::Arch::kGru, false},
      {monitor::Arch::kLstm, false},
  };
  for (const auto& v : variants) {
    monitor::MlMonitor& trained = exp_.monitor(v);
    const std::uint64_t version = exp_.publish_monitor(v, reg);

    // Zero-copy load: the monitor's weights are views into the mmap'd
    // artifact. Probabilities must match the in-memory monitor bit for bit
    // — same scaler stream, same weight bytes, same forward path.
    const ModelRegistry::LoadedModel loaded = reg.load(version);
    const nn::Tensor3& x = exp_.test_data().x;
    const nn::Matrix expected = trained.predict_proba(x);
    const nn::Matrix got = loaded.monitor->predict_proba(x);
    EXPECT_EQ(got, expected) << v.name();

    const ModelRecord rec = reg.describe(version);
    EXPECT_EQ(rec.meta.display_name, v.name());
    EXPECT_EQ(rec.meta.config_fingerprint, exp_.config_fingerprint());
    EXPECT_EQ(rec.info.window, exp_.config().dataset.window);
  }
  EXPECT_EQ(reg.versions().size(), 3u);
}

// Inference is const: one monitor — owned or view-bound into the mmap —
// serves concurrent readers, and every thread gets bit for bit what a
// serial call returns. Under TSan this also shows that the reads write
// nothing.
TEST_F(RegistryTest, SharedConstMonitorReadsConcurrentlyBitIdentical) {
  const auto check = [&](const monitor::MlMonitor& mon,
                         const std::string& what) {
    const nn::Tensor3 x = mon.scaler().transform(exp_.test_data().x);
    const nn::Matrix serial = mon.predict_proba_scaled(x);
    constexpr int kThreads = 4;
    std::vector<nn::Matrix> got(kThreads);
    std::vector<std::thread> readers;
    for (int t = 0; t < kThreads; ++t) {
      readers.emplace_back([&, t] {
        got[static_cast<std::size_t>(t)] = mon.predict_proba_scaled(x);
      });
    }
    for (auto& r : readers) r.join();
    for (const nn::Matrix& g : got) EXPECT_EQ(g, serial) << what;
  };
  for (const monitor::Arch arch :
       {monitor::Arch::kMlp, monitor::Arch::kLstm, monitor::Arch::kGru}) {
    const core::MonitorVariant v{arch, false};
    check(exp_.monitor(v), v.name());
  }
  ModelRegistry reg(dir_);
  const ModelRegistry::LoadedModel loaded =
      reg.load(exp_.publish_monitor({monitor::Arch::kLstm, false}, reg));
  check(*loaded.monitor, "view-bound LSTM");
}

TEST_F(RegistryTest, PublishChainsLineageAcrossVersions) {
  ModelRegistry reg(dir_);
  const core::MonitorVariant mlp{monitor::Arch::kMlp, false};
  const std::uint64_t v1 = exp_.publish_monitor(mlp, reg);
  const std::uint64_t v2 = exp_.publish_monitor(mlp, reg);
  ASSERT_EQ(v1, 1u);
  ASSERT_EQ(v2, 2u);

  const ModelRecord r1 = reg.describe(v1);
  const ModelRecord r2 = reg.describe(v2);
  EXPECT_TRUE(r1.meta.parent_run_id.empty());
  EXPECT_EQ(r2.meta.parent_run_id, r1.meta.run_id);
  EXPECT_NE(r2.meta.run_id, r1.meta.run_id);
  EXPECT_EQ(r1.sha256.size(), 64u);
}

TEST_F(RegistryTest, AcceptedArtifactRebuildsBitIdentically) {
  ModelRegistry reg(dir_);
  const core::MonitorVariant mlp{monitor::Arch::kMlp, false};
  const std::uint64_t version = exp_.publish_monitor(mlp, reg);
  const std::string path = dir_ + "/v00000001.model";
  const std::string bytes = read_file(path);
  ASSERT_FALSE(bytes.empty());

  const ModelArtifact art = reg.open(version);
  EXPECT_EQ(art.rebuild(), bytes);
  EXPECT_EQ(art.size_bytes(), bytes.size());
  // Publishing the same weights again must be byte-reproducible modulo the
  // meta section (fresh run id / version / lineage).
  EXPECT_EQ(ModelArtifact::parse(bytes).rebuild(), bytes);
}

TEST_F(RegistryTest, EveryFlippedByteIsATypedReject) {
  ModelRegistry reg(dir_);
  const core::MonitorVariant mlp{monitor::Arch::kMlp, false};
  (void)exp_.publish_monitor(mlp, reg);
  const std::string path = dir_ + "/v00000001.model";
  const std::string clean = read_file(path);
  ASSERT_GT(clean.size(), kModelHeaderSize + kModelShaSize);

  // Flip one byte at a stride of positions covering header, sections,
  // blobs and the SHA trailer. Every corruption must surface as the typed
  // ModelFormatError — the SHA backstops whatever the structural checks
  // miss — and never load as a subtly different model.
  std::size_t tried = 0;
  for (std::size_t pos = 0; pos < clean.size();
       pos += 1 + clean.size() / 97) {
    std::string bad = clean;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x20);
    if (bad == clean) continue;
    ++tried;
    EXPECT_THROW((void)ModelArtifact::parse(bad), ModelFormatError)
        << "byte " << pos;
    write_file(path, bad);
    EXPECT_THROW((void)reg.open(1), ModelFormatError) << "byte " << pos;
  }
  EXPECT_GE(tried, 50u);
  // Truncations, including cutting into the SHA trailer.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{7}, kModelHeaderSize - 1,
        kModelHeaderSize, clean.size() - kModelShaSize, clean.size() - 1}) {
    EXPECT_THROW((void)ModelArtifact::parse(clean.substr(0, len)),
                 ModelFormatError)
        << "len " << len;
  }
  // Restore: the intact bytes still verify.
  write_file(path, clean);
  EXPECT_EQ(reg.open(1).file_sha256_hex(), ModelArtifact::parse(clean).file_sha256_hex());
}

TEST_F(RegistryTest, PublishSurvivesChaosFaultInjection) {
  // Chaos corrupts the published file after the atomic write; the publish
  // write-verify loop must detect it via verify-on-open and rewrite until
  // the artifact reads back verbatim. Faults are transient (one per site),
  // so the loop converges and the final artifact must be pristine.
  util::ChaosConfig chaos;
  chaos.enabled = true;
  chaos.seed = 7;
  chaos.io_fail_rate = 1.0;
  chaos.corrupt_rate = 1.0;
  util::chaos().configure(chaos);

  ModelRegistry reg(dir_);
  const core::MonitorVariant mlp{monitor::Arch::kMlp, false};
  const std::uint64_t version = exp_.publish_monitor(mlp, reg);
  util::chaos().configure(util::ChaosConfig{});

  const ModelRegistry::LoadedModel loaded = reg.load(version);
  const nn::Tensor3& x = exp_.test_data().x;
  EXPECT_EQ(loaded.monitor->predict_proba(x),
            exp_.monitor(mlp).predict_proba(x));
}

TEST_F(RegistryTest, GcRetainsNewestVersions) {
  ModelRegistry reg(dir_);
  const core::MonitorVariant mlp{monitor::Arch::kMlp, false};
  for (int i = 0; i < 3; ++i) (void)exp_.publish_monitor(mlp, reg);
  ASSERT_EQ(reg.latest(), 3u);

  const std::vector<std::uint64_t> removed = reg.gc(2);
  EXPECT_EQ(removed, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(reg.versions(), (std::vector<std::uint64_t>{2, 3}));
  EXPECT_THROW((void)reg.open(1), CpsError);
  EXPECT_TRUE(reg.gc(2).empty());  // idempotent at the retention floor
  EXPECT_THROW((void)reg.gc(0), ContractViolation);
  // Lineage still reads after GC: v3's parent run id survives in v3's meta
  // even though v2's file is the oldest remaining.
  EXPECT_FALSE(reg.describe(3).meta.parent_run_id.empty());
}

TEST_F(RegistryTest, BoundMonitorIsInferenceOnly) {
  ModelRegistry reg(dir_);
  const core::MonitorVariant mlp{monitor::Arch::kMlp, false};
  const std::uint64_t version = exp_.publish_monitor(mlp, reg);
  const ModelRegistry::LoadedModel loaded = reg.load(version);

  // The zero-copy monitor's weights are read-only views into the mmap;
  // mutating them must trip the borrowed-matrix contract, not scribble on
  // the page cache.
  nn::Param* w = loaded.monitor->classifier().params().front();
  EXPECT_THROW(w->value.fill(0.0f), ContractViolation);

  // clone() deep-copies back into owned storage: the clone is mutable and
  // survives the artifact (and its mapping) going away.
  const auto clone = loaded.monitor->clone();
  clone->classifier().params().front()->value.fill(0.0f);
  EXPECT_NO_THROW((void)clone->predict_proba(exp_.test_data().x));
}

TEST_F(RegistryTest, MissingAndForeignVersionsAreTypedErrors) {
  ModelRegistry reg(dir_);
  EXPECT_EQ(reg.latest(), 0u);
  EXPECT_TRUE(reg.versions().empty());
  EXPECT_THROW((void)reg.open(1), CpsError);
  EXPECT_THROW((void)reg.open(0), ContractViolation);

  // Foreign files in the registry directory are ignored by the version
  // scan, never parsed.
  write_file(dir_ + "/notes.txt", "not a model");
  write_file(dir_ + "/v1.model", "bad name");
  write_file(dir_ + "/v00000000.model", "version zero is invalid");
  EXPECT_TRUE(reg.versions().empty());

  const core::MonitorVariant mlp{monitor::Arch::kMlp, false};
  (void)exp_.publish_monitor(mlp, reg);
  EXPECT_EQ(reg.versions(), (std::vector<std::uint64_t>{1}));
}

}  // namespace
}  // namespace cpsguard::registry
