// Run manifests: one machine-diffable JSON file per bench run
// (BENCH_<name>.json) with a uniform schema — git SHA, build flags, seeds,
// thread counts, run parameters, per-phase timing quantiles, the full
// counter dump, and a SHA-256 fingerprint of every CSV the bench emitted.
// Diffing two manifests across commits answers both "did the outputs drift?"
// (hashes) and "where did the time go?" (span histograms).
//
// Schema: see DESIGN.md § "Observability" (schema id below bumps on change).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace cpsguard::obs {

inline constexpr const char* kManifestSchema = "cpsguard.bench_manifest.v1";

/// Compile-time build identification (populated by CMake definitions).
struct BuildInfo {
  std::string git_sha;     // HEAD at configure time ("unknown" outside git)
  std::string compiler;    // id + version
  std::string flags;       // CMAKE_CXX_FLAGS + per-config flags
  std::string build_type;  // CMAKE_BUILD_TYPE
};

[[nodiscard]] BuildInfo build_info();

/// One registered output file.
struct OutputRecord {
  std::string path;
  std::string sha256;
  std::uint64_t bytes = 0;
  std::uint64_t rows = 0;  // CSV data rows (0 for non-tabular outputs)
};

/// Resume lineage of a checkpointed campaign (core::CheckpointStore): which
/// run this one continued and the store's four record counts. Keeps
/// recovered runs auditable — a resumed CSV is byte-identical to a straight
/// run, so the manifest is where the history lives.
struct ResumeInfo {
  std::string run_id;
  std::string parent_run_id;          // "" for a fresh (non-resumed) run
  std::uint64_t resumed_points = 0;   // checkpoint records reused (hits)
  std::uint64_t discarded_records = 0;  // corrupt/truncated records dropped
  std::uint64_t puts = 0;             // checkpoint records written
  std::uint64_t misses = 0;           // lookups that found no record
};

class RunManifest {
 public:
  explicit RunManifest(std::string name);

  const std::string& name() const { return name_; }

  /// Key/value run parameters (stringified; insertion-ordered).
  void set_param(const std::string& key, const std::string& value);
  void set_param(const std::string& key, double value);
  void set_param(const std::string& key, long long value);

  void set_seed(std::uint64_t seed) { seed_ = seed; }
  /// `max_parallelism` 0 means "uncapped" (pool-sized fan-outs).
  void set_threads(unsigned hardware, std::size_t max_parallelism);

  /// Record checkpoint/resume lineage; emitted as the optional "resume"
  /// section of the manifest.
  void set_resume(ResumeInfo info);
  [[nodiscard]] const std::optional<ResumeInfo>& resume() const {
    return resume_;
  }

  /// Hash `path` (which must exist) and register it as a run output.
  void record_output(const std::string& path, std::uint64_t rows = 0);

  [[nodiscard]] bool has_output(const std::string& path) const;
  [[nodiscard]] const std::vector<OutputRecord>& outputs() const {
    return outputs_;
  }

  /// Serialize: schema header, build info, params, outputs, plus the
  /// current Registry counter/gauge/histogram dump.
  [[nodiscard]] std::string to_json() const;

  /// Write to_json() atomically to `<dir>/BENCH_<name>.json` (dir "" =
  /// cwd). Returns the path written. Throws IoError on I/O failure (one
  /// internal re-attempt absorbs a transient/injected write fault).
  std::string write(const std::string& dir = "") const;

 private:
  std::string name_;
  std::uint64_t seed_ = 0;
  unsigned hardware_threads_ = 0;
  std::size_t max_parallelism_ = 0;
  std::vector<std::pair<std::string, std::string>> params_;
  std::vector<OutputRecord> outputs_;
  std::optional<ResumeInfo> resume_;
};

}  // namespace cpsguard::obs
