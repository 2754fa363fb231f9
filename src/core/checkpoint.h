// Crash-safe checkpoint store for resumable campaigns.
//
// A store is a directory of self-checking records (schema
// cpsguard.checkpoint.v1): each record embeds its key, payload size, and
// payload SHA-256, and is written atomically (temp + rename, bounded
// retries). Loading verifies all three; a truncated or corrupted record —
// torn write, bit rot, chaos injection — is deleted and reported as absent,
// never trusted. Sweep campaigns persist one record per completed sweep
// point and one per trained-model snapshot, so a killed run resumes from
// what it finished instead of recomputing the campaign (and, because every
// point re-derives its RNG stream from the seed, the resumed CSV is
// byte-identical to an uninterrupted run).
//
// Lineage: the store's meta record carries a fresh run_id per open plus the
// previous opener's run_id as parent, which the bench manifest records
// (resume_info()) so resumed runs stay auditable.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "obs/manifest.h"

namespace cpsguard::core {

inline constexpr const char* kCheckpointSchema = "cpsguard.checkpoint.v1";

struct CheckpointStats {
  std::uint64_t puts = 0;       // records written
  std::uint64_t hits = 0;       // valid records loaded
  std::uint64_t misses = 0;     // absent keys
  std::uint64_t discarded = 0;  // truncated/corrupted records dropped
};

class CheckpointStore {
 public:
  /// Open (creating if needed) the store at `dir`. Opening an existing
  /// store starts a resumed run: its previous run_id becomes this run's
  /// parent. A missing or damaged meta record degrades to a fresh lineage —
  /// the records themselves stay usable either way.
  explicit CheckpointStore(std::string dir);

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] const std::string& run_id() const { return run_id_; }
  /// "" when this store was created fresh.
  [[nodiscard]] const std::string& parent_run_id() const {
    return parent_run_id_;
  }

  /// Persist `payload` under `key` (overwriting), atomically and with
  /// bounded retries. Safe to call concurrently from sweep shards.
  void put(const std::string& key, std::string_view payload);

  /// Load the payload stored under `key`, or nullopt if absent or invalid.
  /// Invalid records (wrong schema/key, size or SHA-256 mismatch) are
  /// deleted so the caller recomputes and re-puts.
  std::optional<std::string> get(const std::string& key);

  /// get() != nullopt, with the same validation and discard side effects.
  bool contains(const std::string& key);

  [[nodiscard]] CheckpointStats stats() const;

  /// Lineage plus all four stats() counts, as the bench manifest's
  /// "resume" section records them.
  [[nodiscard]] obs::ResumeInfo resume_info() const;

 private:
  [[nodiscard]] std::string record_path(const std::string& key) const;
  void load_or_init_meta();

  std::string dir_;
  std::string run_id_;
  std::string parent_run_id_;
  mutable std::mutex mutex_;  // guards stats_ (file ops are per-key)
  CheckpointStats stats_;
};

}  // namespace cpsguard::core
