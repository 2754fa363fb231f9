#include "core/checkpoint.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "obs/fileio.h"
#include "obs/sha256.h"
#include "util/chaos.h"
#include "util/contracts.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/retry.h"
#include "util/run_id.h"

namespace cpsguard::core {

namespace fs = std::filesystem;

namespace {

constexpr const char* kMetaFile = "_store_meta";

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  if (!in) return std::nullopt;
  return ss.str();
}

/// Record layout: four header lines, a blank line, then the raw payload.
std::string encode_record(const std::string& key, std::string_view payload) {
  std::ostringstream os;
  os << kCheckpointSchema << '\n'
     << "key=" << key << '\n'
     << "bytes=" << payload.size() << '\n'
     << "sha256=" << obs::sha256_hex(payload.data(), payload.size()) << '\n'
     << '\n';
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  return os.str();
}

/// Strict decode: any deviation — schema drift, key collision, truncation,
/// flipped bits — returns nullopt and the caller discards the record.
std::optional<std::string> decode_record(const std::string& bytes,
                                         const std::string& key) {
  std::size_t pos = 0;
  auto next_line = [&]() -> std::optional<std::string> {
    const std::size_t nl = bytes.find('\n', pos);
    if (nl == std::string::npos) return std::nullopt;
    std::string line = bytes.substr(pos, nl - pos);
    pos = nl + 1;
    return line;
  };

  const auto schema = next_line();
  if (!schema || *schema != kCheckpointSchema) return std::nullopt;
  const auto key_line = next_line();
  if (!key_line || *key_line != "key=" + key) return std::nullopt;
  const auto bytes_line = next_line();
  if (!bytes_line || bytes_line->rfind("bytes=", 0) != 0) return std::nullopt;
  const auto sha_line = next_line();
  if (!sha_line || sha_line->rfind("sha256=", 0) != 0) return std::nullopt;
  const auto blank = next_line();
  if (!blank || !blank->empty()) return std::nullopt;

  // Strict parse: "bytes=12x", "bytes=-5" (stoull would wrap it), or an
  // empty value are all corruption, not a length.
  const auto parsed_bytes = util::try_parse_u64(bytes_line->substr(6));
  if (!parsed_bytes) return std::nullopt;
  const std::uint64_t payload_bytes = *parsed_bytes;
  if (bytes.size() - pos != payload_bytes) return std::nullopt;
  std::string payload = bytes.substr(pos);
  if (obs::sha256_hex(payload.data(), payload.size()) != sha_line->substr(7)) {
    return std::nullopt;
  }
  return payload;
}

}  // namespace

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  expects(!dir_.empty(), "checkpoint store needs a directory");
  fs::create_directories(dir_);
  load_or_init_meta();
}

void CheckpointStore::load_or_init_meta() {
  const std::string meta_path = dir_ + "/" + kMetaFile;
  run_id_ = util::fresh_run_id();
  parent_run_id_.clear();
  if (const auto bytes = read_file(meta_path)) {
    // Meta layout: schema line, run_id=..., parent_run_id=...
    std::istringstream is(*bytes);
    std::string schema;
    std::string run_line;
    if (std::getline(is, schema) && schema == kCheckpointSchema &&
        std::getline(is, run_line) && run_line.rfind("run_id=", 0) == 0) {
      parent_run_id_ = run_line.substr(7);
    } else {
      util::log_warn("checkpoint store ", dir_,
                     ": unreadable meta record, starting a fresh lineage");
    }
  }
  std::ostringstream meta;
  meta << kCheckpointSchema << '\n'
       << "run_id=" << run_id_ << '\n'
       << "parent_run_id=" << parent_run_id_ << '\n';
  util::retry_call(util::RetryPolicy::for_file_io(), "checkpoint.meta",
                   [&] { obs::atomic_write_file(meta_path, meta.str()); });
}

std::string CheckpointStore::record_path(const std::string& key) const {
  // Filenames are content-addressed on the key: stable across runs, safe
  // for arbitrary key characters, and collision-free for our purposes.
  return dir_ + "/" + obs::sha256_hex(key).substr(0, 32) + ".ckpt";
}

void CheckpointStore::put(const std::string& key, std::string_view payload) {
  const std::string path = record_path(key);
  const std::string record = encode_record(key, payload);
  util::retry_call(util::RetryPolicy::for_file_io(), "checkpoint.put",
                   [&] { obs::atomic_write_file(path, record); });
  // Chaos corruption seam: bit rot / torn storage happens *after* a clean
  // write; the self-check at load is what recovers from it.
  util::chaos().maybe_corrupt_file(path, key);
  const std::scoped_lock lock(mutex_);
  ++stats_.puts;
}

std::optional<std::string> CheckpointStore::get(const std::string& key) {
  const std::string path = record_path(key);
  std::error_code ec;
  if (!fs::exists(path, ec) || ec) {
    const std::scoped_lock lock(mutex_);
    ++stats_.misses;
    return std::nullopt;
  }
  const auto bytes = read_file(path);
  auto payload = bytes ? decode_record(*bytes, key) : std::nullopt;
  if (!payload) {
    // Truncated or corrupted: discard rather than trust. The caller
    // recomputes and re-puts, healing the store.
    util::log_warn("checkpoint store ", dir_, ": discarding invalid record for ",
                   key);
    fs::remove(path, ec);
    const std::scoped_lock lock(mutex_);
    ++stats_.discarded;
    return std::nullopt;
  }
  const std::scoped_lock lock(mutex_);
  ++stats_.hits;
  return payload;
}

bool CheckpointStore::contains(const std::string& key) {
  return get(key).has_value();
}

CheckpointStats CheckpointStore::stats() const {
  const std::scoped_lock lock(mutex_);
  return stats_;
}

obs::ResumeInfo CheckpointStore::resume_info() const {
  const CheckpointStats s = stats();
  return obs::ResumeInfo{run_id_, parent_run_id_, s.hits, s.discarded,
                         s.puts, s.misses};
}

}  // namespace cpsguard::core
