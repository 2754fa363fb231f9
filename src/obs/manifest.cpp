#include "obs/manifest.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "obs/fileio.h"
#include "obs/metrics.h"
#include "obs/sha256.h"

#ifndef CPSGUARD_GIT_SHA
#define CPSGUARD_GIT_SHA "unknown"
#endif
#ifndef CPSGUARD_COMPILER
#define CPSGUARD_COMPILER "unknown"
#endif
#ifndef CPSGUARD_BUILD_FLAGS
#define CPSGUARD_BUILD_FLAGS ""
#endif
#ifndef CPSGUARD_BUILD_TYPE
#define CPSGUARD_BUILD_TYPE ""
#endif

namespace cpsguard::obs {

namespace {

// Local JSON string building. obs sits below util in the layering, so it
// cannot reuse util::Json; the emission needs are small enough (flat schema,
// insertion-ordered keys) that a string builder keeps the library dependency-
// free.
std::string escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string quoted(const std::string& s) { return '"' + escaped(s) + '"'; }

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string uint(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

std::string histogram_json(const HistogramSnapshot& s) {
  std::string out = "{";
  out += "\"count\":" + uint(s.count);
  out += ",\"sum\":" + num(s.sum);
  out += ",\"min\":" + num(s.min);
  out += ",\"max\":" + num(s.max);
  out += ",\"p50\":" + num(s.p50);
  out += ",\"p90\":" + num(s.p90);
  out += ",\"p99\":" + num(s.p99);
  out += "}";
  return out;
}

}  // namespace

BuildInfo build_info() {
  BuildInfo info;
  info.git_sha = CPSGUARD_GIT_SHA;
  info.compiler = CPSGUARD_COMPILER;
  info.flags = CPSGUARD_BUILD_FLAGS;
  info.build_type = CPSGUARD_BUILD_TYPE;
  return info;
}

RunManifest::RunManifest(std::string name) : name_(std::move(name)) {}

void RunManifest::set_param(const std::string& key, const std::string& value) {
  for (auto& [k, v] : params_) {
    if (k == key) {
      v = quoted(value);
      return;
    }
  }
  params_.emplace_back(key, quoted(value));
}

void RunManifest::set_param(const std::string& key, double value) {
  for (auto& [k, v] : params_) {
    if (k == key) {
      v = num(value);
      return;
    }
  }
  params_.emplace_back(key, num(value));
}

void RunManifest::set_param(const std::string& key, long long value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%lld", value);
  for (auto& [k, v] : params_) {
    if (k == key) {
      v = buf;
      return;
    }
  }
  params_.emplace_back(key, buf);
}

void RunManifest::set_threads(unsigned hardware, std::size_t max_parallelism) {
  hardware_threads_ = hardware;
  max_parallelism_ = max_parallelism;
}

void RunManifest::set_resume(ResumeInfo info) { resume_ = std::move(info); }

void RunManifest::record_output(const std::string& path, std::uint64_t rows) {
  OutputRecord rec;
  rec.path = path;
  rec.sha256 = sha256_file_hex(path);
  rec.bytes = static_cast<std::uint64_t>(std::filesystem::file_size(path));
  rec.rows = rows;
  for (auto& existing : outputs_) {
    if (existing.path == path) {
      existing = std::move(rec);  // re-written file: keep the latest hash
      return;
    }
  }
  outputs_.push_back(std::move(rec));
}

bool RunManifest::has_output(const std::string& path) const {
  for (const auto& rec : outputs_) {
    if (rec.path == path) return true;
  }
  return false;
}

std::string RunManifest::to_json() const {
  const BuildInfo build = build_info();
  std::string out = "{\n";
  out += "  \"schema\": " + quoted(kManifestSchema) + ",\n";
  out += "  \"name\": " + quoted(name_) + ",\n";
  out += "  \"git_sha\": " + quoted(build.git_sha) + ",\n";
  out += "  \"build\": {\"compiler\": " + quoted(build.compiler) +
         ", \"flags\": " + quoted(build.flags) +
         ", \"build_type\": " + quoted(build.build_type) + "},\n";
  out += "  \"seed\": " + uint(seed_) + ",\n";
  out += "  \"threads\": {\"hardware\": " + uint(hardware_threads_) +
         ", \"max_parallelism\": " + uint(max_parallelism_) + "},\n";

  if (resume_) {
    out += "  \"resume\": {\"run_id\": " + quoted(resume_->run_id) +
           ", \"parent_run_id\": " + quoted(resume_->parent_run_id) +
           ", \"resumed_points\": " + uint(resume_->resumed_points) +
           ", \"discarded_records\": " + uint(resume_->discarded_records) +
           ", \"puts\": " + uint(resume_->puts) +
           ", \"misses\": " + uint(resume_->misses) + "},\n";
  }

  out += "  \"params\": {";
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(params_[i].first) + ": " + params_[i].second;
  }
  out += "},\n";

  out += "  \"outputs\": [";
  for (std::size_t i = 0; i < outputs_.size(); ++i) {
    const auto& rec = outputs_[i];
    if (i > 0) out += ",";
    out += "\n    {\"path\": " + quoted(rec.path) +
           ", \"sha256\": " + quoted(rec.sha256) +
           ", \"bytes\": " + uint(rec.bytes) + ", \"rows\": " + uint(rec.rows) +
           "}";
  }
  out += outputs_.empty() ? "],\n" : "\n  ],\n";

  const Registry& reg = Registry::instance();
  out += "  \"counters\": {";
  {
    const auto counters = reg.counters();
    for (std::size_t i = 0; i < counters.size(); ++i) {
      if (i > 0) out += ",";
      out += "\n    " + quoted(counters[i].first) + ": " +
             uint(counters[i].second);
    }
    out += counters.empty() ? "},\n" : "\n  },\n";
  }
  out += "  \"gauges\": {";
  {
    const auto gauges = reg.gauges();
    for (std::size_t i = 0; i < gauges.size(); ++i) {
      if (i > 0) out += ",";
      out += "\n    " + quoted(gauges[i].first) + ": " + num(gauges[i].second);
    }
    out += gauges.empty() ? "},\n" : "\n  },\n";
  }
  out += "  \"histograms\": {";
  {
    const auto histograms = reg.histograms();
    for (std::size_t i = 0; i < histograms.size(); ++i) {
      if (i > 0) out += ",";
      out += "\n    " + quoted(histograms[i].first) + ": " +
             histogram_json(histograms[i].second);
    }
    out += histograms.empty() ? "}\n" : "\n  }\n";
  }
  out += "}\n";
  return out;
}

std::string RunManifest::write(const std::string& dir) const {
  std::string path = dir.empty() ? std::string() : dir + "/";
  path += "BENCH_" + name_ + ".json";
  const std::string json = to_json();
  // Atomic temp + rename so a crashed run never leaves a truncated
  // manifest. Chaos-injected write faults are transient (at most one per
  // path), so a single re-attempt is all the recovery this needs; obs sits
  // below util and cannot use the full RetryPolicy machinery.
  try {
    atomic_write_file(path, json);
  } catch (const IoError&) {
    atomic_write_file(path, json);
  }
  return path;
}

}  // namespace cpsguard::obs
