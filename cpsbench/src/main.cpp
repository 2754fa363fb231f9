// The cpsbench binary. run.py validates the user-facing flags, builds
// this program and calls it as
//
//   cpsbench <workload> <seed> <seconds> <trace 0|1> <tmp_dir>
//
// It prints one JSON line of provenance and diagnostics ({"info": ...}),
// then, as the last line, the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 only when a result was printed.
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "util/logging.h"
#include "util/parse.h"
#include "workloads.h"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
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
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cpsbench;
  if (argc != 6) {
    std::fprintf(stderr,
                 "usage: cpsbench <workload> <seed> <seconds> <trace 0|1> <tmp_dir>\n");
    return 2;
  }
  try {
    RunArgs args;
    args.workload = argv[1];
    args.seed = cpsguard::util::parse_u64(argv[2], "seed");
    args.seconds = cpsguard::util::parse_int32(argv[3], "seconds");
    const std::string trace = argv[4];
    if (trace != "0" && trace != "1") {
      std::fprintf(stderr, "trace must be 0 or 1, got \"%s\"\n", trace.c_str());
      return 2;
    }
    args.trace = trace == "1";
    args.tmp_dir = argv[5];
    if (args.seconds < 1) {
      std::fprintf(stderr, "seconds must be >= 1\n");
      return 2;
    }
    cpsguard::util::set_log_level(cpsguard::util::LogLevel::kWarn);

    Result result;
    if (args.workload == "serve_steady") {
      result = run_serve(args);
    } else if (args.workload == "campaign") {
      result = run_campaign(args);
    } else {
      std::fprintf(stderr, "unknown workload \"%s\"\n", args.workload.c_str());
      return 2;
    }

    std::string info = "{\"info\": {";
    for (std::size_t i = 0; i < result.info.size(); ++i) {
      if (i > 0) info += ", ";
      info += json_string(result.info[i].first) + ": " +
              json_string(result.info[i].second);
    }
    info += "}}";

    std::string metrics;
    for (const Metric& m : result.metrics) {
      if (!std::isfinite(m.value)) {
        std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
        return 1;
      }
      if (!metrics.empty()) metrics += ", ";
      metrics += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
                 ", \"unit\": " + json_string(m.unit) + "}";
    }
    std::printf("%s\n", info.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed), metrics.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cpsbench: %s\n", e.what());
    return 1;
  }
}
