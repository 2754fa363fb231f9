#include "util/cli.h"

#include "util/error.h"
#include "util/parse.h"

namespace cpsguard::util {

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw CpsError("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";  // bare flag
    }
  }
}

bool Cli::has(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return false;
  used_[name] = true;
  return true;
}

std::string Cli::get(const std::string& name, const std::string& def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  used_[name] = true;
  return it->second;
}

int Cli::get_int(const std::string& name, int def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  used_[name] = true;
  return parse_int32(it->second, "--" + name);
}

double Cli::get_double(const std::string& name, double def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  used_[name] = true;
  return parse_double(it->second, "--" + name);
}

bool Cli::get_bool(const std::string& name, bool def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  used_[name] = true;
  return parse_bool(it->second, "--" + name);
}

std::vector<std::string> Cli::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : flags_) {
    if (!used_.contains(name)) out.push_back(name);
  }
  return out;
}

}  // namespace cpsguard::util
