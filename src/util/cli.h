// Tiny command-line flag parser for the bench/example binaries.
// Supports `--name value` and `--name=value`; unknown flags are an error so
// typos in sweep scripts fail loudly.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace cpsguard::util {

class Cli {
 public:
  /// Parses argv. Throws CpsError on a malformed flag.
  Cli(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name, const std::string& def) const;
  /// Typed getters parse strictly (locale-independent, no trailing garbage:
  /// "--threads=4x" is a ParseError naming the flag, not a silent 4).
  /// get_bool takes true/false, 1/0, yes/no; a bare `--flag` means true.
  [[nodiscard]] int get_int(const std::string& name, int def) const;
  [[nodiscard]] double get_double(const std::string& name, double def) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool def) const;

  /// Names of all flags that were provided but never queried; used by
  /// binaries to reject typos after all get() calls are done.
  [[nodiscard]] std::vector<std::string> unused() const;

  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> used_;
};

}  // namespace cpsguard::util
