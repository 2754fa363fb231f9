// Minimal key=value config file reader, so experiment sweeps can be driven
// from checked-in files instead of long command lines.
//
// Format: one `key = value` per line; `#` starts a comment; blank lines
// ignored; keys are dotted paths by convention ("campaign.patients").
#pragma once

#include <map>
#include <string>

namespace cpsguard::util {

class ConfigFile {
 public:
  /// Parse from text; throws CpsError with a line number on malformed
  /// input or duplicate keys.
  static ConfigFile parse(const std::string& text);
  /// Read and parse a file; throws CpsError if unreadable.
  static ConfigFile load(const std::string& path);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& def) const;
  /// Typed getters parse strictly (locale-independent, no trailing
  /// garbage): "threads = 4x" is a ParseError naming the key. get_bool
  /// takes true/false, 1/0, yes/no.
  [[nodiscard]] int get_int(const std::string& key, int def) const;
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool def) const;

  [[nodiscard]] std::size_t size() const { return values_.size(); }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace cpsguard::util
