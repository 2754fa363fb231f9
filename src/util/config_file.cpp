#include "util/config_file.h"

#include <fstream>
#include <sstream>

#include "util/error.h"
#include "util/parse.h"

namespace cpsguard::util {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

ConfigFile ConfigFile::parse(const std::string& text) {
  ConfigFile cfg;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw CpsError("config line " + std::to_string(line_no) +
                               ": expected key = value");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      throw CpsError("config line " + std::to_string(line_no) +
                               ": empty key");
    }
    if (cfg.values_.contains(key)) {
      throw CpsError("config line " + std::to_string(line_no) +
                               ": duplicate key '" + key + "'");
    }
    cfg.values_[key] = value;
  }
  return cfg;
}

ConfigFile ConfigFile::load(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw CpsError("cannot open config file: " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return parse(ss.str());
}

bool ConfigFile::has(const std::string& key) const {
  return values_.contains(key);
}

std::string ConfigFile::get(const std::string& key, const std::string& def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

int ConfigFile::get_int(const std::string& key, int def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : parse_int32(it->second, key);
}

double ConfigFile::get_double(const std::string& key, double def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : parse_double(it->second, key);
}

bool ConfigFile::get_bool(const std::string& key, bool def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : parse_bool(it->second, key);
}

}  // namespace cpsguard::util
