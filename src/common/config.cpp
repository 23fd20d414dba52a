#include "common/config.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/check.h"

namespace propsim {
namespace {

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return {};
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

Config checked(std::optional<Config> config, const std::string& error) {
  if (!config) {
    std::fprintf(stderr, "config: %s\n", error.c_str());
    PROPSIM_CHECK(false && "malformed config");
  }
  return std::move(*config);
}

}  // namespace

std::optional<std::int64_t> parse_int(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE) return std::nullopt;
  return v;
}

std::optional<double> parse_double(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (*end != '\0') return std::nullopt;
  return v;
}

std::optional<bool> parse_bool(const std::string& text) {
  std::string v = text;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  return std::nullopt;
}

std::optional<Config> Config::try_parse(const std::string& text,
                                        std::string& error) {
  Config config;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string stripped = trim(line);
    if (stripped.empty()) continue;
    const auto eq = stripped.find('=');
    const std::string key =
        eq == std::string::npos ? "" : trim(stripped.substr(0, eq));
    if (key.empty()) {
      error = "line " + std::to_string(line_no) + ": expected key = value, " +
              "got '" + stripped + "'";
      return std::nullopt;
    }
    config.values_[key] = trim(stripped.substr(eq + 1));
  }
  return config;
}

std::optional<Config> Config::try_load_file(const std::string& path,
                                            std::string& error) {
  std::error_code ec;
  std::ifstream in(path);
  if (!in.good() || std::filesystem::is_directory(path, ec)) {
    error = "cannot read config file '" + path + "'";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto config = try_parse(buf.str(), error);
  if (!config) error = path + ": " + error;
  return config;
}

Config Config::parse(const std::string& text) {
  std::string error;
  return checked(try_parse(text, error), error);
}

Config Config::load_file(const std::string& path) {
  std::string error;
  return checked(try_load_file(path, error), error);
}

bool Config::has(const std::string& key) const {
  return values_.contains(key);
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

}  // namespace propsim
