// Minimal key = value configuration format for the experiment driver.
//
//   # comment
//   overlay  = chord
//   nodes    = 1000
//   horizon  = 3600
//
// Keys are case-sensitive; later assignments override earlier ones.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace propsim {

/// Whole-text value parsers: nullopt unless all of `text` is one value
/// (an integer must also fit in 64 bits). parse_bool accepts true/false,
/// 1/0, yes/no and on/off in any case.
std::optional<std::int64_t> parse_int(const std::string& text);
std::optional<double> parse_double(const std::string& text);
std::optional<bool> parse_bool(const std::string& text);

class Config {
 public:
  /// Parses the text. A line without '=' or with an empty key is an
  /// error: returns nullopt and sets `error` to "line N: ...".
  static std::optional<Config> try_parse(const std::string& text,
                                         std::string& error);
  /// Reads and parses a file; nullopt with `error` naming the path when
  /// it cannot be read or does not parse.
  static std::optional<Config> try_load_file(const std::string& path,
                                             std::string& error);
  /// Check-failing forms, for text the program itself controls.
  static Config parse(const std::string& text);
  static Config load_file(const std::string& path);

  bool has(const std::string& key) const;
  std::size_t size() const { return values_.size(); }

  /// The value, or the fallback when the key is missing.
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;

  void set(const std::string& key, const std::string& value);

  const std::map<std::string, std::string>& values() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace propsim
