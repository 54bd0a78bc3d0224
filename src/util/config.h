// Key=value configuration with typed getters; used by examples and bench
// harnesses to override experiment parameters from the command line
// ("key=value" arguments) without a heavyweight flags library.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace delta::util {

class Config {
 public:
  Config() = default;

  /// Parse "key=value" tokens; tokens without '=' are rejected with
  /// std::invalid_argument, like a malformed value.
  static Config from_args(int argc, const char* const* argv);

  void set(const std::string& key, const std::string& value);

  /// has() and every getter mark `key` as read, whether or not it is set.
  [[nodiscard]] bool has(const std::string& key) const;

  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  /// The numeric getters throw std::invalid_argument unless the whole
  /// value parses ("threads=4x" is an error, not 4), as get_bool does.
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// Comma-separated integer list, e.g. "10,20,68".
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& key, const std::vector<std::int64_t>& fallback) const;

  [[nodiscard]] const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

  /// Throws std::invalid_argument ("unknown key: ...") for the first set
  /// key that neither has() nor a getter has read, so a misspelt or
  /// unsupported key is an error instead of a silent default. A tool
  /// calls it once its last getter has run.
  void reject_unread_keys() const;

 private:
  std::map<std::string, std::string> entries_;
  /// Keys has() or a getter asked for (the getters are const, and asking
  /// is what marks a key; not thread-safe, like the rest of the class).
  mutable std::set<std::string> read_;

  [[nodiscard]] std::optional<std::string> lookup(const std::string& key) const;
};

/// The command-line tools' handler for a malformed argument (the
/// std::invalid_argument Config throws): prints the message to stderr and
/// returns exit status 2, the status the tools give out-of-range values.
int report_bad_argument(const std::invalid_argument& e);

}  // namespace delta::util
