#include "util/config.h"

#include <cstddef>
#include <iostream>
#include <sstream>

namespace delta::util {

namespace {

/// Parses all of `text` with `parse` (a std::stoll / std::stod wrapper):
/// a value with trailing characters ("4x") or out of range is rejected,
/// not read as its numeric prefix.
template <typename Parse>
auto parse_whole(const std::string& key, const std::string& text,
                 const char* what, Parse parse) {
  std::size_t used = 0;
  try {
    const auto value = parse(text, &used);
    if (used == text.size()) return value;
  } catch (const std::logic_error&) {  // invalid_argument, out_of_range
  }
  throw std::invalid_argument("bad " + std::string(what) + " for " + key +
                              ": " + text);
}

std::int64_t parse_int(const std::string& key, const std::string& text) {
  return parse_whole(key, text, "integer",
                     [](const std::string& t, std::size_t* used) {
                       return static_cast<std::int64_t>(std::stoll(t, used));
                     });
}

}  // namespace

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("expected key=value argument, got '" +
                                  token + "'");
    }
    cfg.set(token.substr(0, eq), token.substr(eq + 1));
  }
  return cfg;
}

void Config::set(const std::string& key, const std::string& value) {
  entries_[key] = value;
}

bool Config::has(const std::string& key) const {
  return entries_.count(key) > 0;
}

std::optional<std::string> Config::lookup(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  return lookup(key).value_or(fallback);
}

std::int64_t Config::get_int(const std::string& key,
                             std::int64_t fallback) const {
  const auto v = lookup(key);
  if (!v) return fallback;
  return parse_int(key, *v);
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto v = lookup(key);
  if (!v) return fallback;
  return parse_whole(key, *v, "number",
                     [](const std::string& t, std::size_t* used) {
                       return std::stod(t, used);
                     });
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto v = lookup(key);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw std::invalid_argument("bad boolean for " + key + ": " + *v);
}

std::vector<std::int64_t> Config::get_int_list(
    const std::string& key, const std::vector<std::int64_t>& fallback) const {
  const auto v = lookup(key);
  if (!v) return fallback;
  std::vector<std::int64_t> out;
  std::istringstream is(*v);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(parse_int(key, item));
  }
  return out;
}

int report_bad_argument(const std::invalid_argument& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}

}  // namespace delta::util
