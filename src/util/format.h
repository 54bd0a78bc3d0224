// Human-readable byte formatting and a fixed-width table printer used by the
// figure-reproduction harnesses to emit the paper's rows/series.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "util/types.h"

namespace delta::util {

/// "12.3 GB", "512.0 MB", "87 B" — decimal units to match the paper's axes.
std::string human_bytes(Bytes b);

/// Fixed-precision gigabytes, e.g. "12.34" (the unit the paper plots).
std::string gb_fixed(Bytes b, int precision = 2);

/// Minimal markdown-ish table printer with right-aligned numeric columns.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with fixed precision.
std::string fixed(double v, int precision = 2);

/// `value` against `baseline` as a factor that reads right in either
/// direction: "2.50x less", "1.04x more", "the same" ("no" for a zero
/// value, "more" over a zero baseline).
std::string compare_to(Bytes value, Bytes baseline);

}  // namespace delta::util
