#include "util/format.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/check.h"

namespace delta {

std::ostream& operator<<(std::ostream& os, Bytes b) {
  return os << util::human_bytes(b);
}

}  // namespace delta

namespace delta::util {

std::string human_bytes(Bytes b) {
  const double v = b.as_double();
  std::ostringstream os;
  os << std::fixed << std::setprecision(1);
  constexpr double kKB = 1e3;
  constexpr double kMB = 1e6;
  constexpr double kGB = 1e9;
  constexpr double kTB = 1e12;
  const double mag = v < 0 ? -v : v;
  if (mag >= kTB) {
    os << v / kTB << " TB";
  } else if (mag >= kGB) {
    os << v / kGB << " GB";
  } else if (mag >= kMB) {
    os << v / kMB << " MB";
  } else if (mag >= kKB) {
    os << v / kKB << " KB";
  } else {
    os << b.count() << " B";
  }
  return os.str();
}

std::string gb_fixed(Bytes b, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << b.as_double() / 1e9;
  return os.str();
}

std::string fixed(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string compare_to(Bytes value, Bytes baseline) {
  if (value == baseline) return "the same";
  if (value < baseline) {
    if (value == Bytes{0}) return "no";
    return fixed(baseline.as_double() / value.as_double()) + "x less";
  }
  if (baseline == Bytes{0}) return "more";
  return fixed(value.as_double() / baseline.as_double()) + "x more";
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  DELTA_CHECK(!headers_.empty());
}

void TablePrinter::add_row(std::vector<std::string> cells) {
  DELTA_CHECK_MSG(cells.size() == headers_.size(),
                  "row has " << cells.size() << " cells, expected "
                             << headers_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  const auto print_row = [&](const std::vector<std::string>& cells) {
    os << "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << ' ' << std::setw(static_cast<int>(widths[c])) << cells[c] << " |";
    }
    os << '\n';
  };
  print_row(headers_);
  os << "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << std::string(widths[c] + 2, '-') << "|";
  }
  os << '\n';
  for (const auto& row : rows_) print_row(row);
}

}  // namespace delta::util
