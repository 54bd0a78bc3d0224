// Software prefetch of one row of an id-indexed table. A prefetch is a
// hint: it reads no value, writes no state and cannot fault, so issuing one
// never changes what a program computes, only when its memory arrives.
#pragma once

#include <cstdint>
#include <vector>

namespace delta::util {

/// Asks the CPU to start pulling the cache line of rows[index]. An index
/// outside the table (negative ids included) is ignored: the code that
/// reads the row later is the one that rejects it.
template <typename T>
inline void prefetch_row(const std::vector<T>& rows, std::int64_t index) {
  if (static_cast<std::uint64_t>(index) < rows.size()) {
    __builtin_prefetch(rows.data() + index);
  }
}

}  // namespace delta::util
