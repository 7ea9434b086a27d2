#pragma once

/// \file table.hpp
/// Console table rendering.  Every bench binary prints the
/// rows the corresponding paper artifact would contain; this class
/// keeps the formatting consistent across all experiments.

#include <iosfwd>
#include <string>
#include <vector>

namespace rv::io {

/// Column alignment.
enum class Align { kLeft, kRight };

/// Accumulates rows, then renders them as an aligned ASCII table.
class Table {
 public:
  /// Creates a table with the given column names.
  explicit Table(std::vector<std::string> columns);

  /// Appends a row; must have exactly as many cells as columns.
  /// \throws std::invalid_argument on arity mismatch.
  void add_row(std::vector<std::string> cells);

  /// Sets alignment for a column (default: right).
  void set_align(std::size_t column, Align align);

  /// Number of data rows.
  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  /// Number of columns.
  [[nodiscard]] std::size_t columns() const { return columns_.size(); }

  /// Renders as an aligned, box-drawn ASCII table.
  [[nodiscard]] std::string to_ascii() const;

  /// Prints the ASCII rendering to `os` with an optional title line.
  void print(std::ostream& os, const std::string& title = "") const;

 private:
  [[nodiscard]] std::vector<std::size_t> widths() const;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<Align> aligns_;
};

/// Fixed-precision formatter used by the benches ("12.34", "1.2e+07"):
/// printf "%.*f", or "%.*e" when |v| >= 1e7 or 0 < |v| < 1e-4.
[[nodiscard]] std::string format_fixed(double v, int precision = 4);

/// Scientific formatter: printf "%.*e".
[[nodiscard]] std::string format_sci(double v, int precision = 3);

}  // namespace rv::io
