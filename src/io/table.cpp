#include "io/table.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "io/csv.hpp"

namespace rv::io {

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {
  if (columns_.empty()) {
    throw std::invalid_argument("Table: need at least one column");
  }
  aligns_.assign(columns_.size(), Align::kRight);
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != columns_.size()) {
    throw std::invalid_argument("Table::add_row: arity mismatch");
  }
  rows_.push_back(std::move(cells));
}

void Table::set_align(std::size_t column, Align align) {
  if (column >= aligns_.size()) {
    throw std::out_of_range("Table::set_align: column out of range");
  }
  aligns_[column] = align;
}

std::vector<std::size_t> Table::widths() const {
  std::vector<std::size_t> w(columns_.size());
  for (std::size_t i = 0; i < columns_.size(); ++i) w[i] = columns_[i].size();
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      w[i] = std::max(w[i], row[i].size());
    }
  }
  return w;
}

namespace {
void pad_cell(std::string& out, const std::string& cell, std::size_t width,
              Align align) {
  const std::size_t padding = width - std::min(width, cell.size());
  if (align == Align::kRight) out.append(padding, ' ');
  out += cell;
  if (align == Align::kLeft) out.append(padding, ' ');
}
}  // namespace

std::string Table::to_ascii() const {
  const std::vector<std::size_t> w = widths();
  std::size_t line = 2;  // leading '|' or '+', trailing '\n'
  for (const std::size_t width : w) line += width + 3;
  std::string out;
  out.reserve(line * (rows_.size() + 4));
  auto rule = [&] {
    out += '+';
    for (const std::size_t width : w) {
      out.append(width + 2, '-');
      out += '+';
    }
    out += '\n';
  };
  auto cells = [&](const std::vector<std::string>& row, bool header) {
    out += '|';
    for (std::size_t i = 0; i < row.size(); ++i) {
      out += ' ';
      pad_cell(out, row[i], w[i], header ? Align::kLeft : aligns_[i]);
      out += " |";
    }
    out += '\n';
  };
  rule();
  cells(columns_, true);
  rule();
  for (const auto& row : rows_) cells(row, false);
  rule();
  return out;
}

void Table::print(std::ostream& os, const std::string& title) const {
  if (!title.empty()) os << title << '\n';
  os << to_ascii();
}

std::string format_fixed(double v, int precision) {
  const double mag = v < 0 ? -v : v;
  const bool sci = mag != 0.0 && (mag >= 1e7 || mag < 1e-4);
  std::string out;
  append_number(out, v,
                sci ? std::chars_format::scientific : std::chars_format::fixed,
                precision);
  return out;
}

std::string format_sci(double v, int precision) {
  std::string out;
  append_number(out, v, std::chars_format::scientific, precision);
  return out;
}

}  // namespace rv::io
