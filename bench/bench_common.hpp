#pragma once

/// \file bench_common.hpp
/// Shared plumbing for the experiment binaries: output directory
/// handling, CSV dumping, and a uniform banner so `bench_output.txt`
/// reads as a single report.

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "io/csv.hpp"
#include "io/table.hpp"

namespace rv::bench {

/// Directory where benches drop their CSV artifacts.
inline std::filesystem::path results_dir() {
  const std::filesystem::path dir = "bench_results";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

/// Prints the experiment banner.
inline void banner(const std::string& id, const std::string& title,
                   const std::string& paper_artifact) {
  std::cout << "\n================================================================\n"
            << id << " — " << title << '\n'
            << "reproduces: " << paper_artifact << '\n'
            << "================================================================\n";
}

/// Writes a finished CSV document of `rows` data rows next to the
/// printed output.
inline void dump_csv(const std::string& filename, const std::string& document,
                     std::size_t rows) {
  const auto path = results_dir() / filename;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << '\n';
    return;
  }
  out << document;
  std::cout << "[csv] " << path.string() << " (" << rows << " rows)\n";
}

/// Writes a table's rows as CSV next to the printed output.
inline void dump_csv(const std::string& filename,
                     const rv::io::CsvRow& header,
                     const std::vector<rv::io::CsvRow>& rows) {
  std::string document;
  rv::io::append_csv_row(document, header);
  for (const auto& row : rows) rv::io::append_csv_row(document, row);
  dump_csv(filename, document, rows.size());
}

/// Formats a ratio as e.g. "0.43x"; reports "n/a" instead of dividing
/// by a zero/non-finite bound (which would print "infx"/"nanx").
inline std::string ratio_str(double measured, double bound) {
  if (bound == 0.0 || !std::isfinite(measured / bound)) return "n/a";
  return rv::io::format_fixed(measured / bound, 3) + "x";
}

}  // namespace rv::bench
