#pragma once

/// \file io.hpp
/// Readers for what the engine writes, used by tests to check its
/// documents and reply frames.

#include <iosfwd>
#include <string>
#include <vector>

#include "io/csv.hpp"

namespace rv::io {

/// Parses CSV text into rows (supports quoted fields with embedded
/// commas/newlines/doubled quotes).
[[nodiscard]] std::vector<CsvRow> parse_csv(const std::string& text);

}  // namespace rv::io

namespace rv::engine::serve {

/// Reads one reply frame from `in`: the header line into `*header`
/// and, when the header object has a top-level `"bytes":N` member, the
/// N payload bytes (trailing LF consumed) into `*payload`.  Returns
/// false on clean EOF before any byte of a frame.
/// \throws ServeError("parse", ...) on a torn frame or a header that
/// is not strict JSON.
bool read_frame(std::istream& in, std::string* header, std::string* payload);

}  // namespace rv::engine::serve
