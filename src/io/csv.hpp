#pragma once

/// \file csv.hpp
/// Minimal RFC-4180-style CSV writing for experiment outputs.
/// Benches dump their sweeps as CSV next to the printed tables so that
/// plots can be regenerated offline.
///
/// Number contract: every double the io layer renders goes through
/// `append_number`, i.e. `std::to_chars` at an explicit precision,
/// which is defined as printf's "%.*g" / "%.*f" / "%.*e" in the C
/// locale.  No iostream (and hence no stream locale) is involved.

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

namespace rv::io {

/// One CSV record.
using CsvRow = std::vector<std::string>;

/// Appends `field` to `out`, escaped per RFC 4180: a field containing
/// a comma, quote, CR or LF is quoted, with embedded quotes doubled;
/// any other field is appended as it is.
void append_csv_field(std::string& out, std::string_view field);

/// Appends one CSV record (escaped fields, comma-separated, '\n').
void append_csv_row(std::string& out, const CsvRow& fields);

/// Appends `v` as `std::to_chars(v, fmt, precision)` writes it — the
/// bytes of printf("%.*g" / "%.*f" / "%.*e", precision, v) in the C
/// locale for general / fixed / scientific.  A negative precision
/// means 6, as in printf.  Any precision fits: the buffer is sized
/// from it.
void append_number(std::string& out, double v, std::chars_format fmt,
                   int precision);

/// Formats a double with given significant digits: printf "%.*g".
[[nodiscard]] std::string format_double(double v, int precision = 12);

}  // namespace rv::io
