#include "io/csv.hpp"

#include <stdexcept>

namespace rv::io {

void append_csv_field(std::string& out, std::string_view field) {
  if (field.find_first_of(",\"\n\r") == std::string_view::npos) {
    out += field;
    return;
  }
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

void append_csv_row(std::string& out, const CsvRow& fields) {
  bool first = true;
  for (const std::string& f : fields) {
    if (!first) out.push_back(',');
    append_csv_field(out, f);
    first = false;
  }
  out.push_back('\n');
}

void append_number(std::string& out, double v, std::chars_format fmt,
                   int precision) {
  if (precision < 0) precision = 6;
  // Longest rendering: "%.*f" of -DBL_MAX — sign, 309 integer digits,
  // point, `precision` fraction digits.  "%.*e" and "%.*g" are shorter.
  const std::size_t capacity = static_cast<std::size_t>(precision) + 312;
  char stack[512];
  std::string heap;
  char* first = stack;
  if (capacity > sizeof stack) {
    heap.resize(capacity);
    first = heap.data();
  }
  const std::to_chars_result r =
      std::to_chars(first, first + capacity, v, fmt, precision);
  if (r.ec != std::errc{}) {
    throw std::logic_error("append_number: buffer too small");
  }
  out.append(first, r.ptr);
}

std::string format_double(double v, int precision) {
  std::string out;
  append_number(out, v, std::chars_format::general, precision);
  return out;
}

}  // namespace rv::io
