#include "support/io.hpp"

#include <charconv>
#include <istream>
#include <stdexcept>

#include "engine/serve.hpp"
#include "io/json.hpp"

namespace rv::io {

std::vector<CsvRow> parse_csv(const std::string& text) {
  std::vector<CsvRow> rows;
  CsvRow current;
  std::string field;
  bool in_quotes = false;
  bool row_has_content = false;

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        row_has_content = true;
        break;
      case ',':
        current.push_back(std::move(field));
        field.clear();
        row_has_content = true;
        break;
      case '\r':
        break;  // tolerate CRLF
      case '\n':
        if (row_has_content || !field.empty() || !current.empty()) {
          current.push_back(std::move(field));
          field.clear();
          rows.push_back(std::move(current));
          current.clear();
          row_has_content = false;
        }
        break;
      default:
        field.push_back(c);
        row_has_content = true;
        break;
    }
  }
  if (in_quotes) throw std::invalid_argument("parse_csv: unterminated quote");
  if (row_has_content || !field.empty() || !current.empty()) {
    current.push_back(std::move(field));
    rows.push_back(std::move(current));
  }
  return rows;
}

}  // namespace rv::io

namespace rv::engine::serve {

bool read_frame(std::istream& in, std::string* header, std::string* payload) {
  header->clear();
  payload->clear();
  if (!std::getline(in, *header)) {
    if (!header->empty()) {
      throw ServeError("parse", "torn reply header (EOF before LF)");
    }
    return false;
  }
  if (in.eof()) {
    // getline stopped at EOF, not at a delimiter — the header line is
    // missing its terminating LF.
    throw ServeError("parse", "torn reply header (EOF before LF)");
  }
  std::size_t bytes = 0;
  bool has_payload = false;
  try {
    io::JsonReader json(*header);
    json.begin_object();
    std::string key;
    while (json.next_member(&key)) {
      if (key != "bytes") {
        json.skip_value();
        continue;
      }
      const std::string_view raw = json.number().raw;
      const auto [end, ec] =
          std::from_chars(raw.data(), raw.data() + raw.size(), bytes);
      if (ec != std::errc{} || end != raw.data() + raw.size()) {
        throw ServeError("parse", "malformed 'bytes' field in reply header");
      }
      has_payload = true;
    }
    json.end();
  } catch (const io::JsonError& error) {
    throw ServeError("parse",
                     std::string("malformed reply header: ") + error.what());
  }
  if (!has_payload) return true;
  payload->resize(bytes);
  if (bytes > 0) in.read(payload->data(), static_cast<std::streamsize>(bytes));
  if (bytes > 0 && static_cast<std::size_t>(in.gcount()) != bytes) {
    throw ServeError("parse", "torn reply payload (EOF mid-payload)");
  }
  const int terminator = in.get();
  if (terminator != '\n') {
    throw ServeError("parse", "torn reply payload (missing trailing LF)");
  }
  return true;
}

}  // namespace rv::engine::serve
