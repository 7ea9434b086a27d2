#include "io/json.hpp"

#include <charconv>
#include <system_error>
#include <utility>

namespace rv::io {

void append_json_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

std::string json_string(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_json_string(out, s);
  return out;
}

// --------------------------------------------------------------------
// JsonReader
// --------------------------------------------------------------------

JsonError::JsonError(const std::string& message, std::size_t offset)
    : std::runtime_error(message + " at offset " + std::to_string(offset)),
      offset_(offset) {}

void JsonReader::fail(const std::string& message) const {
  throw JsonError(message, pos_);
}

void JsonReader::skip_ws() {
  while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                 text_[pos_] == '\n' || text_[pos_] == '\r')) {
    ++pos_;
  }
}

char JsonReader::peek() {
  skip_ws();
  return pos_ < text_.size() ? text_[pos_] : '\0';
}

void JsonReader::expect(char c) {
  if (peek() != c) fail(std::string("expected '") + c + "'");
  ++pos_;
}

void JsonReader::begin_object() {
  expect('{');
  first_ = true;
}

void JsonReader::begin_array() {
  expect('[');
  first_ = true;
}

bool JsonReader::next(char close) {
  const char c = peek();
  const bool first = std::exchange(first_, false);
  if (c == close) {
    ++pos_;
    return false;
  }
  if (!first) {
    if (c != ',') fail(std::string("expected ',' or '") + close + "'");
    ++pos_;
  }
  return true;
}

bool JsonReader::next_member(std::string* key) {
  if (!next('}')) return false;
  if (key != nullptr) key->clear();
  scan_string(key);
  expect(':');
  return true;
}

bool JsonReader::next_element() { return next(']'); }

void JsonReader::scan_string(std::string* out) {
  expect('"');
  for (;;) {
    const std::size_t run = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\' &&
           static_cast<unsigned char>(text_[pos_]) >= 0x20) {
      ++pos_;
    }
    if (out != nullptr) out->append(text_, run, pos_ - run);
    if (pos_ == text_.size()) fail("unterminated string");
    if (text_[pos_] == '"') {
      ++pos_;
      return;
    }
    if (text_[pos_] != '\\') fail("raw control byte inside string");
    if (++pos_ == text_.size()) fail("unterminated string");
    char c = text_[pos_++];
    const std::size_t named = std::string_view("\"\\/bfnrt").find(c);
    if (named != std::string_view::npos) {
      c = "\"\\/\b\f\n\r\t"[named];
    } else if (c == 'u') {
      // from_chars takes no sign or 0x prefix, so four bytes must be
      // exactly four hex digits.
      unsigned value = 0;
      const char* hex = text_.data() + pos_;
      if (text_.size() - pos_ < 4 ||
          std::from_chars(hex, hex + 4, value, 16).ptr != hex + 4) {
        fail("bad \\u escape");
      }
      if (value >= 0x80) fail("\\u escapes above 0x7f are not supported");
      pos_ += 4;
      c = static_cast<char>(value);
    } else {
      --pos_;
      fail(std::string("unknown escape '\\") + c + "'");
    }
    if (out != nullptr) *out += c;
  }
}

std::string JsonReader::string() {
  std::string out;
  scan_string(&out);
  return out;
}

JsonNumber JsonReader::number() {
  skip_ws();
  const std::size_t start = pos_;
  const auto at = [&](char c) {
    return pos_ < text_.size() && text_[pos_] == c;
  };
  const auto digits = [&] {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ > from;
  };
  if (at('-')) ++pos_;
  if (at('0')) {
    ++pos_;
  } else if (!digits()) {
    fail("malformed number");
  }
  if (at('.')) {
    ++pos_;
    if (!digits()) fail("malformed number (bare '.')");
  }
  if (at('e') || at('E')) {
    ++pos_;
    if (at('+') || at('-')) ++pos_;
    if (!digits()) fail("malformed number (empty exponent)");
  }
  JsonNumber number{text_.substr(start, pos_ - start), 0.0};
  // The grammar is checked above, so range is the only failure left.
  const char* first = number.raw.data();
  if (std::from_chars(first, first + number.raw.size(), number.value).ec !=
      std::errc{}) {
    pos_ = start;
    fail("number out of range");
  }
  return number;
}

bool JsonReader::literal(std::string_view word) {
  skip_ws();
  if (text_.substr(pos_, word.size()) != word) return false;
  pos_ += word.size();
  return true;
}

bool JsonReader::boolean() {
  if (literal("true")) return true;
  if (!literal("false")) fail("expected true or false");
  return false;
}

void JsonReader::null() {
  if (!literal("null")) fail("expected null");
}

void JsonReader::skip_value() { skip_value(0); }

void JsonReader::skip_value(int depth) {
  const char c = peek();
  if ((c == '{' || c == '[') && depth == kMaxSkipDepth) {
    fail("nesting deeper than " + std::to_string(kMaxSkipDepth));
  }
  if (c == '{') {
    begin_object();
    while (next_member(nullptr)) skip_value(depth + 1);
  } else if (c == '[') {
    begin_array();
    while (next_element()) skip_value(depth + 1);
  } else if (c == '"') {
    scan_string(nullptr);
  } else if (c == 't' || c == 'f') {
    (void)boolean();
  } else if (c == 'n') {
    null();
  } else {
    (void)number();
  }
}

void JsonReader::end() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing bytes after the JSON value");
}

}  // namespace rv::io
