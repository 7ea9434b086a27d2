#pragma once

/// \file json.hpp
/// The one JSON writer and the one JSON reader of the project.
/// `ResultSet::to_json` and the `rv_serve` reply headers escape through
/// `append_json_string`, so a label or request id renders to the same
/// bytes on every surface.  `rv_serve` request and reply headers,
/// `bench_diff` and the emitter tests all read through `JsonReader`, so
/// they accept one grammar.

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

namespace rv::io {

/// Appends `s` as a JSON string token, quotes included, escaped per
/// RFC 8259: quote, backslash, and every control character below 0x20
/// (named escapes where JSON has them, \u00XX otherwise).  Raw control
/// characters in the output would make the document unparseable.
void append_json_string(std::string& out, std::string_view s);

/// `s` as a JSON string token (see `append_json_string`).
[[nodiscard]] std::string json_string(std::string_view s);

/// Every failure of `JsonReader`, with the byte offset where it was found.
class JsonError : public std::runtime_error {
 public:
  JsonError(const std::string& message, std::size_t offset);
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

/// A number token: its raw text, so a caller can demand an integer,
/// and its `std::from_chars` value.
struct JsonNumber {
  std::string_view raw;
  double value = 0.0;
};

/// Strict RFC 8259 pull reader over one document: the caller walks the
/// structure it expects and anything else throws `JsonError`.  Space,
/// tab, LF and CR are whitespace.  Strings reject raw control bytes and
/// unknown escapes; `\u` is accepted up to 0x7f only (no producer here
/// emits more).  The reader keeps no stack: the caller's walk matches
/// the brackets, and `skip_value` bounds its own nesting depth.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  void begin_object();
  /// Consumes the separating `,`, the key (into `*key` unless null) and
  /// the `:` and returns true; or consumes `}` and returns false.
  [[nodiscard]] bool next_member(std::string* key);
  void begin_array();
  /// Consumes the separating `,` and returns true; or consumes `]` and
  /// returns false.
  [[nodiscard]] bool next_element();

  [[nodiscard]] std::string string();
  /// \throws JsonError "number out of range" when a double cannot hold it.
  [[nodiscard]] JsonNumber number();
  [[nodiscard]] bool boolean();
  void null();
  /// Consumes one value of any type nested at most `kMaxSkipDepth` deep.
  void skip_value();
  /// Only whitespace may remain.
  void end();

  /// The first byte of the next token, '\0' at the end of the input.
  [[nodiscard]] char peek();

  static constexpr int kMaxSkipDepth = 256;

 private:
  [[noreturn]] void fail(const std::string& message) const;
  void skip_ws();
  void expect(char c);
  bool next(char close);
  bool literal(std::string_view word);  // consumes `word` if it is next
  void scan_string(std::string* out);  // decodes into `*out` unless null
  void skip_value(int depth);

  std::string_view text_;
  std::size_t pos_ = 0;
  bool first_ = false;  ///< just past `{` or `[`: no `,` is due
};

}  // namespace rv::io
