#pragma once

/// \file json.hpp
/// The one JSON string writer of the project: `ResultSet::to_json` and
/// the `rv_serve` reply headers both escape through it, so a label or
/// request id renders to the same bytes on every surface.

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

}  // namespace rv::io
