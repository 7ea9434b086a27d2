// rv_lint — the project's determinism / invariant linter.
//
// The engine's contract is *certified* output: byte-identical emission
// at any thread count, bit-exact cache round-trips, sharded runs that
// reproduce single-process bytes.  The compiler cannot check most of
// what that contract depends on, so this tool enforces the
// project-specific rules statically, the same way bench_diff gates the
// perf trajectory: dependency-free, walking `src/ tools/ tests/`, and
// wired into CTest + CI so a violation fails the build.
//
// Rules (slug — what it rejects):
//   unordered-iteration  iterating a std::unordered_{map,set} in the
//                        determinism-critical paths (src/engine, src/io,
//                        src/geom, tools): iteration order is
//                        implementation-defined and must never feed
//                        emission, cache_key, or wire bytes.  Sort
//                        first (see ScenarioCache::snapshot) and
//                        document the reduction with an allow comment.
//   nondeterminism       std::rand / srand / random_device / time( /
//                        system_clock / steady_clock outside mathx/rng:
//                        all randomness must flow through the seeded
//                        deterministic engine rng.
//   float-type           the `float` type inside src/engine and
//                        src/geom: the certified sweep and its metric
//                        kernel are double-only; a narrowing in those
//                        paths silently changes certified bytes.
//   stdout-write         std::cout / printf / puts / putchar / fwrite /
//                        fputs / `stdout` / STDOUT_FILENO in library
//                        code under src/: emitters format through
//                        io::/ResultSet into caller-owned streams;
//                        stray stdout corrupts machine-read documents
//                        (rv_batch writes its result document there,
//                        and rv_serve's framed reply writer is the
//                        only sanctioned protocol-output path).
//   catch-swallow        `catch (...)` whose body neither rethrows nor
//                        captures via std::current_exception: a
//                        swallowed exception turns a wrong answer into
//                        a silent one.
//   pragma-once          every header must open with #pragma once
//                        before any other code or directive.
//   failpoint-site       RV_FAILPOINT* macro invocations in src/ and
//                        tools/ whose literal site name is malformed
//                        (must match [a-z0-9_.]+, the RV_FAILPOINTS
//                        spec grammar) or duplicates another site: a
//                        spec must target exactly one place.
//   uninit-field         a scalar field (arithmetic, pointer or enum
//                        type) without a default initializer in a
//                        struct under src/ whose name ends in Outcome,
//                        Result or Cell: a default-constructed outcome
//                        or cell must not carry indeterminate bytes
//                        into emission or the cache wire format.
//
// Escape hatch: a `// rv-lint: allow(<rule>)` comment on the finding's
// line or the line directly above suppresses that rule there.  Use it
// to bless the (rare) sites that are deterministic despite the
// pattern, and say why next to it.
//
//   rv_lint [--root <dir>] [--verbose]    lint the tree, exit 1 on findings
//   rv_lint --self-test                   inject one violation per rule
//                                         into a scratch tree and verify
//                                         every rule (and the allow
//                                         escape) fires
//
// Exit codes: 0 clean, 1 findings, 2 usage/IO error.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------------------

std::optional<std::string> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// FNV-1a 64-bit (same mix as the cache-store checksum; no dependency).
std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// ---------------------------------------------------------------------------
// Source model: raw text, a comment/string-stripped "code view" with
// identical offsets/line structure, and the per-line allow() sets.
// ---------------------------------------------------------------------------

struct SourceFile {
  fs::path path;        ///< as walked (absolute or root-relative)
  std::string rel;      ///< path relative to the lint root, '/'-separated
  std::string raw;      ///< file bytes
  std::string code;     ///< raw with comments + literal contents blanked
  std::vector<std::set<std::string>> allows;  ///< per line (1-based index 0 unused)
};

/// Blanks comments, string/char literal contents, and raw strings with
/// spaces (newlines kept), so rule matching cannot fire inside text
/// that the compiler never executes.
std::string strip_code(const std::string& in) {
  std::string out = in;
  std::size_t i = 0;
  const std::size_t n = in.size();
  auto blank = [&](std::size_t from, std::size_t to) {
    for (std::size_t k = from; k < to && k < n; ++k) {
      if (out[k] != '\n') out[k] = ' ';
    }
  };
  while (i < n) {
    const char c = in[i];
    if (c == '/' && i + 1 < n && in[i + 1] == '/') {
      std::size_t end = in.find('\n', i);
      if (end == std::string::npos) end = n;
      blank(i, end);
      i = end;
    } else if (c == '/' && i + 1 < n && in[i + 1] == '*') {
      std::size_t end = in.find("*/", i + 2);
      end = end == std::string::npos ? n : end + 2;
      blank(i, end);
      i = end;
    } else if (c == 'R' && i + 1 < n && in[i + 1] == '"' &&
               (i == 0 || !ident_char(in[i - 1]))) {
      // Raw string: R"delim( ... )delim"
      const std::size_t open = in.find('(', i + 2);
      if (open == std::string::npos) break;
      const std::string delim = in.substr(i + 2, open - i - 2);
      const std::string closer = ")" + delim + "\"";
      std::size_t end = in.find(closer, open + 1);
      end = end == std::string::npos ? n : end + closer.size();
      blank(i + 2, end);
      i = end;
    } else if (c == '"' || c == '\'') {
      std::size_t j = i + 1;
      while (j < n && in[j] != c) {
        j += in[j] == '\\' ? 2 : 1;
      }
      const std::size_t end = j < n ? j + 1 : n;
      blank(i + 1, end - 1);
      i = end;
    } else {
      ++i;
    }
  }
  return out;
}

SourceFile load_source(const fs::path& path, const std::string& rel,
                       std::string raw) {
  SourceFile f;
  f.path = path;
  f.rel = rel;
  f.raw = std::move(raw);
  f.code = strip_code(f.raw);
  // Per-line allow sets come from the *raw* text (the escapes live in
  // comments, which the code view blanks).
  f.allows.emplace_back();  // line 0 placeholder
  std::size_t pos = 0;
  while (pos <= f.raw.size()) {
    std::size_t end = f.raw.find('\n', pos);
    if (end == std::string::npos) end = f.raw.size();
    const std::string_view line(f.raw.data() + pos, end - pos);
    std::set<std::string> allowed;
    std::size_t at = 0;
    while ((at = line.find("rv-lint: allow(", at)) != std::string_view::npos) {
      const std::size_t open = at + std::string_view("rv-lint: allow(").size();
      const std::size_t close = line.find(')', open);
      if (close == std::string_view::npos) break;
      allowed.insert(std::string(line.substr(open, close - open)));
      at = close;
    }
    f.allows.push_back(std::move(allowed));
    if (end == f.raw.size()) break;
    pos = end + 1;
  }
  return f;
}

std::size_t line_of(const std::string& text, std::size_t offset) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(), text.begin() + static_cast<long>(
                                              std::min(offset, text.size())),
                            '\n'));
}

struct Finding {
  std::string rule;
  std::string rel;
  std::size_t line = 0;
  std::string message;
};

class Linter {
 public:
  explicit Linter(bool verbose) : verbose_(verbose) {}

  void report(const SourceFile& f, std::size_t offset, const char* rule,
              std::string message) {
    const std::size_t line = line_of(f.raw, offset);
    if (allowed(f, line, rule)) {
      if (verbose_) {
        std::fprintf(stderr, "rv_lint: %s:%zu: %s allowed by escape\n",
                     f.rel.c_str(), line, rule);
      }
      return;
    }
    findings.push_back({rule, f.rel, line, std::move(message)});
  }

  static bool allowed(const SourceFile& f, std::size_t line,
                      const char* rule) {
    const auto has = [&](std::size_t l) {
      return l < f.allows.size() && f.allows[l].count(rule) != 0;
    };
    return has(line) || (line > 0 && has(line - 1));
  }

  std::vector<Finding> findings;

 private:
  bool verbose_;
};

// ---------------------------------------------------------------------------
// Token search helpers on the code view
// ---------------------------------------------------------------------------

/// Offsets of `token` in `code` as a standalone identifier (not inside
/// a longer identifier on either side).
std::vector<std::size_t> find_ident(const std::string& code,
                                    std::string_view token) {
  std::vector<std::size_t> hits;
  std::size_t at = 0;
  while ((at = code.find(token, at)) != std::string::npos) {
    const bool left_ok = at == 0 || !ident_char(code[at - 1]);
    const std::size_t end = at + token.size();
    const bool right_ok = end >= code.size() || !ident_char(code[end]);
    if (left_ok && right_ok) hits.push_back(at);
    at = end;
  }
  return hits;
}

/// Offset of the character matching the opener at `open` ('(' / '{' /
/// '<'), or npos.  Works on the code view, so literals cannot
/// unbalance it.
std::size_t match_at(const std::string& code, std::size_t open, char oc,
                     char cc) {
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == oc) ++depth;
    if (code[i] == cc && --depth == 0) return i;
  }
  return std::string::npos;
}

bool path_under(const std::string& rel, std::string_view prefix) {
  return rel.rfind(prefix, 0) == 0;
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

void rule_pragma_once(Linter& lint, const SourceFile& f) {
  if (f.path.extension() != ".hpp") return;
  // First non-blank character of the code view (comments are blanked)
  // must start `#pragma once`.
  std::size_t i = 0;
  while (i < f.code.size() &&
         std::isspace(static_cast<unsigned char>(f.code[i]))) {
    ++i;
  }
  if (f.code.compare(i, 12, "#pragma once") != 0) {
    lint.report(f, i, "pragma-once",
                "header must open with #pragma once (before any other "
                "directive or code)");
  }
}

void rule_nondeterminism(Linter& lint, const SourceFile& f) {
  // mathx/rng is the one sanctioned randomness source.
  if (f.rel.find("mathx/rng") != std::string::npos) return;
  const char* tokens[] = {"srand",        "random_device", "system_clock",
                          "steady_clock", "rand",          "time"};
  for (const char* token : tokens) {
    for (const std::size_t at : find_ident(f.code, token)) {
      // rand/time only count as the libc calls when invoked: `rand(`,
      // `time(` — otherwise common member names would fire.
      if ((std::string_view(token) == "rand" ||
           std::string_view(token) == "time")) {
        std::size_t j = at + std::string_view(token).size();
        while (j < f.code.size() && f.code[j] == ' ') ++j;
        if (j >= f.code.size() || f.code[j] != '(') continue;
        // Member access (`x.time(...)`) is not the libc call either.
        if (at >= 1 && (f.code[at - 1] == '.' )) continue;
      }
      lint.report(f, at, "nondeterminism",
                  std::string("'") + token +
                      "' outside mathx/rng — all randomness/clocks must "
                      "flow through the seeded deterministic rng");
    }
  }
}

void rule_float_type(Linter& lint, const SourceFile& f) {
  if (!path_under(f.rel, "src/engine/") && !path_under(f.rel, "src/geom/")) {
    return;
  }
  for (const std::size_t at : find_ident(f.code, "float")) {
    lint.report(f, at, "float-type",
                "'float' in certified numeric code — the sweep and "
                "kernels are double-only (a narrowing here changes "
                "certified bytes)");
  }
}

void rule_stdout_write(Linter& lint, const SourceFile& f) {
  if (!path_under(f.rel, "src/")) return;
  const char* tokens[] = {"printf", "puts", "putchar", "fwrite", "fputs"};
  for (const std::size_t at : find_ident(f.code, "cout")) {
    lint.report(f, at, "stdout-write",
                "stdout write in library code — emit through io:: / "
                "ResultSet into a caller-owned stream");
  }
  // The raw-fd/FILE* escapes matter since the serve layer landed: its
  // framed reply writer is the ONLY sanctioned process-output path in
  // src/ (serve_stream takes a caller-owned ostream), so a stray
  // `stdout`/`STDOUT_FILENO` would bypass both the framing and the
  // serve.reply failpoint.
  for (const char* ident : {"stdout", "STDOUT_FILENO"}) {
    for (const std::size_t at : find_ident(f.code, ident)) {
      lint.report(f, at, "stdout-write",
                  std::string("'") + ident +
                      "' in library code — reply through the framed "
                      "writer / a caller-owned stream");
    }
  }
  for (const char* token : tokens) {
    for (const std::size_t at : find_ident(f.code, token)) {
      std::size_t j = at + std::string_view(token).size();
      while (j < f.code.size() && f.code[j] == ' ') ++j;
      if (j >= f.code.size() || f.code[j] != '(') continue;
      lint.report(f, at, "stdout-write",
                  std::string("'") + token +
                      "' in library code — emit through io:: / ResultSet "
                      "into a caller-owned stream");
    }
  }
}

void rule_catch_swallow(Linter& lint, const SourceFile& f) {
  for (const std::size_t at : find_ident(f.code, "catch")) {
    const std::size_t open = f.code.find('(', at);
    if (open == std::string::npos) continue;
    const std::size_t close = match_at(f.code, open, '(', ')');
    if (close == std::string::npos) continue;
    std::string clause = f.code.substr(open + 1, close - open - 1);
    clause.erase(std::remove_if(clause.begin(), clause.end(),
                                [](char c) {
                                  return std::isspace(
                                      static_cast<unsigned char>(c));
                                }),
                 clause.end());
    if (clause != "...") continue;
    const std::size_t body_open = f.code.find('{', close);
    if (body_open == std::string::npos) continue;
    const std::size_t body_close = match_at(f.code, body_open, '{', '}');
    if (body_close == std::string::npos) continue;
    const std::string body =
        f.code.substr(body_open, body_close - body_open + 1);
    if (body.find("throw") != std::string::npos ||
        body.find("current_exception") != std::string::npos ||
        body.find("rethrow") != std::string::npos) {
      continue;
    }
    lint.report(f, at, "catch-swallow",
                "catch (...) that neither rethrows nor captures "
                "std::current_exception — a swallowed exception turns a "
                "wrong answer into a silent one");
  }
}

/// Names declared with a std::unordered_{map,set} type in `code`
/// (variables, members, parameters).
void collect_unordered_names(const std::string& code,
                             std::set<std::string>* names) {
  for (const char* container : {"unordered_map", "unordered_set"}) {
    for (const std::size_t at : find_ident(code, container)) {
      // A declaration's template argument list opens right after the
      // container name ( `#include <unordered_map>` does not).
      std::size_t angle = at + std::string_view(container).size();
      while (angle < code.size() && code[angle] == ' ') ++angle;
      if (angle >= code.size() || code[angle] != '<') continue;
      const std::size_t angle_close = match_at(code, angle, '<', '>');
      if (angle_close == std::string::npos) continue;
      std::size_t j = angle_close + 1;
      while (j < code.size() &&
             (std::isspace(static_cast<unsigned char>(code[j])) ||
              code[j] == '&' || code[j] == '*')) {
        ++j;
      }
      std::size_t end = j;
      while (end < code.size() && ident_char(code[end])) ++end;
      if (end > j) names->insert(code.substr(j, end - j));
    }
  }
}

void rule_unordered_iteration(Linter& lint, const SourceFile& f) {
  if (!path_under(f.rel, "src/engine/") && !path_under(f.rel, "src/io/") &&
      !path_under(f.rel, "src/geom/") && !path_under(f.rel, "tools/")) {
    return;
  }
  // Collect names declared with an unordered container type — in this
  // file AND in its sibling header (members like ScenarioCache::map_
  // are declared in the .hpp and iterated in the .cpp) — then flag
  // range-for iteration / explicit .begin() walks over them.
  std::set<std::string> names;
  collect_unordered_names(f.code, &names);
  if (f.path.extension() == ".cpp") {
    fs::path header = f.path;
    header.replace_extension(".hpp");
    if (const auto raw = read_file(header)) {
      collect_unordered_names(strip_code(*raw), &names);
    }
  }
  for (const std::string& name : names) {
    for (const std::size_t at : find_ident(f.code, name)) {
      // Range-for: `: name)` — scan left past whitespace for ':' that
      // is not part of '::'.
      std::size_t j = at;
      while (j > 0 &&
             std::isspace(static_cast<unsigned char>(f.code[j - 1]))) {
        --j;
      }
      const bool range_for =
          j > 0 && f.code[j - 1] == ':' && (j < 2 || f.code[j - 2] != ':');
      const std::size_t after = at + name.size();
      const bool begin_walk = f.code.compare(after, 7, ".begin(") == 0;
      if (!range_for && !begin_walk) continue;
      lint.report(
          f, at, "unordered-iteration",
          "iterating '" + name +
              "' (unordered container) in a determinism-critical path — "
              "iteration order is implementation-defined; sort first "
              "(cf. ScenarioCache::snapshot) or document an "
              "order-independent reduction with an allow escape");
    }
  }
}

// ---------------------------------------------------------------------------
// Failpoint sites (cross-file uniqueness)
// ---------------------------------------------------------------------------

/// name -> (rel, line) of its first occurrence, accumulated across the
/// whole tree walk (duplicates are reported at later occurrences).
using FailpointSites = std::map<std::string, std::pair<std::string,
                                                       std::size_t>>;

bool valid_failpoint_site_name(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

void rule_failpoint_site(Linter& lint, const SourceFile& f,
                         FailpointSites* sites) {
  // Production sites live in src/ and tools/ — that is the namespace
  // RV_FAILPOINTS specs address.  Tests arm ad-hoc names freely.
  if (!path_under(f.rel, "src/") && !path_under(f.rel, "tools/")) return;
  for (const char* macro :
       {"RV_FAILPOINT", "RV_FAILPOINT_AT", "RV_FAILPOINT_EVAL"}) {
    for (const std::size_t at : find_ident(f.code, macro)) {
      // Only literal-name invocations: `RV_FAILPOINT("a.b")`.  The
      // `#define RV_FAILPOINT(site)` lines have an identifier there
      // instead and fall through.
      std::size_t j = at + std::string_view(macro).size();
      while (j < f.code.size() &&
             std::isspace(static_cast<unsigned char>(f.code[j]))) {
        ++j;
      }
      if (j >= f.code.size() || f.code[j] != '(') continue;
      ++j;
      while (j < f.code.size() &&
             std::isspace(static_cast<unsigned char>(f.code[j]))) {
        ++j;
      }
      if (j >= f.code.size() || f.code[j] != '"') continue;
      const std::size_t close = f.code.find('"', j + 1);
      if (close == std::string::npos) continue;
      // The code view blanks literal contents at identical offsets, so
      // the name bytes come from the raw text.
      const std::string name = f.raw.substr(j + 1, close - j - 1);
      if (!valid_failpoint_site_name(name)) {
        lint.report(f, at, "failpoint-site",
                    "failpoint site '" + name +
                        "' must match [a-z0-9_.]+ (the RV_FAILPOINTS "
                        "spec grammar cannot address anything else)");
        continue;
      }
      const auto it = sites->find(name);
      if (it != sites->end()) {
        lint.report(f, at, "failpoint-site",
                    "duplicate failpoint site '" + name +
                        "' (also declared at " + it->second.first + ":" +
                        std::to_string(it->second.second) +
                        ") — site names must be unique so a spec targets "
                        "exactly one place");
      } else {
        (*sites)[name] = {f.rel, line_of(f.raw, at)};
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Default initializers on outcome / result / cell fields
// ---------------------------------------------------------------------------

/// Every identifier of `text` with its offset, in order.
std::vector<std::pair<std::size_t, std::string>> idents(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::string>> words;
  for (std::size_t i = 0; i < text.size();) {
    if (!ident_char(text[i])) {
      ++i;
      continue;
    }
    const std::size_t begin = i;
    while (i < text.size() && ident_char(text[i])) ++i;
    words.emplace_back(begin, text.substr(begin, i - begin));
  }
  return words;
}

/// Names declared as enumerations (`enum X`, `enum class X`) in `code`.
void collect_enum_names(const std::string& code,
                        std::set<std::string>* names) {
  const auto words = idents(code);
  for (std::size_t k = 0; k + 1 < words.size(); ++k) {
    if (words[k].second != "enum") continue;
    const std::string& next = words[k + 1].second;
    const std::size_t name = next == "class" || next == "struct" ? k + 2 : k + 1;
    if (name < words.size()) names->insert(words[name].second);
  }
}

/// Checks one member declaration `decl` (no trailing ';') of struct
/// `owner`, found at `offset` in the code view: a field of arithmetic,
/// pointer or enumeration type needs a default initializer.
void check_member(Linter& lint, const SourceFile& f,
                  const std::set<std::string>& enums, const std::string& owner,
                  std::string decl, std::size_t offset) {
  // Member functions and initialized fields pass; so do class types.
  if (decl.find_first_of("(={<") != std::string::npos) return;
  decl = decl.substr(0, std::min(decl.find(','), decl.find('[')));
  const auto words = idents(decl);
  static const std::set<std::string> not_fields = {
      "struct", "class",  "enum",     "union",  "using",
      "typedef", "friend", "static", "template"};
  static const std::set<std::string> builtins = {
      "bool",     "char",     "short",    "int",       "long",
      "unsigned", "float",    "double",   "size_t",    "ptrdiff_t",
      "int8_t",   "int16_t",  "int32_t",  "int64_t",   "uint8_t",
      "uint16_t", "uint32_t", "uint64_t", "uintptr_t"};
  if (words.size() < 2) return;
  for (const auto& word : words) {
    if (not_fields.count(word.second) != 0) return;
  }
  const std::string& type = words[words.size() - 2].second;
  if (decl.find('*') == std::string::npos && builtins.count(type) == 0 &&
      enums.count(type) == 0) {
    return;
  }
  lint.report(f, offset + words.back().first, "uninit-field",
              "scalar field '" + words.back().second + "' of " + owner +
                  " has no default initializer — a default-constructed "
                  "value would carry indeterminate bytes into output");
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void rule_uninit_field(Linter& lint, const SourceFile& f,
                       const std::set<std::string>& enums) {
  if (!path_under(f.rel, "src/")) return;
  const std::string& code = f.code;
  const auto words = idents(code);
  for (std::size_t k = 0; k + 1 < words.size(); ++k) {
    const auto& [owner_at, owner] = words[k + 1];
    if (words[k].second != "struct" ||
        !(ends_with(owner, "Outcome") || ends_with(owner, "Result") ||
          ends_with(owner, "Cell"))) {
      continue;
    }
    const std::size_t open = code.find_first_of("{;", owner_at);
    if (open == std::string::npos || code[open] == ';') continue;
    const std::size_t close = match_at(code, open, '{', '}');
    // Split the body into member declarations at top-level ';'.  A
    // brace block belongs to its declaration, except a function body,
    // which ends the member without a ';'.
    std::size_t start = open + 1;
    for (std::size_t i = start; i < close; ++i) {
      if (code[i] == '(') {
        i = match_at(code, i, '(', ')');
      } else if (code[i] == '{') {
        const std::size_t end = match_at(code, i, '{', '}');
        if (code.find('(', start) < i) start = end + 1;
        i = end;
      } else if (code[i] == ';') {
        check_member(lint, f, enums, owner, code.substr(start, i - start),
                     start);
        start = i + 1;
      }
      if (i == std::string::npos) break;
    }
  }
}

// ---------------------------------------------------------------------------
// Tree walk + driver
// ---------------------------------------------------------------------------

std::vector<fs::path> collect_files(const fs::path& root) {
  std::vector<fs::path> files;
  for (const char* top : {"src", "tools", "tests"}) {
    const fs::path dir = root / top;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) continue;
    for (fs::recursive_directory_iterator it(dir, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (!it->is_regular_file()) continue;
      const fs::path& p = it->path();
      if (p.extension() == ".cpp" || p.extension() == ".hpp") {
        files.push_back(p);
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Runs every rule over every file under `root`.  False when a file
/// cannot be read.
bool lint_files(Linter& lint, const fs::path& root) {
  std::vector<SourceFile> files;
  for (const fs::path& path : collect_files(root)) {
    const auto raw = read_file(path);
    if (!raw) {
      std::fprintf(stderr, "rv_lint: cannot read %s\n", path.c_str());
      return false;
    }
    files.push_back(
        load_source(path, fs::relative(path, root).generic_string(), *raw));
  }
  std::set<std::string> enums;
  for (const SourceFile& f : files) collect_enum_names(f.code, &enums);
  FailpointSites sites;
  for (const SourceFile& f : files) {
    rule_pragma_once(lint, f);
    rule_nondeterminism(lint, f);
    rule_float_type(lint, f);
    rule_stdout_write(lint, f);
    rule_catch_swallow(lint, f);
    rule_unordered_iteration(lint, f);
    rule_failpoint_site(lint, f, &sites);
    rule_uninit_field(lint, f, enums);
  }
  return true;
}

int lint_tree(const fs::path& root, bool verbose) {
  Linter lint(verbose);
  if (!lint_files(lint, root)) return 2;
  for (const Finding& finding : lint.findings) {
    std::fprintf(stderr, "rv_lint: %s:%zu: [%s] %s\n", finding.rel.c_str(),
                 finding.line, finding.rule.c_str(),
                 finding.message.c_str());
  }
  if (!lint.findings.empty()) {
    std::fprintf(stderr,
                 "rv_lint: %zu finding(s).  Fix them, or bless a "
                 "deliberately deterministic site with "
                 "`// rv-lint: allow(<rule>)` and a why\n",
                 lint.findings.size());
    return 1;
  }
  if (verbose) std::printf("rv_lint: clean\n");
  return 0;
}

// ---------------------------------------------------------------------------
// Self-test: every rule must demonstrably fire (and the allow escape
// must demonstrably suppress) on an injected scratch tree.
// ---------------------------------------------------------------------------

struct SelfTree {
  fs::path root;
  explicit SelfTree(const char* tag) {
    root = fs::temp_directory_path() /
           (std::string("rv_lint_selftest_") + tag + "_" +
            std::to_string(static_cast<unsigned>(
                fnv1a64(fs::current_path().string()) & 0xffff)));
    fs::remove_all(root);
  }
  ~SelfTree() {
    std::error_code ec;
    fs::remove_all(root, ec);
  }
  void put(const std::string& rel, const std::string& text) const {
    const fs::path path = root / rel;
    fs::create_directories(path.parent_path());
    if (!write_file(path, text)) {
      std::fprintf(stderr, "self-test: cannot write %s\n", path.c_str());
      std::exit(2);
    }
  }
};

/// Lints `root` and returns the findings (no printing).
std::vector<Finding> scan(const fs::path& root) {
  Linter lint(false);
  (void)lint_files(lint, root);
  return lint.findings;
}

int expect(const std::vector<Finding>& findings, const char* rule,
           std::size_t count, const char* what) {
  const std::size_t n = static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
  if (n != count) {
    std::fprintf(stderr,
                 "self-test FAIL: %s — expected %zu finding(s) of [%s], "
                 "got %zu\n",
                 what, count, rule, n);
    for (const Finding& f : findings) {
      std::fprintf(stderr, "  got: %s:%zu [%s] %s\n", f.rel.c_str(), f.line,
                   f.rule.c_str(), f.message.c_str());
    }
    return 1;
  }
  std::printf("-- self-test: %-52s OK\n", what);
  return 0;
}

int self_test() {
  int failures = 0;

  {  // --- textual rules: one injected violation each, then the escape
    SelfTree tree("rules");
    tree.put("src/engine/bad_float.hpp", "#pragma once\nfloat half(int);\n");
    tree.put("src/sim/bad_rand.cpp",
             "#include <cstdlib>\nint roll() { return std::rand(); }\n");
    tree.put("src/mathx/rng.cpp",
             "#include <random>\nint seed_entropy() { "
             "return (int)std::random_device{}(); }\n");
    tree.put("src/io/bad_print.cpp",
             "#include <iostream>\nvoid shout() { std::cout << 1; }\n");
    tree.put("src/engine/bad_catch.cpp",
             "void f();\nvoid g() { try { f(); } catch (...) { } }\n");
    tree.put("src/geom/bad_guard.hpp", "#include <vector>\n");
    tree.put("src/engine/bad_iter.cpp",
             "#include <unordered_map>\n"
             "int sum(const std::unordered_map<int, int>& histogram) {\n"
             "  int total = 0;\n"
             "  for (const auto& [k, v] : histogram) total += v;\n"
             "  return total;\n"
             "}\n");
    tree.put("tests/ok_comment.cpp",
             "// std::rand() and float and std::cout in a comment\n"
             "const char* s = \"time( puts( catch\";\n");
    const auto findings = scan(tree.root);
    failures += expect(findings, "float-type", 1, "float in src/engine fires");
    failures += expect(findings, "nondeterminism", 1,
                       "std::rand outside mathx/rng fires (rng exempt)");
    failures += expect(findings, "stdout-write", 1, "std::cout in src/ fires");
    failures += expect(findings, "catch-swallow", 1,
                       "swallowing catch (...) fires");
    failures += expect(findings, "pragma-once", 1,
                       "header without #pragma once fires");
    failures += expect(findings, "unordered-iteration", 1,
                       "unordered range-for in src/engine fires");
    // Exactly the six injected violations — nothing fired from the
    // rng exemption file or from tokens inside comments/strings.
    if (findings.size() != 6) {
      std::fprintf(stderr,
                   "self-test FAIL: expected exactly 6 findings, got %zu\n",
                   findings.size());
      for (const Finding& f : findings) {
        std::fprintf(stderr, "  got: %s:%zu [%s]\n", f.rel.c_str(), f.line,
                     f.rule.c_str());
      }
      ++failures;
    } else {
      std::printf("-- self-test: %-52s OK\n",
                  "comments/strings/exempt paths fire nothing");
    }
  }

  {  // --- failpoint-site: duplicate and bad-charset sites fire
    SelfTree tree("failpoint");
    tree.put("src/engine/a.cpp",
             "void fa() { RV_FAILPOINT(\"site.one\"); }\n");
    tree.put("src/engine/b.cpp",
             "void fb(int i) { RV_FAILPOINT_AT(\"site.one\", i); }\n");
    tree.put("src/engine/c.cpp",
             "void fc() { (void)RV_FAILPOINT_EVAL(\"Bad.Site\"); }\n");
    // #define lines and non-literal names are not declarations; test
    // code may reuse production names freely.
    tree.put("src/engine/d.hpp",
             "#pragma once\n#define RV_FAILPOINT(site) do { } while (0)\n"
             "void fd(const char* s);\n");
    tree.put("tests/t.cpp", "void ft() { RV_FAILPOINT(\"site.one\"); }\n");
    const auto findings = scan(tree.root);
    failures += expect(findings, "failpoint-site", 2,
                       "duplicate + bad-charset failpoint sites fire");

    SelfTree blessed("failpoint_allow");
    blessed.put("src/engine/a.cpp",
                "void fa() { RV_FAILPOINT(\"site.one\"); }\n");
    blessed.put("src/engine/b.cpp",
                "// rv-lint: allow(failpoint-site) — deliberately shared\n"
                "void fb() { RV_FAILPOINT(\"site.one\"); }\n");
    failures += expect(scan(blessed.root), "failpoint-site", 0,
                       "allow() escape blesses a shared failpoint site");

    // The serve layer's sites (serve.accept/dispatch/shard/reply)
    // joined the namespace in PR 10; the uniqueness check must catch
    // one of them re-declared in a second file just like any other.
    SelfTree serve_tree("failpoint_serve");
    serve_tree.put("src/engine/a.cpp",
                   "void fa() { (void)RV_FAILPOINT_EVAL(\"serve.reply\"); }\n");
    serve_tree.put("src/io/b.cpp",
                   "void fb(int i) { RV_FAILPOINT_AT(\"serve.reply\", i); }\n");
    failures += expect(scan(serve_tree.root), "failpoint-site", 1,
                       "a serve.* site declared twice fires uniqueness");
  }

  {  // --- stdout-write: raw fd/FILE* escapes to stdout fire too
    SelfTree tree("stdout");
    tree.put("src/engine/bad_fd.cpp",
             "#include <cstdio>\n#include <unistd.h>\n"
             "void leak(const char* s, unsigned long n) {\n"
             "  fwrite(s, 1, n, stdout);\n"
             "  (void)write(STDOUT_FILENO, s, n);\n"
             "  fputs(s, stdout);\n"
             "}\n");
    // fwrite( + fputs( + two `stdout` idents + STDOUT_FILENO.
    failures += expect(scan(tree.root), "stdout-write", 5,
                       "fwrite/fputs/stdout/STDOUT_FILENO in src/ fire");

    SelfTree blessed("stdout_allow");
    blessed.put("src/engine/framed.cpp",
                "#include <cstdio>\n"
                "// rv-lint: allow(stdout-write) — framed protocol writer\n"
                "void frame(const char* s) { fputs(s, stdout); }\n");
    failures += expect(scan(blessed.root), "stdout-write", 0,
                       "allow() escape blesses a framed stdout writer");
  }

  {  // --- uninit-field: scalar fields of outcome/result/cell structs
    SelfTree tree("fields");
    tree.put("src/engine/probe.hpp",
             "#pragma once\n#include <string>\n"
             "enum class Kind { kA, kB };\n"
             "struct ProbeOutcome {\n"
             "  double time;\n"         // fires
             "  Kind kind;\n"           // fires: an enum
             "  const char* name;\n"    // fires: a pointer
             "  int count = 0;\n"
             " public:\n"
             "  bool ok{};\n"
             "  std::string label;\n"
             "  double twice() const { return 2 * time; }\n"
             "  struct Inner { int n = 0; };\n"
             "};\n"
             "struct ProbeCell;\n"
             "struct Plain { double untouched; };\n");
    tree.put("tests/probe.cpp", "struct TestOutcome { double t; };\n");
    failures += expect(scan(tree.root), "uninit-field", 3,
                       "uninitialized scalar fields of *Outcome fire");
  }

  {  // --- the allow escape suppresses, on-line and line-above
    SelfTree tree("allow");
    tree.put("src/engine/blessed.cpp",
             "#include <unordered_map>\n"
             "int sum(const std::unordered_map<int, int>& histogram) {\n"
             "  int total = 0;\n"
             "  // rv-lint: allow(unordered-iteration) — order-independent sum\n"
             "  for (const auto& [k, v] : histogram) total += v;\n"
             "  return total;  // rv-lint: allow(float-type) wrong rule\n"
             "}\n"
             "float narrow();  // rv-lint: allow(float-type) blessed\n");
    failures += expect(scan(tree.root), "unordered-iteration", 0,
                       "allow() on the line above suppresses");
    failures += expect(scan(tree.root), "float-type", 0,
                       "allow() on the finding's own line suppresses");
  }

  if (failures == 0) std::printf("self-test: every rule fires and escapes\n");
  return failures == 0 ? 0 : 1;
}

void usage() {
  std::fprintf(stderr,
               "usage: rv_lint [--root <dir>] [--verbose]\n"
               "       rv_lint --self-test\n");
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      return self_test();
    } else if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--verbose") {
      verbose = true;
    } else {
      usage();
      return 2;
    }
  }
  std::error_code ec;
  if (!fs::is_directory(root / "src", ec)) {
    std::fprintf(stderr, "rv_lint: %s does not look like the repo root\n",
                 root.c_str());
    return 2;
  }
  return lint_tree(root, verbose);
}
