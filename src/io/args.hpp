#pragma once

/// \file args.hpp
/// A tiny `--flag value` argv parser for the example and bench
/// binaries.  Deliberately minimal: flags are `--name value` or
/// `--name` (boolean); everything is validated and typo-checked so a
/// misspelled flag fails loudly instead of being ignored.

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace rv::io {

/// Parsed command line.
class Args {
 public:
  /// Parses argv.  Flags must be declared via the `declare_*` calls
  /// before `parse`.
  Args() = default;

  /// Declares a string flag with a default.
  void declare(const std::string& name, const std::string& default_value,
               const std::string& help);
  /// Declares a numeric flag with a default.
  void declare_double(const std::string& name, double default_value,
                      const std::string& help);
  /// Declares an integer flag with a default.
  void declare_int(const std::string& name, int default_value,
                   const std::string& help);
  /// Declares a boolean flag (default false; present = true).
  void declare_bool(const std::string& name, const std::string& help);

  /// Parses the command line.  \throws std::invalid_argument on unknown
  /// flags or malformed values.  Recognises `--help`.
  void parse(int argc, const char* const* argv);

  /// Accessors (after parse; return defaults otherwise).
  [[nodiscard]] std::string get(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] int get_int(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  /// True iff the flag was explicitly provided on the command line
  /// (as opposed to resting at its declared default).  Subcommand
  /// front-ends use this to reject flags that do not apply to the
  /// chosen subcommand instead of silently ignoring them.
  [[nodiscard]] bool provided(const std::string& name) const;

  /// True when `--help` was passed; callers should print `usage()` and
  /// exit.
  [[nodiscard]] bool help_requested() const { return help_; }

  /// Generated usage text.
  [[nodiscard]] std::string usage(const std::string& program) const;

 private:
  enum class Kind { kString, kDouble, kInt, kBool };
  struct Spec {
    Kind kind;
    std::string default_value;
    std::string help;
  };
  std::map<std::string, Spec> specs_;
  std::map<std::string, std::string> values_;
  bool help_ = false;

  /// The flag's given value, or its default; checks `expected`.
  const std::string& value_of(const std::string& name, Kind expected) const;
};

}  // namespace rv::io
