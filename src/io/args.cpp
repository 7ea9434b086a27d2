#include "io/args.hpp"

#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace rv::io {

namespace {

/// Converts the whole of `text` with std::stoi or std::stod; a failure
/// names the flag instead of passing on the library's bare "stoi" or
/// "stod" message.
template <typename T>
T convert(const std::string& text, const std::string& name) {
  constexpr bool kInt = std::is_same_v<T, int>;
  const std::string kind = kInt ? "integer" : "number";
  try {
    std::size_t pos = 0;
    T v{};
    if constexpr (kInt) {
      v = std::stoi(text, &pos);
    } else {
      v = std::stod(text, &pos);
    }
    if (pos == text.size()) return v;
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("Args: " + kind + " out of range for --" +
                                name);
  } catch (const std::invalid_argument&) {
    // Not a number at all: reported as malformed below.
  }
  throw std::invalid_argument("Args: malformed " + kind + " for --" + name);
}

}  // namespace

void Args::declare(const std::string& name, const std::string& default_value,
                   const std::string& help) {
  specs_[name] = Spec{Kind::kString, default_value, help};
}

void Args::declare_double(const std::string& name, double default_value,
                          const std::string& help) {
  std::ostringstream os;
  os << default_value;
  specs_[name] = Spec{Kind::kDouble, os.str(), help};
}

void Args::declare_int(const std::string& name, int default_value,
                       const std::string& help) {
  specs_[name] = Spec{Kind::kInt, std::to_string(default_value), help};
}

void Args::declare_bool(const std::string& name, const std::string& help) {
  specs_[name] = Spec{Kind::kBool, "0", help};
}

void Args::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("Args: expected --flag, got '" + arg + "'");
    }
    const std::string name = arg.substr(2);
    const auto it = specs_.find(name);
    if (it == specs_.end()) {
      throw std::invalid_argument("Args: unknown flag --" + name);
    }
    if (it->second.kind == Kind::kBool) {
      values_.insert_or_assign(name, std::string("1"));
      continue;
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument("Args: missing value for --" + name);
    }
    values_.insert_or_assign(name, std::string(argv[++i]));
  }
}

bool Args::provided(const std::string& name) const {
  if (specs_.find(name) == specs_.end()) {
    throw std::invalid_argument("Args: undeclared flag --" + name);
  }
  return values_.find(name) != values_.end();
}

const std::string& Args::value_of(const std::string& name,
                                  Kind expected) const {
  const auto it = specs_.find(name);
  if (it == specs_.end()) {
    throw std::invalid_argument("Args: undeclared flag --" + name);
  }
  if (it->second.kind != expected) {
    throw std::invalid_argument("Args: type mismatch for --" + name);
  }
  const auto vit = values_.find(name);
  return vit != values_.end() ? vit->second : it->second.default_value;
}

std::string Args::get(const std::string& name) const {
  return value_of(name, Kind::kString);
}

double Args::get_double(const std::string& name) const {
  return convert<double>(value_of(name, Kind::kDouble), name);
}

int Args::get_int(const std::string& name) const {
  return convert<int>(value_of(name, Kind::kInt), name);
}

bool Args::get_bool(const std::string& name) const {
  return value_of(name, Kind::kBool) == "1";
}

std::string Args::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& [name, spec] : specs_) {
    os << "  --" << name;
    if (spec.kind != Kind::kBool) os << " <value>";
    os << "  " << spec.help;
    if (spec.kind != Kind::kBool) os << " (default: " << spec.default_value << ")";
    os << '\n';
  }
  return os.str();
}

}  // namespace rv::io
