#include "common/cli.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>

namespace qfab {

namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// strtol with full validation: empty strings, trailing garbage, and
/// out-of-range values (ERANGE clamps silently otherwise) all fail. The
/// first character must start the number itself — strtol would silently
/// skip leading whitespace and accept a '+' sign, making `" 3"` parse
/// while `"3 "` is rejected — so anything but a digit or '-' fails.
bool parse_long(const std::string& s, long& out) {
  if (s.empty()) return false;
  if (!is_digit(s[0]) && s[0] != '-') return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtol(s.c_str(), &end, 10);
  return end != s.c_str() && *end == '\0' && errno != ERANGE;
}

/// strtod with the same validation (overflow to ±HUGE_VAL and underflow
/// both set ERANGE and are rejected rather than clamped). The same
/// no-prefix rule applies — a digit, '-' or '.' must come first, which
/// also shuts out strtod's "inf"/"nan" spellings.
bool parse_double(const std::string& s, double& out) {
  if (s.empty()) return false;
  if (!is_digit(s[0]) && s[0] != '-' && s[0] != '.') return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtod(s.c_str(), &end);
  return end != s.c_str() && *end == '\0' && errno != ERANGE &&
         std::isfinite(out);  // "-inf" slips past the prefix rule
}

/// The comma-separated elements of a list flag's value, empty ones
/// included: "1,,2" and "1," each hold an empty element, which no parser
/// accepts.
std::vector<std::string> list_items(const std::string& value) {
  std::vector<std::string> items;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t comma = value.find(',', begin);
    items.push_back(value.substr(begin, comma - begin));
    if (comma == std::string::npos) return items;
    begin = comma + 1;
  }
}

}  // namespace

int usage_error(const std::string& program, const UsageError& e) {
  std::cerr << program << ": " << e.what() << '\n';
  return 2;
}

CliFlags::CliFlags(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--"))
      throw UsageError("positional arguments are not supported: " + arg);
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    if (starts_with(arg, "no-")) {
      values_[arg.substr(3)] = "false";
      continue;
    }
    // --name value, unless the next token is another flag or absent: then
    // treat as boolean true.
    if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

std::optional<std::string> CliFlags::raw(const std::string& name) const {
  touched_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string CliFlags::get_string(const std::string& name,
                                 std::string def) const {
  return raw(name).value_or(std::move(def));
}

long CliFlags::get_int(const std::string& name, long def) const {
  const auto v = raw(name);
  if (!v) return def;
  long out = 0;
  if (!parse_long(*v, out))
    throw UsageError("--" + name + " expects an in-range integer, got \"" +
                     *v + '"');
  return out;
}

double CliFlags::get_double(const std::string& name, double def) const {
  const auto v = raw(name);
  if (!v) return def;
  double out = 0.0;
  if (!parse_double(*v, out))
    throw UsageError("--" + name + " expects an in-range number, got \"" +
                     *v + '"');
  return out;
}

bool CliFlags::get_bool(const std::string& name, bool def) const {
  const auto v = raw(name);
  if (!v) return def;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw UsageError("--" + name + " expects a boolean, got " + *v);
}

std::vector<double> CliFlags::get_double_list(const std::string& name,
                                              std::vector<double> def) const {
  const auto v = raw(name);
  if (!v) return def;
  if (v->empty())
    throw UsageError("--" + name + " expects a list, got an empty value " +
                     "(omit the flag for the default)");
  std::vector<double> out;
  for (const std::string& item : list_items(*v)) {
    double value = 0.0;
    if (!parse_double(item, value))
      throw UsageError("--" + name + ": bad list element \"" + item + '"');
    out.push_back(value);
  }
  return out;
}

std::vector<long> CliFlags::get_int_list(const std::string& name,
                                         std::vector<long> def) const {
  const auto v = raw(name);
  if (!v) return def;
  if (v->empty())
    throw UsageError("--" + name + " expects a list, got an empty value " +
                     "(omit the flag for the default)");
  std::vector<long> out;
  for (const std::string& item : list_items(*v)) {
    long value = 0;
    if (!parse_long(item, value))
      throw UsageError("--" + name + ": bad list element \"" + item + '"');
    out.push_back(value);
  }
  return out;
}

bool CliFlags::validate() const {
  bool ok = true;
  for (const auto& [name, value] : values_) {
    (void)value;
    if (!touched_.count(name)) {
      std::cerr << program_ << ": unknown flag --" << name << '\n';
      ok = false;
    }
  }
  if (!ok) {
    std::cerr << "known flags:";
    for (const auto& [name, used] : touched_) {
      (void)used;
      std::cerr << " --" << name;
    }
    std::cerr << '\n';
  }
  return ok;
}

}  // namespace qfab
