// Tiny command-line flag parser for the bench / example binaries.
//
// Supported syntax: --name=value, --name value, and boolean --name /
// --no-name. Unrecognized flags are an error so typos don't silently run a
// multi-minute sweep at the wrong scale.
//
// Every binary reports a malformed command line the same way: one line on
// stderr and exit status 2. An unknown flag is caught by validate(); a
// positional argument or an unparsable value throws UsageError, which each
// main() catches in a function-try-block:
//
//   int main(int argc, char** argv) try {
//     const CliFlags flags(argc, argv);
//     ...
//   } catch (const qfab::UsageError& e) {
//     return qfab::usage_error(argv[0], e);
//   }
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"

namespace qfab {

/// A malformed command line: a positional argument or a flag value that
/// does not parse. A CheckError, so code that catches those still does.
class UsageError : public CheckError {
 public:
  using CheckError::CheckError;
};

/// Print "<program>: <what>" on stderr and return 2, the exit status of a
/// usage error, for main() to return.
int usage_error(const std::string& program, const UsageError& e);

class CliFlags {
 public:
  /// Parse argv. Throws UsageError on a positional argument.
  CliFlags(int argc, const char* const* argv);

  /// Scalar lookups with defaults. Throw UsageError on unparsable values.
  std::string get_string(const std::string& name, std::string def) const;
  long get_int(const std::string& name, long def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

  /// Comma-separated list of doubles (e.g. --rates=0.1,0.2,0.5).
  std::vector<double> get_double_list(const std::string& name,
                                      std::vector<double> def) const;
  /// Comma-separated list of longs (e.g. --depths=1,2,3).
  std::vector<long> get_int_list(const std::string& name,
                                 std::vector<long> def) const;

  bool has(const std::string& name) const { return values_.count(name) != 0; }

  /// After all get_* calls, verify the user passed no unknown flags.
  /// Prints usage to stderr and returns false when a stray flag exists.
  bool validate() const;

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  std::optional<std::string> raw(const std::string& name) const;

  std::string program_;
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> touched_;
};

}  // namespace qfab
