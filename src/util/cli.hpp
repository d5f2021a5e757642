#pragma once

// Tiny declarative command-line option parser used by examples and
// benchmark drivers.
//
//   emc::Cli cli("scf_water", "Run RHF on a water cluster");
//   int n = 4;
//   cli.add_int("waters", 'n', "number of water molecules", &n);
//   if (!cli.parse(argc, argv)) return 2;   // prints the error
//
// Supported syntaxes: --name value, --name=value, -x value, --flag.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace emc {

class Cli {
 public:
  Cli(std::string program, std::string description);

  void add_int(const std::string& name, char short_name,
               const std::string& help, std::int64_t* target);
  /// As above; values outside int's range are rejected.
  void add_int(const std::string& name, char short_name,
               const std::string& help, int* target);
  void add_double(const std::string& name, char short_name,
                  const std::string& help, double* target);
  void add_string(const std::string& name, char short_name,
                  const std::string& help, std::string* target);
  void add_flag(const std::string& name, char short_name,
                const std::string& help, bool* target);

  /// Parses argv. Returns false (after printing a message to stderr) if
  /// parsing failed. --help or -h prints the help text to stdout and
  /// exits the process with status 0.
  bool parse(int argc, const char* const* argv);

  std::string help_text() const;

 private:
  struct Option {
    std::string name;
    char short_name;
    std::string help;
    bool takes_value;
    std::string default_repr;
    std::function<bool(const std::string&)> apply;
  };

  const Option* find(const std::string& name) const;
  const Option* find_short(char c) const;

  std::string program_;
  std::string description_;
  std::vector<Option> options_;
};

}  // namespace emc
