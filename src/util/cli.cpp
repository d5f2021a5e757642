#include "util/cli.hpp"

#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>

namespace emc {

Cli::Cli(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void Cli::add_int(const std::string& name, char short_name,
                  const std::string& help, std::int64_t* target) {
  options_.push_back(Option{
      name, short_name, help, /*takes_value=*/true,
      std::to_string(*target),
      [target](const std::string& v) {
        char* end = nullptr;
        const long long parsed = std::strtoll(v.c_str(), &end, 10);
        if (end == v.c_str() || *end != '\0') return false;
        *target = parsed;
        return true;
      }});
}

void Cli::add_int(const std::string& name, char short_name,
                  const std::string& help, int* target) {
  options_.push_back(Option{
      name, short_name, help, /*takes_value=*/true,
      std::to_string(*target),
      [target](const std::string& v) {
        char* end = nullptr;
        const long long parsed = std::strtoll(v.c_str(), &end, 10);
        if (end == v.c_str() || *end != '\0' ||
            parsed < std::numeric_limits<int>::min() ||
            parsed > std::numeric_limits<int>::max()) {
          return false;
        }
        *target = static_cast<int>(parsed);
        return true;
      }});
}

void Cli::add_double(const std::string& name, char short_name,
                     const std::string& help, double* target) {
  std::ostringstream def;
  def << *target;
  options_.push_back(Option{
      name, short_name, help, /*takes_value=*/true, def.str(),
      [target](const std::string& v) {
        char* end = nullptr;
        const double parsed = std::strtod(v.c_str(), &end);
        if (end == v.c_str() || *end != '\0') return false;
        *target = parsed;
        return true;
      }});
}

void Cli::add_string(const std::string& name, char short_name,
                     const std::string& help, std::string* target) {
  options_.push_back(Option{name, short_name, help, /*takes_value=*/true,
                            *target, [target](const std::string& v) {
                              *target = v;
                              return true;
                            }});
}

void Cli::add_flag(const std::string& name, char short_name,
                   const std::string& help, bool* target) {
  options_.push_back(Option{name, short_name, help, /*takes_value=*/false,
                            *target ? "true" : "false",
                            [target](const std::string&) {
                              *target = true;
                              return true;
                            }});
}

const Cli::Option* Cli::find(const std::string& name) const {
  for (const auto& o : options_) {
    if (o.name == name) return &o;
  }
  return nullptr;
}

const Cli::Option* Cli::find_short(char c) const {
  for (const auto& o : options_) {
    if (o.short_name == c && c != '\0') return &o;
  }
  return nullptr;
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << help_text() << std::flush;
      std::exit(0);
    }

    const Option* opt = nullptr;
    std::string inline_value;
    bool has_inline = false;

    if (arg.rfind("--", 0) == 0) {
      std::string body = arg.substr(2);
      const auto eq = body.find('=');
      if (eq != std::string::npos) {
        inline_value = body.substr(eq + 1);
        has_inline = true;
        body = body.substr(0, eq);
      }
      opt = find(body);
    } else if (arg.size() == 2 && arg[0] == '-') {
      opt = find_short(arg[1]);
    }

    if (opt == nullptr) {
      std::cerr << program_ << ": unknown option '" << arg << "'\n"
                << "Try '--help'.\n";
      return false;
    }

    std::string value;
    if (opt->takes_value) {
      if (has_inline) {
        value = inline_value;
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        std::cerr << program_ << ": option '--" << opt->name
                  << "' requires a value\n";
        return false;
      }
    }
    if (!opt->apply(value)) {
      std::cerr << program_ << ": invalid value '" << value
                << "' for option '--" << opt->name << "'\n";
      return false;
    }
  }
  return true;
}

std::string Cli::help_text() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nOptions:\n";
  for (const auto& o : options_) {
    os << "  ";
    if (o.short_name != '\0') {
      os << "-" << o.short_name << ", ";
    } else {
      os << "    ";
    }
    os << "--" << o.name;
    if (o.takes_value) os << " <value>";
    os << "\n        " << o.help << " (default: " << o.default_repr << ")\n";
  }
  os << "  -h, --help\n        show this help\n";
  return os.str();
}

}  // namespace emc
