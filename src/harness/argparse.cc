#include "harness/argparse.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>

namespace l96::harness {

namespace {

template <typename T>
bool parse_uint(const std::string& s, T* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size() || s[0] == '-') return false;
  if (v > static_cast<unsigned long long>(~T{0})) return false;
  *out = static_cast<T>(v);
  return true;
}

bool parse_double(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

}  // namespace

bool parse_unsigned(const std::string& s, std::uint64_t* out) {
  return parse_uint(s, out);
}

ArgParser::ArgParser(std::string prog, std::string summary)
    : prog_(std::move(prog)), summary_(std::move(summary)) {}

void ArgParser::add_flag(const std::string& name, const std::string& help,
                         bool* out) {
  Opt o;
  o.name = "--" + name;
  o.help = help;
  o.flag = out;
  opts_.push_back(std::move(o));
}

void ArgParser::add_valued(const std::string& name,
                           const std::string& value_name,
                           const std::string& help,
                           std::function<bool(const std::string&)> set) {
  Opt o;
  o.name = "--" + name;
  o.value_name = value_name;
  o.help = help;
  o.set = std::move(set);
  opts_.push_back(std::move(o));
}

void ArgParser::add_option(const std::string& name,
                           const std::string& value_name,
                           const std::string& help, std::string* out) {
  add_valued(name, value_name, help, [out](const std::string& v) {
    *out = v;
    return true;
  });
}

void ArgParser::add_option(const std::string& name,
                           const std::string& value_name,
                           const std::string& help, std::uint64_t* out) {
  add_valued(name, value_name, help,
             [out](const std::string& v) { return parse_uint(v, out); });
}

void ArgParser::add_option(const std::string& name,
                           const std::string& value_name,
                           const std::string& help, unsigned* out) {
  add_valued(name, value_name, help,
             [out](const std::string& v) { return parse_uint(v, out); });
}

void ArgParser::add_option(const std::string& name,
                           const std::string& value_name,
                           const std::string& help, double* out) {
  add_valued(name, value_name, help,
             [out](const std::string& v) { return parse_double(v, out); });
}

void ArgParser::add_option(const std::string& name,
                           const std::string& value_name,
                           const std::string& help,
                           std::function<bool(const std::string&)> set) {
  add_valued(name, value_name, help, std::move(set));
}

void ArgParser::add_positional(const std::string& name,
                               const std::string& help,
                               std::function<bool(const std::string&)> set) {
  pos_.push_back({name, help, std::move(set)});
}

void ArgParser::add_positional(const std::string& name,
                               const std::string& help, std::uint64_t* out) {
  add_positional(name, help,
                 [out](const std::string& v) { return parse_uint(v, out); });
}

void ArgParser::add_positional(const std::string& name,
                               const std::string& help, double* out) {
  add_positional(name, help,
                 [out](const std::string& v) { return parse_double(v, out); });
}

std::string ArgParser::help() const {
  std::ostringstream os;
  os << summary_ << "\n\nusage: " << prog_;
  for (const Opt& o : opts_) {
    os << " [" << o.name;
    if (!o.value_name.empty()) os << " " << o.value_name;
    os << "]";
  }
  for (const Pos& p : pos_) os << " [" << p.name << "]";
  os << "\n";
  if (!opts_.empty()) {
    os << "\noptions:\n";
    for (const Opt& o : opts_) {
      std::string head = "  " + o.name;
      if (!o.value_name.empty()) head += " " + o.value_name;
      os << head;
      if (head.size() < 26) os << std::string(26 - head.size(), ' ');
      else os << "\n" << std::string(26, ' ');
      os << o.help << "\n";
    }
  }
  if (!pos_.empty()) {
    os << "\npositionals (in order, all optional):\n";
    for (const Pos& p : pos_) {
      std::string head = "  " + p.name;
      os << head;
      if (head.size() < 26) os << std::string(26 - head.size(), ' ');
      else os << "\n" << std::string(26, ' ');
      os << p.help << "\n";
    }
  }
  os << "\n  --help                  show this message\n";
  return os.str();
}

bool ArgParser::parse(int argc, char** argv, std::ostream& err) {
  std::size_t next_pos = 0;
  const auto fail = [&](const std::string& msg) {
    err << prog_ << ": " << msg << "\n\n" << help();
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << help();
      help_shown_ = true;
      return false;
    }
    if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
      Opt* match = nullptr;
      for (Opt& o : opts_) {
        if (o.name == arg) {
          match = &o;
          break;
        }
      }
      if (match == nullptr) return fail("unknown flag '" + arg + "'");
      given_.push_back(match->name.substr(2));
      if (match->flag != nullptr) {
        *match->flag = true;
        continue;
      }
      if (i + 1 >= argc) {
        return fail("flag '" + arg + "' needs a value (" +
                    match->value_name + ")");
      }
      const std::string value = argv[++i];
      if (!match->set(value)) {
        return fail("invalid value '" + value + "' for '" + arg + "'");
      }
      continue;
    }
    if (next_pos >= pos_.size()) {
      return fail("unexpected argument '" + arg + "'");
    }
    Pos& p = pos_[next_pos++];
    given_.push_back(p.name);
    if (!p.set(arg)) {
      return fail("invalid value '" + arg + "' for <" + p.name + ">");
    }
  }
  return true;
}

bool ArgParser::parse(int argc, char** argv) {
  return parse(argc, argv, std::cerr);
}

bool ArgParser::given(const std::string& name) const {
  return std::find(given_.begin(), given_.end(), name) != given_.end();
}

void CommonCliArgs::add_to(ArgParser& parser) {
  parser.add_option("workers", "N",
                    "worker threads (0 = hardware concurrency)", &workers);
  parser.add_flag("json", "emit the JSON section to stdout", &json);
  parser.add_option("out", "FILE", "also write the JSON section to FILE",
                    &out);
}

}  // namespace l96::harness
