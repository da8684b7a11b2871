#include "harness/json.h"

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "harness/sections.h"

namespace l96::harness {

namespace {

std::string escape(const std::string& s) {
  std::string r;
  r.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': r += "\\\""; break;
      case '\\': r += "\\\\"; break;
      case '\n': r += "\\n"; break;
      case '\t': r += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          r += buf;
        } else {
          r.push_back(c);
        }
    }
  }
  return r;
}

std::string number(double v) {
  std::ostringstream ss;
  ss << std::setprecision(12) << v;
  return ss.str();
}

}  // namespace

const SectionInfo* find_section(std::string_view name, int version) noexcept {
  for (const SectionInfo& s : kSectionManifest) {
    if (s.name == name && s.version == version) return &s;
  }
  return nullptr;
}

std::string section_schema(const std::string& name, int version) {
  if (name.empty()) {
    throw std::invalid_argument("section_schema: empty section name");
  }
  for (char c : name) {
    if ((c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_') {
      throw std::invalid_argument("section_schema: section name '" + name +
                                  "' must match [a-z0-9_]+");
    }
  }
  if (version < 1) {
    throw std::invalid_argument("section_schema: section version must be >= 1");
  }
  return "l96." + name + ".v" + std::to_string(version);
}

Json emit_section(const std::string& name, int version, Json body) {
  const std::string schema = section_schema(name, version);
  if (find_section(name, version) == nullptr) {
    throw std::invalid_argument(
        "emit_section: '" + schema +
        "' is not in the section manifest (harness/sections.h) — list it "
        "there before emitting it");
  }
  Json section = json_section(schema);
  if (const Json::Object* entries = body.as_object()) {
    for (const auto& [k, v] : *entries) section.set(k, v);
  } else if (body.dump() != "null") {
    throw std::invalid_argument(
        "emit_section: body must be a JSON object (or omitted)");
  }
  return section;
}

Json& Json::push_back(Json v) {
  if (std::holds_alternative<std::nullptr_t>(v_)) v_ = Array{};
  std::get<Array>(v_).push_back(std::move(v));
  return *this;
}

Json& Json::set(const std::string& key, Json v) {
  if (std::holds_alternative<std::nullptr_t>(v_)) v_ = Object{};
  Object& o = std::get<Object>(v_);
  for (auto& [k, existing] : o) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  o.emplace_back(key, std::move(v));
  return *this;
}

const Json* Json::find(const std::string& key) const noexcept {
  const Object* o = std::get_if<Object>(&v_);
  if (o == nullptr) return nullptr;
  for (const auto& [k, v] : *o) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json::Object* Json::as_object() const noexcept {
  return std::get_if<Object>(&v_);
}

const Json::Array* Json::as_array() const noexcept {
  return std::get_if<Array>(&v_);
}

const std::string* Json::as_string() const noexcept {
  return std::get_if<std::string>(&v_);
}

const std::uint64_t* Json::as_uint() const noexcept {
  return std::get_if<std::uint64_t>(&v_);
}

std::size_t Json::size() const noexcept {
  if (const Array* a = std::get_if<Array>(&v_)) return a->size();
  if (const Object* o = std::get_if<Object>(&v_)) return o->size();
  return 0;
}

void Json::dump(std::ostream& os) const {
  struct Visitor {
    std::ostream& os;
    void operator()(std::nullptr_t) const { os << "null"; }
    void operator()(bool b) const { os << (b ? "true" : "false"); }
    void operator()(double d) const { os << number(d); }
    void operator()(std::int64_t i) const { os << i; }
    void operator()(std::uint64_t u) const { os << u; }
    void operator()(const std::string& s) const {
      os << '"' << escape(s) << '"';
    }
    void operator()(const Array& a) const {
      os << '[';
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i != 0) os << ',';
        a[i].dump(os);
      }
      os << ']';
    }
    void operator()(const Object& o) const {
      os << '{';
      for (std::size_t i = 0; i < o.size(); ++i) {
        if (i != 0) os << ',';
        os << '"' << escape(o[i].first) << "\":";
        o[i].second.dump(os);
      }
      os << '}';
    }
  };
  std::visit(Visitor{os}, v_);
}

std::string Json::dump() const {
  std::ostringstream ss;
  dump(ss);
  return ss.str();
}

void write_json_file(const std::filesystem::path& path, const Json& j) {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream f(path);
  if (!f) {
    throw std::runtime_error("cannot open JSON output " + path.string());
  }
  j.dump(f);
  f << '\n';
  f.close();
  if (!f) {
    throw std::runtime_error("failed writing JSON output " + path.string());
  }
}

}  // namespace l96::harness
