// A minimal ordered JSON value for the harness's structured metrics.
//
// Every emitted document (sweep rows, bench sections, run() sections) is a
// typed Json tree with one emission code path.  Objects preserve insertion
// order and numbers are emitted as 12 significant digits for doubles and
// exact integers for counters, so output stays deterministic and
// byte-stable across runs.
//
// This is deliberately an emitter, not a parser: bench output is consumed
// by external tooling, nothing in-tree reads it back.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace l96::harness {

class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : v_(nullptr) {}
  Json(std::nullptr_t) : v_(nullptr) {}
  Json(bool b) : v_(b) {}
  Json(double d) : v_(d) {}
  Json(int i) : v_(static_cast<std::int64_t>(i)) {}
  Json(std::int64_t i) : v_(i) {}
  Json(std::uint64_t u) : v_(u) {}
  Json(std::string s) : v_(std::move(s)) {}
  Json(const char* s) : v_(std::string(s)) {}

  static Json array() {
    Json j;
    j.v_ = Array{};
    return j;
  }
  static Json object() {
    Json j;
    j.v_ = Object{};
    return j;
  }

  bool is_object() const noexcept {
    return std::holds_alternative<Object>(v_);
  }
  bool is_array() const noexcept { return std::holds_alternative<Array>(v_); }

  /// Append to an array (converts a null value to an array first).
  Json& push_back(Json v);

  /// Set a key on an object (converts a null value to an object first).
  /// Keys keep insertion order; setting an existing key overwrites in
  /// place.  Returns *this for chaining.
  Json& set(const std::string& key, Json v);

  /// Object lookup; nullptr when absent or not an object.
  const Json* find(const std::string& key) const noexcept;

  /// Object entries in insertion order; nullptr when not an object.
  const Object* as_object() const noexcept;
  /// Array elements; nullptr when not an array.
  const Array* as_array() const noexcept;
  /// The string payload; nullptr when not a string.
  const std::string* as_string() const noexcept;
  /// The unsigned counter payload; nullptr when not one.
  const std::uint64_t* as_uint() const noexcept;

  std::size_t size() const noexcept;

  void dump(std::ostream& os) const;
  std::string dump() const;

 private:
  std::variant<std::nullptr_t, bool, double, std::int64_t, std::uint64_t,
               std::string, Array, Object>
      v_;
};

/// A schema-versioned section: `{"schema": "<name>", ...}`.  Every section
/// attached to a SweepOutcome via extra_json() must start from one of
/// these, so external consumers can dispatch on the schema field.
inline Json json_section(const std::string& schema) {
  return Json::object().set("schema", schema);
}

/// The wire schema string for a manifest section: ("fleet", 2) ->
/// "l96.fleet.v2".  Validates the pieces (name is non-empty [a-z0-9_],
/// version >= 1) and throws std::invalid_argument on a malformed name —
/// but does NOT consult the manifest (emit_section does).
std::string section_schema(const std::string& name, int version);

/// Build a schema-versioned section the one sanctioned way: validates the
/// name/version against the checked-in manifest (harness/sections.h) and
/// the name's syntax once, then returns `{"schema": "l96.<name>.v<ver>",
/// ...body}` with the body's keys appended in their insertion order.
/// Throws std::invalid_argument for a section the manifest does not list
/// (add it there first — that edit is the review point for new surfaces)
/// or a body that is neither null nor an object.
Json emit_section(const std::string& name, int version,
                  Json body = Json::object());

/// Write `j` plus a trailing newline to `path`, creating its parent
/// directories: how benches, run() and write_sweep_metrics put JSON on
/// disk.  Throws std::runtime_error naming the path when the file cannot be
/// opened or the write fails (so nothing reports a file it never wrote).
void write_json_file(const std::filesystem::path& path, const Json& j);

}  // namespace l96::harness
