// A small JSON reader for the documents harvestd serves (/plan,
// /profile.json). Parsing them here, rather than with the library's own
// writer-side code, keeps the daemon checks independent of the program.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parse a whole document; throws std::runtime_error on malformed input
  /// or trailing garbage.
  [[nodiscard]] static JsonValue parse(const std::string& text);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }

  /// Typed accessors; throw std::runtime_error on a kind mismatch.
  [[nodiscard]] double number() const;
  [[nodiscard]] bool boolean() const;
  [[nodiscard]] const std::string& string() const;
  [[nodiscard]] const std::vector<JsonValue>& array() const;

  /// Object member; throws std::runtime_error when absent or not an object.
  [[nodiscard]] const JsonValue& at(const std::string& key) const;
  [[nodiscard]] bool has(const std::string& key) const;

 private:
  friend class JsonParser;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Value of the un-labelled sample `name` in a Prometheus text exposition
/// (`name value` lines; comments and labelled samples are skipped). Returns
/// false when no such sample exists or its value does not parse.
bool prometheus_value(const std::string& text, const std::string& name,
                      double& value);

/// Number of sample lines (non-empty, non-comment) in an exposition.
[[nodiscard]] std::size_t prometheus_samples(const std::string& text);

}  // namespace perfbench
