// Minimal recursive-descent JSON parser.
//
// Exists so the trace exporter's output can be parsed *back* — by
// tools/trace_inspect when it loads a captured trace, and by obs_test
// when it asserts the Perfetto JSON is well-formed — without adding an
// external dependency. Supports the full JSON value grammar; numbers are
// held as double (ample for span ids and microsecond timestamps).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dohperf::obs::json {

class Value;

using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  explicit Value(bool b) : type_(Type::kBool), bool_(b) {}
  explicit Value(double n) : type_(Type::kNumber), number_(n) {}
  explicit Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  explicit Value(Array a) : type_(Type::kArray), array_(std::move(a)) {}
  explicit Value(Object o) : type_(Type::kObject), object_(std::move(o)) {}

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_number() const { return number_; }
  [[nodiscard]] const std::string& as_string() const { return string_; }
  [[nodiscard]] const Array& as_array() const { return array_; }
  [[nodiscard]] const Object& as_object() const { return object_; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* get(std::string_view key) const;
  /// get(key)->as_number() with a default for absent/mistyped members.
  [[nodiscard]] double number_or(std::string_view key, double fallback) const;
  /// get(key)->as_string() with a default.
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string fallback) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parses one JSON document; std::nullopt on any syntax error or
/// trailing garbage. On failure, `*error` (when given) names the first
/// defect as "line L, column C: <reason>", 1-based, columns in bytes.
[[nodiscard]] std::optional<Value> parse(std::string_view text,
                                         std::string* error = nullptr);

/// Escapes `s` for embedding inside a JSON string literal (no quotes).
[[nodiscard]] std::string escape(std::string_view s);

}  // namespace dohperf::obs::json
