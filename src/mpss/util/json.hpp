#pragma once
// Minimal JSON document model + parser + serializer (substrate for S45).
//
// One JSON implementation now serves every structured-text consumer: the
// Instance codec (core/instance_json.hpp), the wire protocol (net/protocol.hpp)
// and the tools that read either. The model is deliberately small: a Value is
// null, bool, double, string, array, or object. Objects preserve insertion
// order, so serializing a freshly built document is deterministic -- the
// property the canonical Instance form and the protocol golden tests rely on.
//
// Numbers are doubles. Everything that must round-trip exactly -- rationals,
// 64-bit ids beyond 2^53 -- travels as a string; doubles themselves are
// serialized with max_digits10 precision, so parse(serialize(x)) == x bit for
// bit for every finite double.

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace mpss::json {

class Value;

using Array = std::vector<Value>;
/// Insertion-ordered members; lookup is linear (documents here are small).
using Object = std::vector<std::pair<std::string, Value>>;

class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}        // NOLINT: intentional
  Value(bool value) : data_(value) {}              // NOLINT: intentional
  Value(double value) : data_(value) {}            // NOLINT: intentional
  Value(int value)                                 // NOLINT: intentional
      : data_(static_cast<double>(value)) {}
  Value(std::size_t value)                         // NOLINT: intentional
      : data_(static_cast<double>(value)) {}
  Value(const char* value) : data_(std::string(value)) {}  // NOLINT: intentional
  Value(std::string value) : data_(std::move(value)) {}    // NOLINT: intentional
  Value(std::string_view value) : data_(std::string(value)) {}  // NOLINT
  Value(Array value) : data_(std::move(value)) {}  // NOLINT: intentional
  Value(Object value) : data_(std::move(value)) {} // NOLINT: intentional

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(data_); }
  [[nodiscard]] bool is_number() const { return std::holds_alternative<double>(data_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(data_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<Array>(data_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<Object>(data_); }

  /// Checked accessors: throw std::invalid_argument naming the expected type
  /// when the value holds something else (the codec's error style).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Member lookup on an object: the value, or nullptr when absent (also when
  /// this value is not an object).
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// Member lookup that throws std::invalid_argument("missing field 'key'")
  /// when absent -- the decoder's required-field form.
  [[nodiscard]] const Value& at(std::string_view key) const;

  /// Appends a member (builders only; no duplicate-key check).
  void set(std::string key, Value value);

  friend bool operator==(const Value&, const Value&) = default;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> data_;
};

/// The largest double that is still an exact integer (2^53).
inline constexpr double kMaxExactInteger = 9007199254740992.0;

/// The one range check for integer fields decoded from JSON numbers: true iff
/// `raw` is an integer in [lo, hi]. Run it BEFORE casting -- a cast from a
/// double past the target's range (a hostile 1e300, inf) is undefined
/// behavior. Written in the accepting direction, so NaN (which fails every
/// comparison) is rejected too.
[[nodiscard]] bool is_integer_in(double raw, double lo, double hi);

/// Parses one JSON document (trailing whitespace allowed, anything else after
/// the document throws). Throws std::invalid_argument with an offset-carrying
/// message on malformed input. Depth is capped (kMaxDepth) so adversarial
/// nesting cannot overflow the stack -- this parser fronts a network protocol.
[[nodiscard]] Value parse(std::string_view text);

inline constexpr std::size_t kMaxDepth = 96;

/// Compact canonical serialization: no whitespace, members in insertion order,
/// doubles at max_digits10 (integers without exponent), strings escaped per
/// RFC 8259 (control characters as \uXXXX).
[[nodiscard]] std::string serialize(const Value& value);
void serialize_to(const Value& value, std::string& out);

}  // namespace mpss::json
