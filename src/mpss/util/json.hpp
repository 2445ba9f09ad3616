#pragma once
// Minimal JSON document model + pull tokenizer + serializer (substrate for S45).
//
// One JSON implementation now serves every structured-text consumer: the
// Instance codec (core/instance_json.hpp), the wire protocol (net/protocol.hpp)
// and the tools that read either. The model is deliberately small: a Value is
// null, bool, double, string, array, or object. Objects preserve insertion
// order, so serializing a freshly built document is deterministic -- the
// property the canonical Instance form and the protocol golden tests rely on.
//
// There is one tokenizer, Cursor, a pull reader over the text. parse() builds
// a Value with it; a decoder that knows its schema (the protocol's result
// decoder, result_json.hpp) pulls the same tokens straight into its own types
// and never builds the document. Either way the input is checked by the same
// code, so both accept and reject exactly the same texts.
//
// Numbers are doubles. Everything that must round-trip exactly -- rationals,
// 64-bit ids beyond 2^53 -- travels as a string; doubles themselves are
// serialized with max_digits10 precision, so parse(serialize(x)) == x bit for
// bit for every finite double.

#include <cstddef>
#include <stdexcept>
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

/// Malformed JSON text (the message carries the offset). Distinct from the
/// std::invalid_argument a reader throws when well-formed JSON has the wrong
/// shape ("expected number"), so a schema decoder can tell the two apart.
class SyntaxError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Parses one JSON document (trailing whitespace allowed, anything else after
/// the document throws). Throws SyntaxError with an offset-carrying message on
/// malformed input. Depth is capped (kMaxDepth) so adversarial nesting cannot
/// overflow the stack -- this parser fronts a network protocol.
[[nodiscard]] Value parse(std::string_view text);

inline constexpr std::size_t kMaxDepth = 96;

/// Pull reader over one JSON document. Each read consumes one value (or one
/// container boundary); a read of the wrong type throws std::invalid_argument
/// ("json: expected number", ...) without consuming anything, malformed text
/// throws SyntaxError. Objects and arrays are walked as
///
///   if (cursor.begin_object()) do {
///     std::string_view key = cursor.key();
///     ... read or skip_value() the member's value ...
///   } while (cursor.next_member());
///
/// and likewise begin_array()/next_element(). A string view returned by key()
/// or read_string() points into the text, or into the cursor's scratch buffer
/// when the string had escapes; it is valid until the next read. The cursor
/// views `text`, which must outlive it. Depth is capped at kMaxDepth exactly
/// as parse() caps it.
class Cursor {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  explicit Cursor(std::string_view text) : text_(text) {}

  /// Kind of the next value (judged by its first character; a malformed
  /// value is reported by the read that consumes it).
  [[nodiscard]] Kind peek();

  /// Consumes '{' and returns whether the object has members; an empty
  /// object is consumed whole.
  bool begin_object();
  /// Reads a member's key and the ':' after it.
  [[nodiscard]] std::string_view key();
  /// After a member's value: consumes ',' (true, another member follows) or
  /// '}' (false, the object is closed).
  bool next_member();

  /// Array counterparts of begin_object / next_member.
  bool begin_array();
  bool next_element();

  [[nodiscard]] std::string_view read_string();
  /// Bit-identical to strtod on the number's text, including out-of-range
  /// literals (1e400 reads as inf, 1e-400 as 0).
  [[nodiscard]] double read_number();
  [[nodiscard]] bool read_bool();
  void read_null();
  /// The next value as a document.
  [[nodiscard]] Value read_value();
  /// Consumes the next value, checking it as thoroughly as read_value().
  void skip_value();

  /// Requires that only whitespace remains.
  void finish();

  /// A saved position: rewind() returns the cursor to it, so a decoder can
  /// re-read (or skip) a value it has already walked.
  struct Mark {
    std::size_t pos = 0;
    std::size_t depth = 0;
  };
  [[nodiscard]] Mark mark() const { return Mark{pos_, depth_}; }
  void rewind(Mark mark) {
    pos_ = mark.pos;
    depth_ = mark.depth;
  }

 private:
  char start_value();
  void expect(char c);
  void skip_whitespace();
  void consume_literal(std::string_view literal);
  unsigned parse_hex4();
  std::string_view read_string_token();  // at the opening quote

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // containers currently open
  std::string scratch_;    // decoded strings that had escapes
  // read_value()'s children of the containers it is building, innermost last.
  std::vector<Value> element_stack_;
  Object member_stack_;
};

/// Serializer primitives, for encoders that write a document directly: the
/// bytes equal serialize() of the corresponding Value.
void write_number(double value, std::string& out);
void write_string(std::string_view text, std::string& out);

/// Compact canonical serialization: no whitespace, members in insertion order,
/// doubles at max_digits10 (integers without exponent), strings escaped per
/// RFC 8259 (control characters as \uXXXX).
[[nodiscard]] std::string serialize(const Value& value);
void serialize_to(const Value& value, std::string& out);

}  // namespace mpss::json
