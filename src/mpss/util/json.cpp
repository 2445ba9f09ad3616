#include "mpss/util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <stdexcept>
#include <system_error>

namespace mpss::json {
namespace {

[[noreturn]] void fail(const char* what, std::size_t offset) {
  throw SyntaxError("json: " + std::string(what) + " at offset " +
                    std::to_string(offset));
}

[[noreturn]] void wrong_type(const char* expected) {
  throw std::invalid_argument("json: expected " + std::string(expected));
}

void append_utf8(std::string& out, unsigned code) {
  if (code < 0x80) {
    out.push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (code >> 6)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else if (code < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (code >> 12)));
    out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (code >> 18)));
    out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

}  // namespace

void write_string(std::string_view text, std::string& out) {
  out.push_back('"');
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void write_number(double value, std::string& out) {
  if (!std::isfinite(value)) {
    // JSON has no NaN/Inf; null is the conventional stand-in and the decoders
    // here reject it with "expected number", which is the right failure.
    out += "null";
    return;
  }
  char buffer[32];
  std::to_chars_result written{};
  if (std::fabs(value) < 1e15 &&
      value == static_cast<double>(static_cast<long long>(value))) {
    written = std::to_chars(buffer, buffer + sizeof buffer,
                            static_cast<long long>(value));
  } else {
    // The general format at precision 17 is printf's "%.17g".
    written = std::to_chars(buffer, buffer + sizeof buffer, value,
                            std::chars_format::general, 17);
  }
  out.append(buffer, written.ptr);
}

bool Value::as_bool() const {
  if (const bool* b = std::get_if<bool>(&data_)) return *b;
  throw std::invalid_argument("json: expected bool");
}

double Value::as_double() const {
  if (const double* d = std::get_if<double>(&data_)) return *d;
  throw std::invalid_argument("json: expected number");
}

const std::string& Value::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&data_)) return *s;
  throw std::invalid_argument("json: expected string");
}

const Array& Value::as_array() const {
  if (const Array* a = std::get_if<Array>(&data_)) return *a;
  throw std::invalid_argument("json: expected array");
}

const Object& Value::as_object() const {
  if (const Object* o = std::get_if<Object>(&data_)) return *o;
  throw std::invalid_argument("json: expected object");
}

const Value* Value::find(std::string_view key) const {
  const Object* members = std::get_if<Object>(&data_);
  if (members == nullptr) return nullptr;
  for (const auto& [name, value] : *members) {
    if (name == key) return &value;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  if (const Value* value = find(key)) return *value;
  throw std::invalid_argument("json: missing field '" + std::string(key) + "'");
}

void Value::set(std::string key, Value value) {
  Object* members = std::get_if<Object>(&data_);
  if (members == nullptr) {
    data_ = Object{};
    members = std::get_if<Object>(&data_);
  }
  members->emplace_back(std::move(key), std::move(value));
}

bool is_integer_in(double raw, double lo, double hi) {
  return raw >= lo && raw <= hi && raw == std::floor(raw);
}

Value parse(std::string_view text) {
  Cursor cursor(text);
  Value value = cursor.read_value();
  cursor.finish();
  return value;
}

// ---- Cursor -----------------------------------------------------------------

void Cursor::skip_whitespace() {
  while (pos_ < text_.size()) {
    char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

char Cursor::start_value() {
  if (depth_ > kMaxDepth) fail("nesting too deep", pos_);
  skip_whitespace();
  if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
  return text_[pos_];
}

void Cursor::expect(char c) {
  if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
  if (text_[pos_] != c) fail("unexpected character", pos_);
  ++pos_;
}

void Cursor::consume_literal(std::string_view literal) {
  if (text_.substr(pos_, literal.size()) != literal) fail("invalid literal", pos_);
  pos_ += literal.size();
}

Cursor::Kind Cursor::peek() {
  switch (start_value()) {
    case '{': return Kind::kObject;
    case '[': return Kind::kArray;
    case '"': return Kind::kString;
    case 't':
    case 'f': return Kind::kBool;
    case 'n': return Kind::kNull;
    default: return Kind::kNumber;
  }
}

bool Cursor::begin_object() {
  if (peek() != Kind::kObject) wrong_type("object");
  ++pos_;
  ++depth_;
  skip_whitespace();
  if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
  if (text_[pos_] != '}') return true;
  ++pos_;
  --depth_;
  return false;
}

std::string_view Cursor::key() {
  skip_whitespace();
  if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
  if (text_[pos_] != '"') fail("unexpected character", pos_);
  std::string_view name = read_string_token();
  skip_whitespace();
  expect(':');
  return name;
}

bool Cursor::next_member() {
  skip_whitespace();
  if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
  char c = text_[pos_++];
  if (c == ',') return true;
  if (c != '}') fail("expected ',' or '}'", pos_ - 1);
  --depth_;
  return false;
}

bool Cursor::begin_array() {
  if (peek() != Kind::kArray) wrong_type("array");
  ++pos_;
  ++depth_;
  skip_whitespace();
  if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
  if (text_[pos_] != ']') return true;
  ++pos_;
  --depth_;
  return false;
}

bool Cursor::next_element() {
  skip_whitespace();
  if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
  char c = text_[pos_++];
  if (c == ',') return true;
  if (c != ']') fail("expected ',' or ']'", pos_ - 1);
  --depth_;
  return false;
}

std::string_view Cursor::read_string() {
  if (peek() != Kind::kString) wrong_type("string");
  return read_string_token();
}

unsigned Cursor::parse_hex4() {
  if (pos_ + 4 > text_.size()) fail("bad \\u escape", pos_);
  unsigned code = 0;
  for (int i = 0; i < 4; ++i) {
    char c = text_[pos_++];
    code <<= 4;
    if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
    else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
    else fail("bad \\u escape", pos_ - 1);
  }
  return code;
}

std::string_view Cursor::read_string_token() {
  ++pos_;  // the opening quote
  const std::size_t start = pos_;
  // Fast path: no escapes, so the string is a view of the text itself.
  for (;;) {
    if (pos_ >= text_.size()) fail("unterminated string", pos_);
    char c = text_[pos_];
    if (c == '"') {
      ++pos_;
      return text_.substr(start, pos_ - 1 - start);
    }
    if (c == '\\') break;
    if (static_cast<unsigned char>(c) < 0x20) fail("raw control character", pos_);
    ++pos_;
  }
  scratch_.assign(text_.data() + start, pos_ - start);
  for (;;) {
    if (pos_ >= text_.size()) fail("unterminated string", pos_);
    char c = text_[pos_++];
    if (c == '"') return scratch_;
    if (static_cast<unsigned char>(c) < 0x20) fail("raw control character", pos_ - 1);
    if (c != '\\') {
      scratch_.push_back(c);
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated escape", pos_);
    char e = text_[pos_++];
    switch (e) {
      case '"': scratch_.push_back('"'); break;
      case '\\': scratch_.push_back('\\'); break;
      case '/': scratch_.push_back('/'); break;
      case 'b': scratch_.push_back('\b'); break;
      case 'f': scratch_.push_back('\f'); break;
      case 'n': scratch_.push_back('\n'); break;
      case 'r': scratch_.push_back('\r'); break;
      case 't': scratch_.push_back('\t'); break;
      case 'u': {
        unsigned code = parse_hex4();
        if (code >= 0xD800 && code <= 0xDBFF) {
          // High surrogate: a low surrogate must follow for a full code point.
          if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
              text_[pos_ + 1] == 'u') {
            pos_ += 2;
            unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("bad surrogate pair", pos_);
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else {
            fail("lone surrogate", pos_);
          }
        } else if (code >= 0xDC00 && code <= 0xDFFF) {
          fail("lone surrogate", pos_);
        }
        append_utf8(scratch_, code);
        break;
      }
      default: fail("bad escape", pos_ - 1);
    }
  }
}

double Cursor::read_number() {
  if (peek() != Kind::kNumber) wrong_type("number");
  const std::size_t start = pos_;
  auto digit_at = [&](std::size_t at) {
    return at < text_.size() && text_[at] >= '0' && text_[at] <= '9';
  };
  if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
  bool digits = false;
  while (digit_at(pos_)) {
    ++pos_;
    digits = true;
  }
  if (pos_ < text_.size() && text_[pos_] == '.') {
    ++pos_;
    while (digit_at(pos_)) ++pos_;
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
    while (digit_at(pos_)) ++pos_;
  }
  if (!digits) fail("invalid number", start);
  const char* first = text_.data() + start;
  const char* last = text_.data() + pos_;
  double value = 0.0;
  auto [end, ec] = std::from_chars(first, last, value);
  if (end != last) fail("invalid number", start);
  if (ec == std::errc::result_out_of_range) {
    // from_chars leaves the value unset past double's range; strtod's
    // overflow to +-inf and underflow to 0 are the values to keep.
    std::string token(first, last);
    value = std::strtod(token.c_str(), nullptr);
  } else if (ec != std::errc{}) {
    fail("invalid number", start);
  }
  return value;
}

bool Cursor::read_bool() {
  if (peek() != Kind::kBool) wrong_type("bool");
  if (text_[pos_] == 't') {
    consume_literal("true");
    return true;
  }
  consume_literal("false");
  return false;
}

void Cursor::read_null() {
  if (peek() != Kind::kNull) wrong_type("null");
  consume_literal("null");
}

Value Cursor::read_value() {
  switch (peek()) {
    // Containers collect their children on the cursor's scratch stacks and
    // move them out in one exactly-sized allocation, instead of growing a
    // vector per container (most are short: a slice row has five elements).
    case Kind::kObject: {
      const std::size_t first = member_stack_.size();
      if (begin_object()) {
        do {
          std::string name(key());
          Value value = read_value();
          member_stack_.emplace_back(std::move(name), std::move(value));
        } while (next_member());
      }
      Object members(std::make_move_iterator(member_stack_.begin() + first),
                     std::make_move_iterator(member_stack_.end()));
      member_stack_.erase(member_stack_.begin() + first, member_stack_.end());
      return Value(std::move(members));
    }
    case Kind::kArray: {
      const std::size_t first = element_stack_.size();
      if (begin_array()) {
        do {
          Value value = read_value();
          element_stack_.push_back(std::move(value));
        } while (next_element());
      }
      Array elements(std::make_move_iterator(element_stack_.begin() + first),
                     std::make_move_iterator(element_stack_.end()));
      element_stack_.erase(element_stack_.begin() + first, element_stack_.end());
      return Value(std::move(elements));
    }
    case Kind::kString: return Value(std::string(read_string()));
    case Kind::kBool: return Value(read_bool());
    case Kind::kNull: read_null(); return Value(nullptr);
    case Kind::kNumber: return Value(read_number());
  }
  return Value();
}

void Cursor::skip_value() {
  switch (peek()) {
    case Kind::kObject:
      if (begin_object()) {
        do {
          (void)key();
          skip_value();
        } while (next_member());
      }
      return;
    case Kind::kArray:
      if (begin_array()) {
        do {
          skip_value();
        } while (next_element());
      }
      return;
    case Kind::kString: (void)read_string(); return;
    case Kind::kBool: (void)read_bool(); return;
    case Kind::kNull: read_null(); return;
    case Kind::kNumber: (void)read_number(); return;
  }
}

void Cursor::finish() {
  skip_whitespace();
  if (pos_ != text_.size()) fail("trailing content", pos_);
}

void serialize_to(const Value& value, std::string& out) {
  if (value.is_null()) {
    out += "null";
  } else if (value.is_bool()) {
    out += value.as_bool() ? "true" : "false";
  } else if (value.is_number()) {
    write_number(value.as_double(), out);
  } else if (value.is_string()) {
    write_string(value.as_string(), out);
  } else if (value.is_array()) {
    out.push_back('[');
    bool first = true;
    for (const Value& element : value.as_array()) {
      if (!first) out.push_back(',');
      first = false;
      serialize_to(element, out);
    }
    out.push_back(']');
  } else {
    out.push_back('{');
    bool first = true;
    for (const auto& [key, member] : value.as_object()) {
      if (!first) out.push_back(',');
      first = false;
      write_string(key, out);
      out.push_back(':');
      serialize_to(member, out);
    }
    out.push_back('}');
  }
}

std::string serialize(const Value& value) {
  std::string out;
  serialize_to(value, out);
  return out;
}

}  // namespace mpss::json
