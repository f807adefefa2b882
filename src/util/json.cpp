#include "util/json.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace fsc::json {

namespace {

using Members = std::vector<std::pair<std::string, Value>>;

/// A key that appears more than once in `members` (the smallest such, by
/// byte order), or null.  Sorts pointers to the keys: O(n log n), so a
/// wide object costs no quadratic scan.
const std::string* first_duplicate_key(const Members& members) {
  if (members.size() < 2) return nullptr;
  std::vector<const std::string*> keys;
  keys.reserve(members.size());
  for (const auto& member : members) keys.push_back(&member.first);
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  for (std::size_t i = 1; i < keys.size(); ++i) {
    if (*keys[i] == *keys[i - 1]) return keys[i];
  }
  return nullptr;
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    skip_ws();
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json: " + what + " at byte " +
                                std::to_string(pos_));
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  void expect(char c) {
    if (next() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  void expect_word(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        fail(std::string("expected '") + word + "'");
      }
      ++pos_;
    }
  }

  Value parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value::string(parse_string());
      case 't': expect_word("true"); return Value::boolean(true);
      case 'f': expect_word("false"); return Value::boolean(false);
      case 'n': expect_word("null"); return Value::null();
      default: return parse_number();
    }
  }

  /// Enter one container level; parse_value recurses once per level, so
  /// the limit bounds the stack a hostile document can take.
  void descend() {
    if (++depth_ > kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    }
  }

  Value parse_object() {
    expect('{');
    descend();
    Members members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return Value::object();
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = next();
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
    --depth_;
    return Value::object(std::move(members));  // throws on a duplicate key
  }

  Value parse_array() {
    expect('[');
    descend();
    Value out = Value::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return out;
    }
    while (true) {
      skip_ws();
      out.push_back(parse_value());
      skip_ws();
      const char c = next();
      if (c == ']') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
    --depth_;
    return out;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = next();
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = next();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(out); break;
        default: --pos_; fail("unknown escape sequence");
      }
    }
  }

  void append_unicode_escape(std::string& out) {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = next();
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        --pos_;
        fail("bad \\u escape");
      }
    }
    // Basic-multilingual-plane code point to UTF-8 (surrogate pairs are
    // out of scope for scenario files; a lone surrogate encodes as-is).
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') {
      pos_ = start;
      fail("malformed number '" + token + "'");
    }
    return Value::number(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< containers open at pos_
};

void dump_value(const Value& v, std::ostringstream& os, int indent, int depth) {
  const auto newline_pad = [&](int d) {
    if (indent > 0) {
      os << "\n" << std::string(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  switch (v.type()) {
    case Value::Type::kNull: os << "null"; return;
    case Value::Type::kBool: os << (v.as_bool() ? "true" : "false"); return;
    case Value::Type::kNumber: {
      const double d = v.as_number();
      // Integral doubles print without an exponent/decimal so seeds and
      // slot indices survive a round-trip textually intact.
      if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", d);
        os << buf;
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", d);
        os << buf;
      }
      return;
    }
    case Value::Type::kString: os << '"' << escape(v.as_string()) << '"'; return;
    case Value::Type::kArray: {
      if (v.elements().empty()) {
        os << "[]";
        return;
      }
      os << "[";
      for (std::size_t i = 0; i < v.elements().size(); ++i) {
        newline_pad(depth + 1);
        dump_value(v.elements()[i], os, indent, depth + 1);
        if (i + 1 < v.elements().size()) os << (indent > 0 ? "," : ", ");
      }
      newline_pad(depth);
      os << "]";
      return;
    }
    case Value::Type::kObject: {
      if (v.members().empty()) {
        os << "{}";
        return;
      }
      os << "{";
      for (std::size_t i = 0; i < v.members().size(); ++i) {
        newline_pad(depth + 1);
        os << '"' << escape(v.members()[i].first) << "\": ";
        dump_value(v.members()[i].second, os, indent, depth + 1);
        if (i + 1 < v.members().size()) os << (indent > 0 ? "," : ", ");
      }
      newline_pad(depth);
      os << "}";
      return;
    }
  }
}

}  // namespace

Value Value::boolean(bool b) {
  Value v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

Value Value::number(double d) {
  Value v;
  v.type_ = Type::kNumber;
  v.number_ = d;
  return v;
}

Value Value::string(std::string s) {
  Value v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::array() {
  Value v;
  v.type_ = Type::kArray;
  return v;
}

Value Value::object() {
  Value v;
  v.type_ = Type::kObject;
  return v;
}

Value Value::object(Members members) {
  if (const std::string* key = first_duplicate_key(members)) {
    throw std::invalid_argument("json: duplicate key '" + *key + "'");
  }
  Value v = object();
  v.members_ = std::move(members);
  return v;
}

Value Value::parse(const std::string& text) {
  return Parser(text).parse_document();
}

bool Value::as_bool() const {
  if (type_ != Type::kBool) throw std::invalid_argument("json: not a bool");
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::kNumber) throw std::invalid_argument("json: not a number");
  return number_;
}

double Value::as_finite() const {
  const double d = as_number();
  if (!std::isfinite(d)) throw std::invalid_argument("json: not a finite number");
  return d;
}

std::size_t Value::as_index() const {
  const double d = as_number();
  // 2^digits is exact in a double; NaN fails the first comparison.
  const double limit =
      std::ldexp(1.0, std::numeric_limits<std::size_t>::digits);
  if (!(d >= 0.0 && d < limit && std::trunc(d) == d)) {
    throw std::invalid_argument("json: not a non-negative integer index");
  }
  return static_cast<std::size_t>(d);
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) throw std::invalid_argument("json: not a string");
  return string_;
}

const Value& Value::at(std::size_t index) const {
  if (type_ != Type::kArray) throw std::invalid_argument("json: not an array");
  if (index >= elements_.size()) {
    throw std::out_of_range("json: array index " + std::to_string(index) +
                            " out of range");
  }
  return elements_[index];
}

const Value& Value::at(const std::string& key) const {
  const Value* v = find(key);
  if (v == nullptr) throw std::out_of_range("json: missing key '" + key + "'");
  return *v;
}

const Value* Value::find(const std::string& key) const noexcept {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::size_t Value::size() const noexcept {
  if (type_ == Type::kArray) return elements_.size();
  if (type_ == Type::kObject) return members_.size();
  return 0;
}

void Value::push_back(Value v) {
  if (type_ != Type::kArray) throw std::invalid_argument("json: not an array");
  elements_.push_back(std::move(v));
}

void Value::set(std::string key, Value v) {
  if (type_ != Type::kObject) throw std::invalid_argument("json: not an object");
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(v));
}

std::string Value::dump(int indent) const {
  std::ostringstream os;
  dump_value(*this, os, indent, 0);
  return os.str();
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
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
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace fsc::json
