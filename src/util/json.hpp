// Minimal JSON value + recursive-descent parser.
//
// Exists for the ScenarioSpec surface (sim/scenario.hpp): scenario files
// and fault plans round-trip through JSON, and the repo deliberately takes
// no third-party dependency for it.  Scope is the JSON the simulator
// itself emits — objects, arrays, strings with the standard escapes,
// doubles, bools, null — not a general-purpose library: numbers parse via
// strtod (no bignum), \uXXXX escapes decode to UTF-8, and object keys keep
// insertion order so emitted files diff stably.  Hostile input is rejected
// by name, never a crash: nesting deeper than kMaxDepth containers (the
// parser recurses once per level) and duplicate object keys (which would
// otherwise silently keep one of the two values) both throw.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace fsc::json {

/// Deepest container nesting parse() accepts.  A scenario file needs 4.
inline constexpr std::size_t kMaxDepth = 64;

/// One JSON value (tree-owning).  Accessors throw std::invalid_argument on
/// a type mismatch so scenario-file errors surface with a message instead
/// of UB.
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;

  static Value null() { return Value(); }
  static Value boolean(bool b);
  static Value number(double d);
  static Value string(std::string s);
  static Value array();
  static Value object();
  /// An object of `members` in their order.  Throws std::invalid_argument
  /// naming a key that appears twice.
  static Value object(std::vector<std::pair<std::string, Value>> members);

  /// Parse `text` as one JSON document (trailing whitespace allowed,
  /// trailing garbage rejected).  Throws std::invalid_argument on
  /// malformed input (with the byte offset), on nesting deeper than
  /// kMaxDepth and on a duplicate object key (naming the key).
  static Value parse(const std::string& text);

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool is_bool() const noexcept { return type_ == Type::kBool; }
  bool is_number() const noexcept { return type_ == Type::kNumber; }
  bool is_string() const noexcept { return type_ == Type::kString; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_object() const noexcept { return type_ == Type::kObject; }

  bool as_bool() const;
  double as_number() const;
  /// The number as a finite double; throws on NaN or infinity too.
  double as_finite() const;
  /// The number as a std::size_t; throws unless it is a non-negative
  /// integer that std::size_t holds exactly.  The range is checked before
  /// the cast, which would be undefined past it (1e300).
  std::size_t as_index() const;
  const std::string& as_string() const;

  /// Array element access; throws std::out_of_range on a bad index.
  const Value& at(std::size_t index) const;
  /// Object member access; throws std::out_of_range when the key is absent.
  const Value& at(const std::string& key) const;
  /// Object member lookup; null when absent (or when this is not an
  /// object) so optional scenario keys read as one-liners.
  const Value* find(const std::string& key) const noexcept;
  bool contains(const std::string& key) const noexcept {
    return find(key) != nullptr;
  }

  /// Array / object element count (0 for scalars).
  std::size_t size() const noexcept;

  const std::vector<Value>& elements() const { return elements_; }
  const std::vector<std::pair<std::string, Value>>& members() const {
    return members_;
  }

  /// Mutation (builder style, for emitters that want a tree).
  void push_back(Value v);
  void set(std::string key, Value v);

  /// Serialize back to JSON text.  `indent` > 0 pretty-prints with that
  /// many spaces per level; 0 emits the compact one-line form.
  std::string dump(int indent = 0) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> elements_;
  std::vector<std::pair<std::string, Value>> members_;
};

/// JSON-escape `s` (quotes not included).
std::string escape(const std::string& s);

}  // namespace fsc::json
