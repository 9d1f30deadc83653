// Minimal JSON document model, parser and emitter.
//
// Object-detection results, COCO-style ground-truth annotations and
// campaign metadata are exchanged as JSON (paper §V.B / §V.F.2).  The
// model is a single variant-like Value type; insertion order of object
// keys is preserved so emitted files diff cleanly between runs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.h"

namespace alfi::io {

class Json;

using JsonArray = std::vector<Json>;

/// Ordered key/value object: keys keep insertion order for stable output.
class JsonObject {
 public:
  Json& operator[](const std::string& key);
  const Json& at(const std::string& key) const;
  bool contains(const std::string& key) const;
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  auto begin() { return entries_.begin(); }
  auto end() { return entries_.end(); }
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

 private:
  std::vector<std::pair<std::string, Json>> entries_;
};

enum class JsonType { kNull, kBool, kNumber, kString, kArray, kObject };

/// A JSON value.  Numbers are stored as double (sufficient for all the
/// ids, scores and box coordinates this library exchanges).
class Json {
 public:
  Json() : type_(JsonType::kNull) {}
  Json(std::nullptr_t) : type_(JsonType::kNull) {}
  Json(bool b) : type_(JsonType::kBool), bool_(b) {}
  Json(double d) : type_(JsonType::kNumber), number_(d) {}
  Json(int i) : type_(JsonType::kNumber), number_(i) {}
  Json(long i) : type_(JsonType::kNumber), number_(static_cast<double>(i)) {}
  Json(long long i) : type_(JsonType::kNumber), number_(static_cast<double>(i)) {}
  Json(unsigned long long i) : type_(JsonType::kNumber), number_(static_cast<double>(i)) {}
  Json(std::size_t i) : type_(JsonType::kNumber), number_(static_cast<double>(i)) {}
  Json(const char* s) : type_(JsonType::kString), string_(s) {}
  Json(std::string s) : type_(JsonType::kString), string_(std::move(s)) {}
  Json(JsonArray a) : type_(JsonType::kArray), array_(std::move(a)) {}
  Json(JsonObject o) : type_(JsonType::kObject), object_(std::move(o)) {}

  /// The largest magnitude an integer may have and still be held
  /// exactly (2^53): Json::parse and the YAML loader refuse integer text
  /// past it rather than round it.
  static constexpr long long kMaxExactInteger = 1LL << 53;

  static Json array() { return Json(JsonArray{}); }
  static Json object() { return Json(JsonObject{}); }

  JsonType type() const { return type_; }
  bool is_null() const { return type_ == JsonType::kNull; }
  bool is_bool() const { return type_ == JsonType::kBool; }
  bool is_number() const { return type_ == JsonType::kNumber; }
  bool is_string() const { return type_ == JsonType::kString; }
  bool is_array() const { return type_ == JsonType::kArray; }
  bool is_object() const { return type_ == JsonType::kObject; }

  bool as_bool() const;
  double as_number() const;
  /// The number as an integer; ParseError unless it is finite, integral
  /// and within long long's range.
  long long as_int() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  JsonArray& as_array();
  const JsonObject& as_object() const;
  JsonObject& as_object();

  /// Object access; creates the value when mutable, throws when const
  /// and missing.
  Json& operator[](const std::string& key);
  const Json& at(const std::string& key) const;
  bool contains(const std::string& key) const;

  /// Array append.
  void push_back(Json value);

  /// Serializes; indent < 0 means compact single-line output.
  std::string dump(int indent = -1) const;

  /// Parses a complete JSON document; throws ParseError on any junk,
  /// including trailing characters.
  static Json parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  JsonType type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  JsonArray array_;
  JsonObject object_;
};

/// Reads and parses a JSON file; throws IoError / ParseError.
Json read_json_file(const std::string& path);

/// Writes `value` to `path` with 2-space indentation.
void write_json_file(const std::string& path, const Json& value);

}  // namespace alfi::io
