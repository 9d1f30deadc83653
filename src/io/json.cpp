#include "io/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <system_error>

#include "io/atomic_file.h"

namespace alfi::io {

Json& JsonObject::operator[](const std::string& key) {
  for (auto& [k, v] : entries_) {
    if (k == key) return v;
  }
  entries_.emplace_back(key, Json());
  return entries_.back().second;
}

const Json& JsonObject::at(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return v;
  }
  throw ParseError("missing JSON key: " + key);
}

bool JsonObject::contains(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    (void)v;
    if (k == key) return true;
  }
  return false;
}

bool Json::as_bool() const {
  ALFI_CHECK(is_bool(), "JSON value is not a bool");
  return bool_;
}

double Json::as_number() const {
  ALFI_CHECK(is_number(), "JSON value is not a number");
  return number_;
}

long long Json::as_int() const {
  ALFI_CHECK(is_number(), "JSON value is not a number");
  // Only integers a long long holds: rounding a fraction, or converting
  // Inf, NaN or a value past the range, would read a number the file
  // does not say (or be undefined).
  if (!std::isfinite(number_) || number_ != std::trunc(number_) ||
      number_ < -0x1p63 || number_ >= 0x1p63) {
    throw ParseError("JSON number " + dump() + " is not an integer in the 64-bit range");
  }
  return static_cast<long long>(number_);
}

const std::string& Json::as_string() const {
  ALFI_CHECK(is_string(), "JSON value is not a string");
  return string_;
}

const JsonArray& Json::as_array() const {
  ALFI_CHECK(is_array(), "JSON value is not an array");
  return array_;
}

JsonArray& Json::as_array() {
  ALFI_CHECK(is_array(), "JSON value is not an array");
  return array_;
}

const JsonObject& Json::as_object() const {
  ALFI_CHECK(is_object(), "JSON value is not an object");
  return object_;
}

JsonObject& Json::as_object() {
  ALFI_CHECK(is_object(), "JSON value is not an object");
  return object_;
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) *this = Json::object();
  ALFI_CHECK(is_object(), "JSON operator[] on non-object");
  return object_[key];
}

const Json& Json::at(const std::string& key) const { return as_object().at(key); }

bool Json::contains(const std::string& key) const {
  return is_object() && object_.contains(key);
}

void Json::push_back(Json value) {
  if (is_null()) *this = Json::array();
  ALFI_CHECK(is_array(), "JSON push_back on non-array");
  array_.push_back(std::move(value));
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    // JSON has no Inf/NaN literal; campaigns record these as null and
    // report them through the DUE channel instead.
    out += "null";
    return;
  }
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    out += std::to_string(static_cast<long long>(d));
    return;
  }
  // Shortest round-trip formatting: parsing the digits back yields the
  // exact same double, and to_chars is locale-independent, so emitted
  // files are byte-stable no matter the process locale ("%g" was
  // neither: it truncates to a fixed precision and honors LC_NUMERIC's
  // decimal separator).  Past 2^53 it takes an exponent: the parser
  // refuses integer text it cannot hold exactly.
  char buf[40];
  const auto result = std::fabs(d) >= 0x1p53
                          ? std::to_chars(buf, buf + sizeof buf, d, std::chars_format::scientific)
                          : std::to_chars(buf, buf + sizeof buf, d);
  ALFI_CHECK(result.ec == std::errc(), "json: number formatting failed");
  out.append(buf, result.ptr);
}

void append_indent(std::string& out, int indent, int depth) {
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (type_) {
    case JsonType::kNull: out += "null"; break;
    case JsonType::kBool: out += bool_ ? "true" : "false"; break;
    case JsonType::kNumber: append_number(out, number_); break;
    case JsonType::kString: append_escaped(out, string_); break;
    case JsonType::kArray: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += indent >= 0 ? ", " : ",";
        if (indent >= 0 && array_[i].is_object()) append_indent(out, indent, depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      out += ']';
      break;
    }
    case JsonType::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) out += ',';
        first = false;
        if (indent >= 0) append_indent(out, indent, depth + 1);
        append_escaped(out, k);
        out += indent >= 0 ? ": " : ":";
        v.dump_to(out, indent, depth + 1);
      }
      if (indent >= 0 && !object_.empty()) append_indent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw ParseError("JSON at offset " + std::to_string(pos_) + ": " + why);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) fail(std::string("expected '") + c + "'");
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("bad literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_whitespace();
      const std::string key = parse_string();
      skip_whitespace();
      expect(':');
      obj[key] = parse_value();
      skip_whitespace();
      const char next = take();
      if (next == '}') return obj;
      if (next != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_whitespace();
      const char next = take();
      if (next == ']') return arr;
      if (next != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') return out;
      if (c == '\\') {
        const char esc = take();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = take();
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape");
            }
            // UTF-8 encode the BMP code point (surrogate pairs are not
            // needed for the ASCII-ish metadata this library produces).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("bad escape character");
        }
      } else {
        out += c;
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token{text_.substr(start, pos_ - start)};
    // from_chars is locale-independent and parses shortest-round-trip
    // output back to the exact same double (stod honors LC_NUMERIC, so
    // "0.1" fails to parse fully under a ","-decimal locale).  It
    // rejects a leading '+', which this parser historically accepted.
    const char* first = token.c_str();
    const char* last = first + token.size();
    if (first != last && *first == '+') ++first;
    if (token.find_first_of(".eE") == std::string::npos) {
      // Integer text must be held exactly: 2^53 + 1 would read as 2^53.
      long long integer = 0;
      const auto exact = std::from_chars(first, last, integer);
      if (exact.ec == std::errc::result_out_of_range ||
          (exact.ec == std::errc() && (integer > Json::kMaxExactInteger ||
                                       integer < -Json::kMaxExactInteger))) {
        fail("integer " + token + " is past 2^53, which a number cannot hold exactly");
      }
    }
    double value = 0.0;
    const auto result = std::from_chars(first, last, value);
    if (result.ec != std::errc() || result.ptr != last) {
      fail("bad number: " + token);
    }
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

Json read_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open JSON file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Json::parse(buffer.str());
}

void write_json_file(const std::string& path, const Json& value) {
  write_file_atomic(path, value.dump(2) + '\n');
}

}  // namespace alfi::io
