#include "io/yaml.h"

#include <fstream>
#include <sstream>
#include <vector>

#include "io/atomic_file.h"
#include "util/string_util.h"

namespace alfi::io {

namespace {

struct Line {
  int indent = 0;
  std::string content;  // without indentation or comment
  std::size_t number = 0;
};

[[noreturn]] void fail(std::size_t line, const std::string& why) {
  throw ParseError("YAML line " + std::to_string(line) + ": " + why);
}

/// Strips a trailing comment that is not inside quotes.
std::string strip_comment(std::string_view text) {
  bool in_single = false;
  bool in_double = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\'' && !in_double) in_single = !in_single;
    else if (c == '"' && !in_single) in_double = !in_double;
    else if (c == '#' && !in_single && !in_double &&
             (i == 0 || text[i - 1] == ' ' || text[i - 1] == '\t')) {
      return std::string(text.substr(0, i));
    }
  }
  return std::string(text);
}

std::vector<Line> tokenize(std::string_view text) {
  std::vector<Line> lines;
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    ++line_no;
    std::string_view raw = text.substr(start, end - start);
    start = end + 1;
    if (end == text.size() && raw.empty() && start > text.size()) break;

    const std::string no_comment = strip_comment(raw);
    const std::string_view trimmed = trim(no_comment);
    if (trimmed.empty() || trimmed == "---") continue;
    int indent = 0;
    for (const char c : no_comment) {
      if (c == ' ') ++indent;
      else if (c == '\t') fail(line_no, "tabs are not allowed for indentation");
      else break;
    }
    lines.push_back(Line{indent, std::string(trimmed), line_no});
    if (end == text.size()) break;
  }
  return lines;
}

Json parse_scalar(std::string_view token, std::size_t line) {
  const std::string_view t = trim(token);
  if (t.empty() || t == "~" || t == "null") return Json(nullptr);
  if (t.size() >= 2 &&
      ((t.front() == '"' && t.back() == '"') ||
       (t.front() == '\'' && t.back() == '\''))) {
    return Json(std::string(t.substr(1, t.size() - 2)));
  }
  if (t.front() == '[') {
    if (t.back() != ']') fail(line, "unterminated flow sequence");
    Json arr = Json::array();
    const std::string_view inner = trim(t.substr(1, t.size() - 2));
    if (inner.empty()) return arr;
    for (const std::string& item : split(inner, ',')) {
      arr.push_back(parse_scalar(item, line));
    }
    return arr;
  }
  if (const auto b = parse_bool(t)) {
    // Bare 1/0 should stay numeric; only word forms become booleans.
    if (t != "1" && t != "0") return Json(*b);
  }
  // Integer text must be held exactly: 2^53 + 1 would read as 2^53.
  const std::string_view digits = t.front() == '-' || t.front() == '+' ? t.substr(1) : t;
  if (!digits.empty() && digits.find_first_not_of("0123456789") == std::string_view::npos) {
    const auto i = parse_int(t);
    if (!i || *i > Json::kMaxExactInteger || *i < -Json::kMaxExactInteger) {
      fail(line, "integer " + std::string(t) + " is past 2^53, which a number cannot hold exactly");
    }
    return Json(static_cast<double>(*i));
  }
  if (const auto d = parse_double(t)) return Json(*d);
  return Json(std::string(t));
}

class BlockParser {
 public:
  explicit BlockParser(std::vector<Line> lines) : lines_(std::move(lines)) {}

  Json parse() {
    if (lines_.empty()) return Json::object();
    Json root = parse_block(0, lines_[0].indent);
    if (pos_ != lines_.size()) fail(lines_[pos_].number, "inconsistent indentation");
    return root;
  }

 private:
  /// Parses the block starting at lines_[pos_] whose entries all share
  /// `indent`.  A block is either a mapping or a sequence.
  Json parse_block(std::size_t, int indent) {
    const bool is_sequence = starts_with(lines_[pos_].content, "- ") ||
                             lines_[pos_].content == "-";
    return is_sequence ? parse_sequence(indent) : parse_mapping(indent);
  }

  Json parse_mapping(int indent) {
    Json obj = Json::object();
    while (pos_ < lines_.size() && lines_[pos_].indent == indent) {
      const Line& line = lines_[pos_];
      if (starts_with(line.content, "- ") || line.content == "-") {
        fail(line.number, "sequence item inside mapping block");
      }
      const std::size_t colon = find_key_colon(line.content, line.number);
      const std::string key{trim(std::string_view(line.content).substr(0, colon))};
      const std::string_view rest =
          trim(std::string_view(line.content).substr(colon + 1));
      ++pos_;
      if (!rest.empty()) {
        obj[key] = parse_scalar(rest, line.number);
      } else if (pos_ < lines_.size() && lines_[pos_].indent > indent) {
        obj[key] = parse_block(pos_, lines_[pos_].indent);
      } else {
        obj[key] = Json(nullptr);
      }
    }
    if (pos_ < lines_.size() && lines_[pos_].indent > indent) {
      fail(lines_[pos_].number, "unexpected deeper indentation");
    }
    return obj;
  }

  Json parse_sequence(int indent) {
    Json arr = Json::array();
    while (pos_ < lines_.size() && lines_[pos_].indent == indent &&
           (starts_with(lines_[pos_].content, "- ") || lines_[pos_].content == "-")) {
      const Line& line = lines_[pos_];
      std::string_view rest = line.content == "-"
                                  ? std::string_view{}
                                  : trim(std::string_view(line.content).substr(2));
      if (rest.empty()) {
        ++pos_;
        if (pos_ < lines_.size() && lines_[pos_].indent > indent) {
          arr.push_back(parse_block(pos_, lines_[pos_].indent));
        } else {
          arr.push_back(Json(nullptr));
        }
        continue;
      }
      // "- key: value" starts a nested inline mapping item.
      const std::size_t colon = try_find_key_colon(rest);
      if (colon != std::string::npos) {
        // Rewrite the current line as a mapping entry indented two extra
        // columns and re-parse as a mapping block.
        lines_[pos_].content = std::string(rest);
        lines_[pos_].indent = indent + 2;
        arr.push_back(parse_mapping(indent + 2));
      } else {
        ++pos_;
        arr.push_back(parse_scalar(rest, line.number));
      }
    }
    return arr;
  }

  static std::size_t try_find_key_colon(std::string_view text) {
    bool in_single = false, in_double = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
      const char c = text[i];
      if (c == '\'' && !in_double) in_single = !in_single;
      else if (c == '"' && !in_single) in_double = !in_double;
      else if (c == ':' && !in_single && !in_double &&
               (i + 1 == text.size() || text[i + 1] == ' ')) {
        return i;
      }
    }
    return std::string::npos;
  }

  std::size_t find_key_colon(std::string_view text, std::size_t line) {
    const std::size_t pos = try_find_key_colon(text);
    if (pos == std::string::npos) fail(line, "expected 'key: value'");
    return pos;
  }

  std::vector<Line> lines_;
  std::size_t pos_ = 0;
};

void dump_yaml_to(const Json& value, std::string& out, int depth) {
  const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
  switch (value.type()) {
    case JsonType::kObject:
      for (const auto& [k, v] : value.as_object()) {
        out += pad + k + ":";
        if (v.is_object() && !v.as_object().empty()) {
          out += '\n';
          dump_yaml_to(v, out, depth + 1);
        } else if (v.is_array() && !v.as_array().empty() &&
                   (v.as_array()[0].is_object() || v.as_array()[0].is_array())) {
          out += '\n';
          dump_yaml_to(v, out, depth + 1);
        } else {
          out += ' ';
          dump_yaml_to(v, out, 0);
          out += '\n';
        }
      }
      break;
    case JsonType::kArray: {
      const auto& arr = value.as_array();
      const bool scalars = [&] {
        for (const auto& v : arr) {
          if (v.is_object() || v.is_array()) return false;
        }
        return true;
      }();
      if (scalars && depth == 0) {
        // inline flow style for scalar lists in value position
        out += '[';
        for (std::size_t i = 0; i < arr.size(); ++i) {
          if (i > 0) out += ", ";
          dump_yaml_to(arr[i], out, 0);
        }
        out += ']';
      } else {
        for (const auto& v : arr) {
          if (v.is_object()) {
            std::string nested;
            dump_yaml_to(v, nested, depth + 1);
            // replace first entry's indentation with "- "
            const std::string deep_pad(static_cast<std::size_t>(depth + 1) * 2, ' ');
            nested.replace(0, deep_pad.size(), pad + "- ");
            out += nested;
          } else {
            out += pad + "- ";
            dump_yaml_to(v, out, 0);
            out += '\n';
          }
        }
      }
      break;
    }
    case JsonType::kString: {
      const std::string& s = value.as_string();
      const bool needs_quotes =
          s.empty() || parse_int(s) || parse_double(s) || parse_bool(s) ||
          s.find_first_of(":#[]{},\"'\n") != std::string::npos ||
          s != std::string(trim(s));
      if (needs_quotes) {
        out += '"';
        for (const char c : s) {
          if (c == '"' || c == '\\') out += '\\';
          out += c;
        }
        out += '"';
      } else {
        out += s;
      }
      break;
    }
    default:
      out += value.dump();
  }
}

}  // namespace

Json parse_yaml(std::string_view text) {
  return BlockParser(tokenize(text)).parse();
}

Json read_yaml_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open YAML file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_yaml(buffer.str());
}

std::string dump_yaml(const Json& value) {
  std::string out;
  dump_yaml_to(value, out, 0);
  return out;
}

void write_yaml_file(const std::string& path, const Json& value) {
  write_file_atomic(path, dump_yaml(value));
}

}  // namespace alfi::io
