#include "json_lite.hpp"

#include <cctype>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace perfbench {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue document() {
    JsonValue v = value(0);
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(pos_));
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool consume(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  JsonValue value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end");
    JsonValue v;
    const char c = s_[pos_];
    if (c == '{') {
      v.kind_ = JsonValue::Kind::kObject;
      ++pos_;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return v;
      }
      while (true) {
        skip_ws();
        if (pos_ >= s_.size() || s_[pos_] != '"') fail("expected key");
        std::string key = string_literal();
        skip_ws();
        if (pos_ >= s_.size() || s_[pos_] != ':') fail("expected ':'");
        ++pos_;
        v.object_[key] = value(depth + 1);
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == '}') {
          ++pos_;
          return v;
        }
        fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      v.kind_ = JsonValue::Kind::kArray;
      ++pos_;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return v;
      }
      while (true) {
        v.array_.push_back(value(depth + 1));
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == ']') {
          ++pos_;
          return v;
        }
        fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      v.kind_ = JsonValue::Kind::kString;
      v.string_ = string_literal();
      return v;
    }
    if (consume("true")) {
      v.kind_ = JsonValue::Kind::kBool;
      v.bool_ = true;
      return v;
    }
    if (consume("false")) {
      v.kind_ = JsonValue::Kind::kBool;
      return v;
    }
    if (consume("null")) return v;
    // Number: strtod accepts a superset of JSON numbers, so check the
    // leading character first (no "inf", "nan", hex or leading '+').
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      const char* begin = s_.c_str() + pos_;
      char* end = nullptr;
      v.number_ = std::strtod(begin, &end);
      if (end == begin) fail("bad number");
      const std::string lexeme(begin, static_cast<const char*>(end));
      if (lexeme.find_first_of("xXnNiI") != std::string::npos) {
        fail("bad number");
      }
      v.kind_ = JsonValue::Kind::kNumber;
      pos_ += static_cast<std::size_t>(end - begin);
      return v;
    }
    fail("unexpected character");
  }

  std::string string_literal() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("short \\u escape");
          const unsigned long cp =
              std::strtoul(s_.substr(pos_, 4).c_str(), nullptr, 16);
          pos_ += 4;
          // The documents checked here are ASCII; anything else is kept
          // as a placeholder rather than decoded.
          out += cp < 0x80 ? static_cast<char>(cp) : '?';
          break;
        }
        default: fail("bad escape");
      }
    }
    fail("unterminated string");
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

JsonValue JsonValue::parse(const std::string& text) {
  return JsonParser(text).document();
}

double JsonValue::number() const {
  if (kind_ != Kind::kNumber) throw std::runtime_error("json: not a number");
  return number_;
}
bool JsonValue::boolean() const {
  if (kind_ != Kind::kBool) throw std::runtime_error("json: not a bool");
  return bool_;
}
const std::string& JsonValue::string() const {
  if (kind_ != Kind::kString) throw std::runtime_error("json: not a string");
  return string_;
}
const std::vector<JsonValue>& JsonValue::array() const {
  if (kind_ != Kind::kArray) throw std::runtime_error("json: not an array");
  return array_;
}
const JsonValue& JsonValue::at(const std::string& key) const {
  if (kind_ != Kind::kObject) throw std::runtime_error("json: not an object");
  const auto it = object_.find(key);
  if (it == object_.end()) throw std::runtime_error("json: no key " + key);
  return it->second;
}
bool JsonValue::has(const std::string& key) const {
  return kind_ == Kind::kObject && object_.count(key) != 0;
}

bool prometheus_value(const std::string& text, const std::string& name,
                      double& value) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.size() <= name.size() || line.compare(0, name.size(), name) != 0 ||
        line[name.size()] != ' ') {
      continue;
    }
    const char* begin = line.c_str() + name.size() + 1;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) return false;
    value = v;
    return true;
  }
  return false;
}

std::size_t prometheus_samples(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') ++n;
  }
  return n;
}

}  // namespace perfbench
