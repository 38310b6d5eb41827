#include "minijson.h"

#include <cstdlib>

namespace e2e::mj {

const Value* Value::Get(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  bool Document(Value* out, std::string* error) {
    Skip();
    if (!Parse(out, 0)) {
      *error = error_.empty() ? "malformed JSON" : error_;
      return false;
    }
    Skip();
    if (pos_ != s_.size()) {
      *error = "trailing bytes after JSON value";
      return false;
    }
    return true;
  }

 private:
  void Skip() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Fail(const std::string& what) {
    if (error_.empty()) error_ = what + " at byte " + std::to_string(pos_);
    return false;
  }

  bool Literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return Fail("bad literal");
    pos_ += w.size();
    return true;
  }

  bool Parse(Value* out, int depth) {
    if (depth > 64) return Fail("nesting too deep");
    if (pos_ >= s_.size()) return Fail("unexpected end");
    const char c = s_[pos_];
    if (c == '{') return Object(out, depth);
    if (c == '[') return Array(out, depth);
    if (c == '"') {
      out->type = Value::Type::kString;
      return String(&out->str);
    }
    if (c == 't') {
      out->type = Value::Type::kBool;
      out->b = true;
      return Literal("true");
    }
    if (c == 'f') {
      out->type = Value::Type::kBool;
      out->b = false;
      return Literal("false");
    }
    if (c == 'n') {
      out->type = Value::Type::kNull;
      return Literal("null");
    }
    return Number(out);
  }

  bool Number(Value* out) {
    const size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '-' || c == '+') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return Fail("expected a value");
    out->type = Value::Type::kNumber;
    out->str = s_.substr(start, pos_ - start);
    char* end = nullptr;
    out->num = std::strtod(out->str.c_str(), &end);
    if (end != out->str.c_str() + out->str.size()) return Fail("bad number");
    return true;
  }

  static void AppendUtf8(std::string* out, unsigned cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool String(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char e = s_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return Fail("short \\u escape");
          const unsigned cp = static_cast<unsigned>(
              std::strtoul(s_.substr(pos_, 4).c_str(), nullptr, 16));
          pos_ += 4;
          AppendUtf8(out, cp);
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool Array(Value* out, int depth) {
    out->type = Value::Type::kArray;
    ++pos_;
    Skip();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Skip();
      out->arr.emplace_back();
      if (!Parse(&out->arr.back(), depth + 1)) return false;
      Skip();
      if (pos_ >= s_.size()) return Fail("unterminated array");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected , or ]");
    }
  }

  bool Object(Value* out, int depth) {
    out->type = Value::Type::kObject;
    ++pos_;
    Skip();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      Skip();
      if (pos_ >= s_.size() || s_[pos_] != '"') return Fail("expected key");
      std::string key;
      if (!String(&key)) return false;
      Skip();
      if (pos_ >= s_.size() || s_[pos_] != ':') return Fail("expected :");
      ++pos_;
      Skip();
      out->obj.emplace_back(std::move(key), Value());
      if (!Parse(&out->obj.back().second, depth + 1)) return false;
      Skip();
      if (pos_ >= s_.size()) return Fail("unterminated object");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected , or }");
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool Parse(const std::string& text, Value* out, std::string* error) {
  *out = Value();
  return Parser(text).Document(out, error);
}

void AppendQuoted(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default: out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace e2e::mj
