// A minimal JSON reader used only to check responses.  It shares no code
// with the program's own json/ module, so a fault in the program's
// encoder cannot be masked by a matching fault in the decoder that reads
// the answer back.
#ifndef E2EBENCH_MINIJSON_H_
#define E2EBENCH_MINIJSON_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace e2e::mj {

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;  ///< string contents, or the raw text of a number
  std::vector<Value> arr;
  std::vector<std::pair<std::string, Value>> obj;

  /// Member lookup (nullptr when absent or not an object).
  const Value* Get(const std::string& key) const;
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }
};

/// Parses one JSON document; false (with `error` set) on malformed input.
bool Parse(const std::string& text, Value* out, std::string* error);

/// Appends `s` as a quoted JSON string.
void AppendQuoted(std::string* out, const std::string& s);

}  // namespace e2e::mj

#endif  // E2EBENCH_MINIJSON_H_
