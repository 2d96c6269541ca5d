#ifndef SHARDCHAIN_BENCH_EMIT_JSON_H_
#define SHARDCHAIN_BENCH_EMIT_JSON_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace shardchain::bench {

/// \brief Minimal JSON document builder for machine-readable benchmark
/// artifacts (BENCH_*.json). Supports exactly what the harnesses emit:
/// objects with ordered keys, arrays, strings, numbers, booleans, and
/// null (a value not measured).
class Json {
 public:
  static Json Object() { return Json(Kind::kObject); }
  static Json Array() { return Json(Kind::kArray); }
  static Json Str(std::string s) {
    Json j(Kind::kString);
    j.str_ = std::move(s);
    return j;
  }
  static Json Num(double v) {
    Json j(Kind::kNumber);
    j.num_ = v;
    return j;
  }
  static Json Int(int64_t v) {
    Json j(Kind::kInt);
    j.int_ = v;
    return j;
  }
  static Json Bool(bool b) {
    Json j(Kind::kBool);
    j.bool_ = b;
    return j;
  }
  static Json Null() { return Json(Kind::kNull); }

  /// Object member (insertion order preserved).
  Json& Set(const std::string& key, Json value) {
    members_.emplace_back(key, std::move(value));
    return *this;
  }
  /// Array element.
  Json& Push(Json value) {
    elements_.push_back(std::move(value));
    return *this;
  }

  std::string Dump(int indent = 0) const {
    std::string out;
    Write(&out, indent);
    return out;
  }

 private:
  enum class Kind { kObject, kArray, kString, kNumber, kInt, kBool, kNull };
  explicit Json(Kind kind) : kind_(kind) {}

  static void Escape(const std::string& s, std::string* out) {
    out->push_back('"');
    for (char c : s) {
      switch (c) {
        case '"': *out += "\\\""; break;
        case '\\': *out += "\\\\"; break;
        case '\n': *out += "\\n"; break;
        case '\t': *out += "\\t"; break;
        default: out->push_back(c);
      }
    }
    out->push_back('"');
  }

  void Write(std::string* out, int indent) const {
    const std::string pad(static_cast<size_t>(indent), ' ');
    const std::string pad2(static_cast<size_t>(indent) + 2, ' ');
    char buf[64];
    switch (kind_) {
      case Kind::kString:
        Escape(str_, out);
        break;
      case Kind::kNumber:
        std::snprintf(buf, sizeof(buf), "%.6g", num_);
        *out += buf;
        break;
      case Kind::kInt:
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(int_));
        *out += buf;
        break;
      case Kind::kBool:
        *out += bool_ ? "true" : "false";
        break;
      case Kind::kNull:
        *out += "null";
        break;
      case Kind::kArray: {
        if (elements_.empty()) {
          *out += "[]";
          break;
        }
        *out += "[\n";
        for (size_t i = 0; i < elements_.size(); ++i) {
          *out += pad2;
          elements_[i].Write(out, indent + 2);
          *out += (i + 1 < elements_.size()) ? ",\n" : "\n";
        }
        *out += pad + "]";
        break;
      }
      case Kind::kObject: {
        if (members_.empty()) {
          *out += "{}";
          break;
        }
        *out += "{\n";
        for (size_t i = 0; i < members_.size(); ++i) {
          *out += pad2;
          Escape(members_[i].first, out);
          *out += ": ";
          members_[i].second.Write(out, indent + 2);
          *out += (i + 1 < members_.size()) ? ",\n" : "\n";
        }
        *out += pad + "}";
        break;
      }
    }
  }

  Kind kind_;
  std::string str_;
  double num_ = 0.0;
  int64_t int_ = 0;
  bool bool_ = false;
  std::vector<std::pair<std::string, Json>> members_;
  std::vector<Json> elements_;
};

/// Writes `doc` to `path` (plus a trailing newline); returns false on
/// I/O failure.
inline bool WriteJsonFile(const std::string& path, const Json& doc) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = doc.Dump() + "\n";
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  return std::fclose(f) == 0 && written == text.size();
}

}  // namespace shardchain::bench

#endif  // SHARDCHAIN_BENCH_EMIT_JSON_H_
