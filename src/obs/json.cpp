#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dohperf::obs::json {
namespace {

/// Recursive-descent parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> run() {
    skip_ws();
    auto value = parse_value();
    if (!value) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::optional<Value> parse_value() {
    if (depth_ > kMaxDepth || pos_ >= text_.size()) return std::nullopt;
    switch (text_[pos_]) {
      case 'n':
        return literal("null") ? std::optional<Value>(Value())
                               : std::nullopt;
      case 't':
        return literal("true") ? std::optional<Value>(Value(true))
                               : std::nullopt;
      case 'f':
        return literal("false") ? std::optional<Value>(Value(false))
                                : std::nullopt;
      case '"':
        return parse_string();
      case '[':
        return parse_array();
      case '{':
        return parse_object();
      default:
        return parse_number();
    }
  }

  /// Four hex digits after "\u"; nullopt on short input or a non-digit.
  std::optional<unsigned> hex4() {
    if (pos_ + 4 > text_.size()) return std::nullopt;
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else return std::nullopt;
    }
    return code;
  }

  std::optional<Value> parse_string() {
    std::string out;
    if (!eat('"')) return std::nullopt;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Value(std::move(out));
      if (c == '\\') {
        if (pos_ >= text_.size()) return std::nullopt;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            const std::optional<unsigned> first = hex4();
            if (!first) return std::nullopt;
            unsigned code = *first;
            if (code >= 0xDC00 && code <= 0xDFFF) {
              return std::nullopt;  // low surrogate with no high surrogate
            }
            if (code >= 0xD800 && code <= 0xDBFF) {
              // High surrogate: RFC 8259 requires a \uDC00-\uDFFF mate;
              // anything else (including a bare high surrogate) used to
              // slip through as mangled CESU-8 — now it is a parse error.
              if (!literal("\\u")) return std::nullopt;
              const std::optional<unsigned> second = hex4();
              if (!second || *second < 0xDC00 || *second > 0xDFFF) {
                return std::nullopt;
              }
              code = 0x10000 + ((code - 0xD800) << 10) + (*second - 0xDC00);
            }
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
            break;
          }
          default:
            return std::nullopt;
        }
      } else {
        out.push_back(c);
      }
    }
    return std::nullopt;  // unterminated
  }

  /// Skips a run of ASCII digits; false when there is none.
  [[nodiscard]] bool digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ > start;
  }

  /// RFC 8259's number, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
  /// scanned before strtod sees it: strtod also takes `+5`, `.5`, `1.`
  /// and hex. A leading zero ends the integer part, so `007` leaves `07`
  /// behind as trailing garbage. A number past the double range (`1e999`)
  /// is rejected, not read as an infinity.
  std::optional<Value> parse_number() {
    const std::size_t start = pos_;
    (void)eat('-');
    if (!eat('0') && !digits()) return std::nullopt;
    if (eat('.') && !digits()) return std::nullopt;
    if (eat('e') || eat('E')) {
      if (!eat('+')) (void)eat('-');
      if (!digits()) return std::nullopt;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double n = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(n)) {
      return std::nullopt;
    }
    return Value(n);
  }

  std::optional<Value> parse_array() {
    if (!eat('[')) return std::nullopt;
    ++depth_;
    Array items;
    skip_ws();
    if (eat(']')) {
      --depth_;
      return Value(std::move(items));
    }
    while (true) {
      skip_ws();
      auto item = parse_value();
      if (!item) return std::nullopt;
      items.push_back(std::move(*item));
      skip_ws();
      if (eat(']')) break;
      if (!eat(',')) return std::nullopt;
    }
    --depth_;
    return Value(std::move(items));
  }

  std::optional<Value> parse_object() {
    if (!eat('{')) return std::nullopt;
    ++depth_;
    Object members;
    skip_ws();
    if (eat('}')) {
      --depth_;
      return Value(std::move(members));
    }
    while (true) {
      skip_ws();
      auto key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!eat(':')) return std::nullopt;
      skip_ws();
      auto value = parse_value();
      if (!value) return std::nullopt;
      members.emplace(key->as_string(), std::move(*value));
      skip_ws();
      if (eat('}')) break;
      if (!eat(',')) return std::nullopt;
    }
    --depth_;
    return Value(std::move(members));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

const Value* Value::get(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  const auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

double Value::number_or(std::string_view key, double fallback) const {
  const Value* v = get(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

std::string Value::string_or(std::string_view key,
                             std::string fallback) const {
  const Value* v = get(key);
  return (v != nullptr && v->is_string()) ? v->as_string()
                                          : std::move(fallback);
}

std::optional<Value> parse(std::string_view text) {
  return Parser(text).run();
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace dohperf::obs::json
