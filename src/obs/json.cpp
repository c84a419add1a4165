#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace dohperf::obs::json {
namespace {

/// Recursive-descent parser over a string_view cursor. The first defect
/// met is kept with its offset; every failing step returns at once, so
/// it is the one reported.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> run() {
    skip_ws();
    auto value = parse_value();
    if (!value) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      return fail(pos_, "unexpected text after the document");
    }
    return value;
  }

  /// "line L, column C: <reason>" for the defect that stopped run()
  /// (1-based; a column counts bytes).
  [[nodiscard]] std::string error() const {
    std::size_t line = 1;
    std::size_t line_start = 0;
    for (std::size_t i = 0; i < error_at_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        line_start = i + 1;
      }
    }
    return "line " + std::to_string(line) + ", column " +
           std::to_string(error_at_ - line_start + 1) + ": " + error_;
  }

 private:
  static constexpr int kMaxDepth = 64;

  /// Records the defect at offset `at` (the first one only).
  std::nullopt_t fail(std::size_t at, std::string reason) {
    if (error_.empty()) {
      error_at_ = at;
      error_ = std::move(reason);
    }
    return std::nullopt;
  }
  /// fail() at the cursor, naming the end of input when it is there.
  std::nullopt_t fail_here(std::string_view expected) {
    return fail(pos_, pos_ >= text_.size() ? "unexpected end of input"
                                           : std::string(expected));
  }

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

  /// `word` (null, true or false) at the cursor, read as `value`.
  std::optional<Value> keyword(std::string_view word, Value value) {
    if (!literal(word)) {
      return fail(pos_, "invalid literal (expected " + std::string(word) +
                            ")");
    }
    return value;
  }

  std::optional<Value> parse_value() {
    if (depth_ > kMaxDepth) return fail(pos_, "nesting deeper than 64");
    if (pos_ >= text_.size()) return fail(pos_, "unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        return keyword("null", Value());
      case 't':
        return keyword("true", Value(true));
      case 'f':
        return keyword("false", Value(false));
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
    const std::size_t at = pos_;
    if (pos_ + 4 > text_.size()) return fail(at, "truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else return fail(at, "invalid \\u escape");
    }
    return code;
  }

  std::optional<Value> parse_string() {
    std::string out;
    const std::size_t start = pos_;
    if (!eat('"')) return fail_here("expected a string");
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Value(std::move(out));
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
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
            const std::size_t at = pos_ - 2;
            const std::optional<unsigned> first = hex4();
            if (!first) return std::nullopt;
            unsigned code = *first;
            if (code >= 0xDC00 && code <= 0xDFFF) {
              return fail(at, "low surrogate with no high surrogate");
            }
            if (code >= 0xD800 && code <= 0xDBFF) {
              // High surrogate: RFC 8259 requires a \uDC00-\uDFFF mate;
              // anything else (including a bare high surrogate) used to
              // slip through as mangled CESU-8 — now it is a parse error.
              if (!literal("\\u")) {
                return fail(at, "high surrogate with no low surrogate");
              }
              const std::optional<unsigned> second = hex4();
              if (!second) return std::nullopt;
              if (*second < 0xDC00 || *second > 0xDFFF) {
                return fail(at, "high surrogate with no low surrogate");
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
            return fail(pos_ - 2, "invalid escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        // RFC 8259 §7: U+0000 through U+001F must be escaped.
        return fail(pos_ - 1, "unescaped control character in a string");
      } else {
        out.push_back(c);
      }
    }
    return fail(start, "unterminated string");
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
    const bool minus = eat('-');
    if (!eat('0') && !digits()) {
      return fail_here(minus ? "expected a digit" : "expected a value");
    }
    if (eat('.') && !digits()) return fail_here("expected a digit");
    if (eat('e') || eat('E')) {
      if (!eat('+')) (void)eat('-');
      if (!digits()) return fail_here("expected a digit");
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double n = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(n)) {
      return fail(start, "number out of range");
    }
    return Value(n);
  }

  std::optional<Value> parse_array() {
    if (!eat('[')) return fail_here("expected '['");
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
      if (!eat(',')) return fail_here("expected ',' or ']'");
    }
    --depth_;
    return Value(std::move(items));
  }

  std::optional<Value> parse_object() {
    if (!eat('{')) return fail_here("expected '{'");
    ++depth_;
    Object members;
    skip_ws();
    if (eat('}')) {
      --depth_;
      return Value(std::move(members));
    }
    while (true) {
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] != '"') {
        return fail(pos_, "expected a string key");
      }
      auto key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!eat(':')) return fail_here("expected ':'");
      skip_ws();
      auto value = parse_value();
      if (!value) return std::nullopt;
      members.emplace(key->as_string(), std::move(*value));
      skip_ws();
      if (eat('}')) break;
      if (!eat(',')) return fail_here("expected ',' or '}'");
    }
    --depth_;
    return Value(std::move(members));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::size_t error_at_ = 0;
  std::string error_;
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

std::optional<Value> parse(std::string_view text, std::string* error) {
  Parser parser(text);
  std::optional<Value> value = parser.run();
  if (!value && error != nullptr) *error = parser.error();
  return value;
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
