#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace emc::util {

JsonValue JsonParser::parse() {
  JsonValue v = parse_value();
  skip_ws();
  if (pos_ != text_.size()) fail("trailing characters");
  return v;
}

void JsonParser::fail(const std::string& what) const {
  throw std::runtime_error("JSON parse error at byte " +
                           std::to_string(pos_) + ": " + what);
}

void JsonParser::skip_ws() {
  while (pos_ < text_.size() &&
         std::isspace(static_cast<unsigned char>(text_[pos_]))) {
    ++pos_;
  }
}

char JsonParser::peek() {
  skip_ws();
  if (pos_ >= text_.size()) fail("unexpected end");
  return text_[pos_];
}

void JsonParser::expect(char c) {
  if (peek() != c) fail(std::string("expected '") + c + "'");
  ++pos_;
}

bool JsonParser::consume_literal(const char* lit) {
  const std::size_t n = std::string(lit).size();
  if (text_.compare(pos_, n, lit) == 0) {
    pos_ += n;
    return true;
  }
  return false;
}

JsonValue JsonParser::parse_value() {
  const char c = peek();
  if (c == '{' || c == '[') {
    if (depth_ == kMaxJsonDepth) fail("nesting deeper than the limit");
    ++depth_;
    JsonValue v = c == '{' ? parse_object() : parse_array();
    --depth_;
    return v;
  }
  if (c == '"') {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    v.str = parse_string();
    return v;
  }
  JsonValue v;
  if (consume_literal("true")) {
    v.kind = JsonValue::Kind::kBool;
    v.boolean = true;
    return v;
  }
  if (consume_literal("false")) {
    v.kind = JsonValue::Kind::kBool;
    return v;
  }
  if (consume_literal("null")) return v;
  // Non-finite doubles have no JSON representation; emitters that stream
  // them raw produce exactly these tokens (optionally signed). Name the
  // failure instead of falling through to a generic number error.
  for (const char* bad : {"nan", "NaN", "-nan", "-NaN", "inf", "Infinity",
                          "-inf", "-Infinity"}) {
    if (consume_literal(bad)) fail("non-finite literal is not valid JSON");
  }
  return parse_number();
}

std::string JsonParser::parse_string() {
  expect('"');
  std::string s;
  while (pos_ < text_.size() && text_[pos_] != '"') {
    char c = text_[pos_++];
    if (c == '\\') {
      if (pos_ >= text_.size()) fail("bad escape");
      const char e = text_[pos_++];
      switch (e) {
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case 'r': c = '\r'; break;
        case 'b': c = '\b'; break;
        case 'f': c = '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // UTF-8 encode the code unit (surrogate pairs are encoded as
          // two separate units — structural fidelity is all the
          // validators need, and BMP round trips are exact).
          if (code < 0x80) {
            s += static_cast<char>(code);
          } else if (code < 0x800) {
            s += static_cast<char>(0xc0 | (code >> 6));
            s += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            s += static_cast<char>(0xe0 | (code >> 12));
            s += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            s += static_cast<char>(0x80 | (code & 0x3f));
          }
          continue;
        }
        default: c = e; break;
      }
    }
    s += c;
  }
  if (pos_ >= text_.size()) fail("unterminated string");
  ++pos_;  // closing quote
  return s;
}

JsonValue JsonParser::parse_number() {
  const std::size_t start = pos_;
  if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
    ++pos_;
  }
  while (pos_ < text_.size() &&
         (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
          text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
          text_[pos_] == '+' || text_[pos_] == '-')) {
    ++pos_;
  }
  if (pos_ == start) fail("expected a value");
  JsonValue v;
  v.kind = JsonValue::Kind::kNumber;
  // The token must be one number: stod alone would read "1-2" as 1.
  std::size_t used = 0;
  try {
    v.number = std::stod(text_.substr(start, pos_ - start), &used);
  } catch (const std::exception&) {
    fail("bad number");
  }
  if (used != pos_ - start) fail("bad number");
  // stod accepts "inf"/"nan" spellings and saturates huge exponents like
  // 1e999 to infinity without throwing on all platforms — reject both.
  if (!std::isfinite(v.number)) fail("non-finite number");
  return v;
}

JsonValue JsonParser::parse_array() {
  expect('[');
  JsonValue v;
  v.kind = JsonValue::Kind::kArray;
  if (peek() == ']') {
    ++pos_;
    return v;
  }
  for (;;) {
    v.array.push_back(parse_value());
    const char c = peek();
    ++pos_;
    if (c == ']') return v;
    if (c != ',') fail("expected ',' or ']'");
  }
}

JsonValue JsonParser::parse_object() {
  expect('{');
  JsonValue v;
  v.kind = JsonValue::Kind::kObject;
  if (peek() == '}') {
    ++pos_;
    return v;
  }
  for (;;) {
    const std::string key = parse_string();
    expect(':');
    v.object[key] = parse_value();
    const char c = peek();
    ++pos_;
    if (c == '}') return v;
    if (c != ',') fail("expected ',' or '}'");
  }
}

JsonValue parse_json(const std::string& text) {
  return JsonParser(text).parse();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_quote(const std::string& s) {
  // Appended, not `"\"" + ...`: gcc 12 warns falsely (-Wrestrict) on a
  // literal + std::string temporary at -O3.
  std::string out(1, '"');
  out += json_escape(s);
  out += '"';
  return out;
}

std::string format_double(double v) {
  char buf[40];
  for (int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

void JsonWriter::write_double(double v) {
  // NaN/Inf have no JSON representation (streaming them produces `nan`
  // / `inf` tokens no parser accepts) — they are emitted as null.
  if (std::isfinite(v)) {
    out_ << format_double(v);
  } else {
    out_ << "null";
  }
}

}  // namespace emc::util
