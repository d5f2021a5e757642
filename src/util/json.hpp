#pragma once

// Minimal strict JSON parser used to validate the machine-readable
// artifacts the benches emit (Chrome traces, BENCH_*.json reports),
// plus the shared emitter side: json_escape() and the streaming
// JsonWriter every artifact writer goes through, so strings are escaped
// one way everywhere.
//
// Strictness is the point: invalid documents (trailing garbage,
// unterminated strings) and — deliberately — the non-finite number
// literals some emitters produce (`nan`, `inf`, `NaN`, `Infinity`, an
// overflowing exponent) are rejected with std::runtime_error, so a
// report containing an unguarded NaN/Inf fails its smoke gate instead
// of silently shipping a file no JSON consumer can read.

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace emc::util {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool has(const std::string& key) const {
    return kind == Kind::kObject && object.count(key) > 0;
  }
};

/// Deepest array/object nesting the parser accepts. The checked-in
/// reports nest at most 7 deep; the bound keeps the recursive descent
/// from overflowing the stack on hostile input.
inline constexpr int kMaxJsonDepth = 256;

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  /// Parses the whole document; throws std::runtime_error on any error,
  /// including non-finite number literals and nesting deeper than
  /// kMaxJsonDepth.
  JsonValue parse();

 private:
  [[noreturn]] void fail(const std::string& what) const;
  void skip_ws();
  char peek();
  void expect(char c);
  bool consume_literal(const char* lit);

  JsonValue parse_value();
  std::string parse_string();
  JsonValue parse_number();
  JsonValue parse_array();
  JsonValue parse_object();

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays/objects open at pos_
};

/// Convenience: parses `text`, returning the document. Throws
/// std::runtime_error on invalid JSON.
JsonValue parse_json(const std::string& text);

/// Escapes `s` for inclusion inside a JSON string literal (no
/// surrounding quotes): quote, backslash, and the common control
/// characters get their two-character escapes, remaining control
/// characters become \u00XX. Every emitter in the tree goes through
/// this so escaping cannot diverge between writers.
std::string json_escape(const std::string& s);

/// json_escape with the surrounding quotes.
std::string json_quote(const std::string& s);

/// Formats a finite double as the shortest decimal string that parses
/// back to the identical bits (tries 15, 16, then 17 significant
/// digits), so artifact round trips through the parser are exact and
/// bench_compare never sees formatting-induced drift.
std::string format_double(double v);

/// Streaming JSON emitter with automatic comma/indent management,
/// shared by every BENCH_*.json report writer. Usage mirrors the
/// document structure:
///
///   JsonWriter w(out);
///   w.begin_object();
///   w.field("bench", "bench_kernel");
///   w.begin_array("classes");
///   w.begin_object(); w.field("speedup", 3.1); w.end_object();
///   w.end_array();
///   w.end_object();
///
/// Keys and string values are escaped through json_escape(); doubles are
/// written round-trip exact (NaN/Inf become null — they have no JSON
/// representation).
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  void begin_object() { open('{'); }
  void begin_object(const std::string& key) { open_keyed(key, '{'); }
  void end_object() { close('}'); }
  void begin_array(const std::string& key) { open_keyed(key, '['); }
  void end_array() { close(']'); }

  void field(const std::string& key, const std::string& value) {
    key_prefix(key);
    out_ << json_quote(value);
  }
  void field(const std::string& key, const char* value) {
    field(key, std::string(value));
  }
  void field(const std::string& key, double value) {
    key_prefix(key);
    write_double(value);
  }
  void field(const std::string& key, std::int64_t value) {
    key_prefix(key);
    out_ << value;
  }
  void field(const std::string& key, int value) {
    field(key, static_cast<std::int64_t>(value));
  }
  void field(const std::string& key, std::uint64_t value) {
    key_prefix(key);
    out_ << value;
  }
  void field(const std::string& key, bool value) {
    key_prefix(key);
    out_ << (value ? "true" : "false");
  }
  /// Scalar array element (null for NaN/Inf, as with field()).
  void value(double v) {
    element_prefix();
    write_double(v);
  }

 private:
  void write_double(double v);

  struct Frame {
    bool is_array = false;
    int count = 0;
  };

  void indent() {
    for (std::size_t i = 0; i < stack_.size(); ++i) out_ << "  ";
  }
  /// Comma + newline + indent before an element of the enclosing frame.
  void element_prefix() {
    if (!stack_.empty()) {
      if (stack_.back().count++ > 0) out_ << ",";
      out_ << "\n";
      indent();
    }
  }
  void key_prefix(const std::string& key) {
    element_prefix();
    out_ << json_quote(key) << ": ";
  }
  void open(char bracket) {
    element_prefix();
    out_ << bracket;
    stack_.push_back(Frame{bracket == '[', 0});
  }
  void open_keyed(const std::string& key, char bracket) {
    key_prefix(key);
    out_ << bracket;
    stack_.push_back(Frame{bracket == '[', 0});
  }
  void close(char bracket) {
    const bool had_elements = !stack_.empty() && stack_.back().count > 0;
    if (!stack_.empty()) stack_.pop_back();
    if (had_elements) {
      out_ << "\n";
      indent();
    }
    out_ << bracket;
    if (stack_.empty()) out_ << "\n";
  }

  std::ostream& out_;
  std::vector<Frame> stack_;
};

}  // namespace emc::util
