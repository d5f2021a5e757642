#pragma once

// Aligned plain-text tables for benchmark reports.
//
// bench_paper and the examples report their rows through a Table so that
// the printed output mirrors the corresponding table/figure series in
// the paper; bench_paper also writes the same cells, keyed by headers(),
// into its JSON report.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace emc {

/// A cell is a string, an integer, or a double (formatted with
/// column-specific precision).
using Cell = std::variant<std::string, std::int64_t, double>;

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Sets decimal precision used for double cells (default 4).
  void set_precision(int digits) { precision_ = digits; }

  void add_row(std::vector<Cell> row);

  const std::vector<std::string>& headers() const { return headers_; }
  std::size_t rows() const { return rows_.size(); }
  std::size_t cols() const { return headers_.size(); }
  const Cell& at(std::size_t row, std::size_t col) const;

  /// Renders the table with aligned columns.
  std::string to_text() const;

  /// Prints to_text() to the stream, preceded by an optional title.
  void print(std::ostream& os, const std::string& title = "") const;

 private:
  std::string format_cell(const Cell& c) const;

  std::vector<std::string> headers_;
  std::vector<std::vector<Cell>> rows_;
  int precision_ = 4;
};

}  // namespace emc
