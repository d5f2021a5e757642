#include "util/table.hpp"

#include <cstdint>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace emc {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  if (headers_.empty()) {
    throw std::invalid_argument("Table requires at least one column");
  }
}

void Table::add_row(std::vector<Cell> row) {
  if (row.size() != headers_.size()) {
    throw std::invalid_argument("Table row width mismatch: expected " +
                                std::to_string(headers_.size()) + ", got " +
                                std::to_string(row.size()));
  }
  rows_.push_back(std::move(row));
}

const Cell& Table::at(std::size_t row, std::size_t col) const {
  return rows_.at(row).at(col);
}

std::string Table::format_cell(const Cell& c) const {
  if (const auto* s = std::get_if<std::string>(&c)) return *s;
  if (const auto* i = std::get_if<std::int64_t>(&c)) return std::to_string(*i);
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision_) << std::get<double>(c);
  return os.str();
}

std::string Table::to_text() const {
  std::vector<std::size_t> widths(headers_.size());
  std::vector<std::vector<std::string>> cells(rows_.size());

  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    cells[r].reserve(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      cells[r].push_back(format_cell(rows_[r][c]));
      widths[c] = std::max(widths[c], cells[r].back().size());
    }
  }

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " | ") << std::setw(static_cast<int>(widths[c]))
         << row[c];
    }
    os << " |\n";
  };

  emit_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << (c == 0 ? "|-" : "-|-") << std::string(widths[c], '-');
  }
  os << "-|\n";
  for (const auto& row : cells) emit_row(row);
  return os.str();
}

void Table::print(std::ostream& os, const std::string& title) const {
  if (!title.empty()) os << "== " << title << " ==\n";
  os << to_text();
}

}  // namespace emc
