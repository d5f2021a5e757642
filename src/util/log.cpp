#include "util/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>

namespace emc {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kInfo};
std::mutex g_io_mutex;

std::chrono::steady_clock::time_point process_start() {
  static const auto start = std::chrono::steady_clock::now();
  return start;
}
// Anchor the epoch at static-init time, not first log, so stamps track
// process lifetime as closely as a header-only scheme allows.
[[maybe_unused]] const auto g_start_anchor = process_start();

std::atomic<int> g_next_thread_id{0};
thread_local std::string t_tag;
}  // namespace

void set_log_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

void set_log_thread_tag(const std::string& tag) { t_tag = tag; }

const std::string& log_thread_tag() {
  if (t_tag.empty()) {
    // Appended, not `"T" + ...`: gcc 12 warns falsely (-Wrestrict) on a
    // literal + std::string temporary at -O3.
    t_tag = 'T';
    t_tag += std::to_string(
        g_next_thread_id.fetch_add(1, std::memory_order_relaxed));
  }
  return t_tag;
}

namespace detail {

std::string format_log_line(LogLevel level, const std::string& message) {
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    process_start())
          .count();
  char stamp[32];
  std::snprintf(stamp, sizeof(stamp), "+%.6fs", elapsed);
  std::string line = "[";
  line += log_level_name(level);
  line += " ";
  line += stamp;
  line += " ";
  line += log_thread_tag();
  line += "] ";
  line += message;
  return line;
}

void log_write(LogLevel level, const std::string& message) {
  const std::string line = format_log_line(level, message);
  std::lock_guard<std::mutex> lock(g_io_mutex);
  std::cerr << line << "\n";
}

}  // namespace detail
}  // namespace emc
