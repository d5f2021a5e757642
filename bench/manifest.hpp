#pragma once

// The run-manifest envelope every BENCH_*.json report carries, plus its
// validator. A report without provenance is a number with no pedigree:
// the manifest stamps schema version, bench identity, git SHA + dirty
// flag, compiler/flags, host, timestamp, and seed, and the run footer
// appends peak RSS — so a baseline checked into bench/baselines/ is
// self-describing and bench_compare can refuse to diff incomparable
// artifacts.
//
// Schema policy (see DESIGN.md "Observability pipeline"):
//   - kManifestSchemaVersion bumps ONLY on a breaking change to the
//     envelope or to the meaning of an existing field; adding fields is
//     not a bump (bench_compare treats new keys as advisory).
//   - bench payloads outside the manifest are versioned by the bench
//     name + mode pair; bench_compare matches cells by identity keys,
//     so appending cells or fields is always safe.

#include <cstdint>
#include <ctime>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

#include "emc/version.hpp"
#include "util/json.hpp"

namespace emc::bench {

inline constexpr int kManifestSchemaVersion = 1;

/// Peak resident-set size of this process so far, in bytes (0 where the
/// platform offers no getrusage). Linux reports ru_maxrss in KiB, macOS
/// in bytes; both are high-water marks, so call it at the end of a run
/// — or between phases to attribute growth — and report it alongside
/// timing: events/sec without the memory footprint hides half the
/// scalability story.
inline std::int64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::int64_t>(usage.ru_maxrss);
#else
  return static_cast<std::int64_t>(usage.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

inline std::string hostname() {
#if defined(__unix__) || defined(__APPLE__)
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0') {
    return buf;
  }
#endif
  return "unknown";
}

/// Current UTC time as ISO-8601 (e.g. "2026-08-08T12:34:56Z").
inline std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
#if defined(__unix__) || defined(__APPLE__)
  gmtime_r(&now, &tm);
#else
  tm = *std::gmtime(&now);
#endif
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Emits the manifest envelope as the "manifest" object. Call right
/// after begin_object() so provenance leads the report.
inline void write_manifest(util::JsonWriter& json,
                           const std::string& bench_name,
                           const std::string& mode, std::uint64_t seed) {
  json.begin_object("manifest");
  json.field("schema_version", kManifestSchemaVersion);
  json.field("bench", bench_name);
  json.field("mode", mode);
  json.field("seed", seed);
  json.field("git_sha", buildinfo::kGitSha);
  json.field("git_dirty", buildinfo::kGitDirty);
  json.field("compiler", buildinfo::kCompiler);
  json.field("compiler_version", buildinfo::kCompilerVersion);
  json.field("cxx_flags", buildinfo::kCxxFlags);
  json.field("build_type", buildinfo::kBuildType);
  json.field("hostname", hostname());
  json.field("timestamp_utc", utc_timestamp());
  json.end_object();
}

/// Emits the run footer (peak RSS). Call as the last field of the
/// top-level report object.
inline void write_run_footer(util::JsonWriter& json) {
  json.field("peak_rss_bytes", peak_rss_bytes());
}

/// Validates that `doc` (a parsed BENCH_*.json) carries the manifest
/// envelope. Returns "" when valid, else a description of the first
/// violation. Used by every bench's post-write self-check and by
/// bench_compare before diffing.
inline std::string manifest_error(const util::JsonValue& doc) {
  using util::JsonValue;
  if (doc.kind != JsonValue::Kind::kObject) {
    return "report is not a JSON object";
  }
  if (!doc.has("manifest")) return "missing \"manifest\" object";
  const JsonValue& m = doc.object.at("manifest");
  if (m.kind != JsonValue::Kind::kObject) {
    return "\"manifest\" is not an object";
  }
  const struct {
    const char* key;
    JsonValue::Kind kind;
  } required[] = {
      {"schema_version", JsonValue::Kind::kNumber},
      {"bench", JsonValue::Kind::kString},
      {"mode", JsonValue::Kind::kString},
      {"seed", JsonValue::Kind::kNumber},
      {"git_sha", JsonValue::Kind::kString},
      {"git_dirty", JsonValue::Kind::kBool},
      {"compiler", JsonValue::Kind::kString},
      {"compiler_version", JsonValue::Kind::kString},
      {"cxx_flags", JsonValue::Kind::kString},
      {"build_type", JsonValue::Kind::kString},
      {"hostname", JsonValue::Kind::kString},
      {"timestamp_utc", JsonValue::Kind::kString},
  };
  for (const auto& r : required) {
    if (!m.has(r.key)) {
      return std::string("manifest missing \"") + r.key + "\"";
    }
    if (m.object.at(r.key).kind != r.kind) {
      return std::string("manifest \"") + r.key + "\" has wrong type";
    }
  }
  if (!doc.has("peak_rss_bytes") ||
      doc.object.at("peak_rss_bytes").kind != JsonValue::Kind::kNumber) {
    return "missing top-level \"peak_rss_bytes\"";
  }
  return "";
}

/// Re-reads the report a bench just wrote with the strict parser (NaN,
/// Inf and trailing garbage are errors) and checks its manifest
/// envelope. Returns "" when valid, else the first error — each bench
/// prints it and exits 1, since bench_compare would reject the file.
inline std::string validate_report(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    const std::string bad = manifest_error(util::parse_json(buf.str()));
    return bad.empty() ? "" : "report manifest invalid: " + bad;
  } catch (const std::exception& e) {
    return path + " is invalid JSON: " + e.what();
  }
}

}  // namespace emc::bench
