#pragma once

// Core of the regression-gating bench_compare pipeline: a structural
// diff of two BENCH_*.json reports that knows which numbers the
// simulator promises bitwise and which ones the host machine owns.
//
// Gating policy (DESIGN.md "Observability pipeline"):
//   - deterministic values — integers, booleans, strings, and simulated
//     floating-point quantities (makespans, wait times, utilizations) —
//     gate EXACTLY (doubles get a tiny abs+rel tolerance so a libm or
//     formatting ulp never pages anyone);
//   - hostware — anything wall-clock, rate, or RSS — is compared
//     within a configurable noise band and is ADVISORY by default
//     (warns, does not fail), because wall time on shared CI runners
//     is weather, not signal;
//   - the manifest subtree is provenance, not payload: only
//     schema_version is compared.
//
// Cells of arrays-of-objects are matched by identity keys (model,
// procs, topology, ...), not by index, so reordering is not a
// regression but a vanished cell is.

#include <string>
#include <vector>

#include "util/json.hpp"

namespace emc::tools {

struct CompareOptions {
  /// Relative noise band for advisory (hostware) values: warn when
  /// |cand - base| > noise * |base| (candidate magnitude is the
  /// fallback scale when the baseline is 0).
  double noise = 0.5;
  /// Gated doubles pass when |cand - base| <= abs_tol + rel_tol * mag.
  double rel_tol = 1e-7;
  double abs_tol = 1e-9;
  /// Escalate advisory (noise-band) violations to failures.
  bool strict_noise = false;
};

enum class DeltaStatus { kOk, kWarn, kFail };

/// One compared leaf (or structural violation).
struct Delta {
  std::string path;       ///< e.g. "scheduler_sweep[model=ws,procs=256].events"
  std::string baseline;   ///< rendered value ("-" when absent)
  std::string candidate;  ///< rendered value ("-" when absent)
  DeltaStatus status = DeltaStatus::kOk;
  std::string note;       ///< "exact", "noise band", "missing key", ...
};

struct CompareResult {
  std::vector<Delta> deltas;  ///< warn/fail rows plus a few context rows
  int compared = 0;           ///< leaves examined
  int failures = 0;
  int warnings = 0;
  bool ok() const { return failures == 0; }
};

/// Diffs candidate against baseline under the gating policy above.
/// Both documents must already be parsed (use util::parse_json).
CompareResult compare_reports(const util::JsonValue& baseline,
                              const util::JsonValue& candidate,
                              const CompareOptions& options);

/// Renders the delta table as GitHub-flavored markdown: a summary line,
/// then one row per warn/fail delta (capped, most severe first).
std::string markdown_report(const std::string& baseline_name,
                            const std::string& candidate_name,
                            const CompareResult& result);

/// True if `key` names a hostware quantity (wall clock, rates, RSS).
bool is_noisy_key(const std::string& key);

}  // namespace emc::tools
