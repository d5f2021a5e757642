#pragma once

// Scoped hierarchical profiler: RAII spans aggregated per call path.
//
// Each thread owns a private span tree (no locks on the hot path); a
// span entered while profiling is enabled walks one level down the
// tree, and on scope exit adds its elapsed time and call count to that
// node with relaxed atomics. Aggregation merges the per-thread trees by
// path and derives exclusive time (inclusive minus the children's
// inclusive), which is what makes a span profile actionable: inclusive
// tells you where time is *spent*, exclusive where it is *generated*.
//
// Cost model, in order of decreasing concern:
//   - compiled out (cmake -DEMC_PROFILING=OFF): EMC_PROF_SPAN expands
//     to nothing — zero code, zero data;
//   - compiled in, disabled (the default at startup): one out-of-line
//     call + one relaxed load + one branch per span;
//   - enabled: two steady_clock reads plus a child lookup (pointer
//     compare first, strcmp fallback) per span.
//
// Span names must be string literals (or otherwise outlive the
// profiler) — the tree stores the pointer, not a copy.
//
// Usage:
//   void build() {
//     EMC_PROF_SPAN("fock/build_g");
//     ...
//   }
//   util::Profiler::global().set_enabled(true);  // before the run
//   util::Profiler::global().write_text(std::cout);

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace emc::util {

/// One aggregated call-path node, as returned by Profiler::aggregate().
/// `path` joins the span names from the root with '/'; `depth` is the
/// nesting level (1 = top-level span). Exclusive time is clamped at 0:
/// with profiling toggled mid-run a child can outlive its parent's
/// recorded window, and a negative exclusive time helps nobody.
struct ProfileSpanStats {
  std::string path;
  std::string name;
  int depth = 0;
  std::int64_t calls = 0;
  double inclusive_s = 0.0;
  double exclusive_s = 0.0;
};

class Profiler {
 public:
  /// Process-wide profiler the EMC_PROF_SPAN macro records into.
  static Profiler& global();

  void set_enabled(bool on);
  bool enabled() const;

  /// Zeroes every recorded span (structure and outstanding thread
  /// buffers stay valid — safe while spans are open, their exit still
  /// finds its node).
  void reset();

  /// Merges the per-thread trees by path. Depth-first order: a node
  /// appears immediately after its parent. Thread-safe, but counts for
  /// spans still open (or racing on other threads) reflect completed
  /// entries only.
  std::vector<ProfileSpanStats> aggregate() const;

  /// Human-readable table: path, calls, inclusive/exclusive seconds.
  void write_text(std::ostream& out) const;
  /// {"enabled": ..., "spans": [{path, name, depth, calls,
  ///  inclusive_s, exclusive_s}, ...]} — the report embedded by
  /// bench/manifest.hpp's run footer.
  void write_json(std::ostream& out) const;

 private:
  Profiler() = default;
};

/// RAII span. Constructed by EMC_PROF_SPAN; records into
/// Profiler::global() iff profiling was enabled at entry.
class ProfileSpan {
 public:
  explicit ProfileSpan(const char* name);
  ~ProfileSpan();
  ProfileSpan(const ProfileSpan&) = delete;
  ProfileSpan& operator=(const ProfileSpan&) = delete;

 private:
  void* node_ = nullptr;  ///< opaque tree node; null = inert span
  std::int64_t start_ns_ = 0;
};

}  // namespace emc::util

#define EMC_PROF_CONCAT2(a, b) a##b
#define EMC_PROF_CONCAT(a, b) EMC_PROF_CONCAT2(a, b)

#if !defined(EMC_PROFILING_DISABLED)
#define EMC_PROF_SPAN(name_literal)                               \
  ::emc::util::ProfileSpan EMC_PROF_CONCAT(emc_prof_span_,        \
                                           __LINE__) {            \
    name_literal                                                  \
  }
#else
#define EMC_PROF_SPAN(name_literal) static_cast<void>(0)
#endif
