// Gating semantics of the bench_compare library: identical reports pass,
// deterministic drift fails, hostware noise warns, structure changes
// (missing cells, renamed keys, NaN guards) fail loudly, and the
// manifest validator rejects malformed envelopes. Mutated copies of the
// checked-in baselines either parse or fail with a message, never crash.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_compare_lib.hpp"
#include "manifest.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using emc::tools::CompareOptions;
using emc::tools::CompareResult;
using emc::tools::compare_reports;
using emc::tools::DeltaStatus;
using emc::tools::markdown_report;
using emc::util::parse_json;

CompareResult compare(const std::string& base, const std::string& cand,
                      const CompareOptions& opt = {}) {
  return compare_reports(parse_json(base), parse_json(cand), opt);
}

bool has_fail_at(const CompareResult& r, const std::string& path) {
  for (const auto& d : r.deltas) {
    if (d.path == path && d.status == DeltaStatus::kFail) return true;
  }
  return false;
}

TEST(BenchCompare, IdenticalReportsPass) {
  const std::string doc = R"({
    "events": 8704, "makespan_s": 1.25, "wall_ms": 3.7,
    "sweep": [{"model": "ws", "procs": 256, "steals": 17}]
  })";
  const CompareResult r = compare(doc, doc);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.failures, 0);
  EXPECT_EQ(r.warnings, 0);
  EXPECT_GT(r.compared, 0);
}

TEST(BenchCompare, PerturbedCounterFails) {
  const CompareResult r =
      compare(R"({"events": 8704})", R"({"events": 8705})");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_fail_at(r, "events"));
}

TEST(BenchCompare, DeterministicDoubleDriftFails) {
  const CompareResult r =
      compare(R"({"makespan_s": 1.25})", R"({"makespan_s": 1.26})");
  EXPECT_FALSE(r.ok());
}

TEST(BenchCompare, TinyUlpDriftPasses) {
  // Within abs+rel tolerance: a libm ulp, not a regression.
  const CompareResult r = compare(R"({"makespan_s": 1.25})",
                                  R"({"makespan_s": 1.2500000001})");
  EXPECT_TRUE(r.ok());
}

TEST(BenchCompare, NoisyKeyWarnsInsteadOfFailing) {
  const CompareResult r =
      compare(R"({"wall_ms": 10.0})", R"({"wall_ms": 17.0})");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.warnings, 1);
}

TEST(BenchCompare, NoisyKeyWithinBandIsSilent) {
  const CompareResult r =
      compare(R"({"wall_ms": 10.0})", R"({"wall_ms": 12.0})");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.warnings, 0);
}

TEST(BenchCompare, StrictNoiseEscalatesToFailure) {
  CompareOptions opt;
  opt.strict_noise = true;
  const CompareResult r =
      compare(R"({"wall_ms": 10.0})", R"({"wall_ms": 17.0})", opt);
  EXPECT_FALSE(r.ok());
}

TEST(BenchCompare, MissingKeyFails) {
  const CompareResult r =
      compare(R"({"events": 1, "steals": 2})", R"({"events": 1})");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_fail_at(r, "steals"));
}

TEST(BenchCompare, RenamedKeyFailsOldAndWarnsNew) {
  const CompareResult r =
      compare(R"({"steals": 2})", R"({"steal_count": 2})");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_fail_at(r, "steals"));
  EXPECT_EQ(r.warnings, 1);  // steal_count is new
}

TEST(BenchCompare, MissingCellFailsByIdentityKey) {
  const std::string base = R"({"sweep": [
    {"model": "ws", "procs": 256, "events": 1},
    {"model": "ws", "procs": 4096, "events": 2}
  ]})";
  const std::string cand = R"({"sweep": [
    {"model": "ws", "procs": 256, "events": 1}
  ]})";
  const CompareResult r = compare(base, cand);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_fail_at(r, "sweep[model=ws,procs=4096]"));
}

TEST(BenchCompare, ReorderedCellsAreNotARegression) {
  const std::string base = R"({"sweep": [
    {"model": "static", "events": 1}, {"model": "ws", "events": 2}
  ]})";
  const std::string cand = R"({"sweep": [
    {"model": "ws", "events": 2}, {"model": "static", "events": 1}
  ]})";
  EXPECT_TRUE(compare(base, cand).ok());
}

TEST(BenchCompare, NullVsValueFailsWithNanGuardNote) {
  // A NaN in the candidate run serializes as null (JsonWriter guard);
  // the diff must fail and name the likely cause.
  const CompareResult r =
      compare(R"({"makespan_s": 1.25})", R"({"makespan_s": null})");
  EXPECT_FALSE(r.ok());
  bool noted = false;
  for (const auto& d : r.deltas) {
    if (d.note.find("non-finite") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted);
}

TEST(BenchCompare, ManifestProvenanceDiffersFreely) {
  const std::string base = R"({"manifest": {"schema_version": 1,
    "git_sha": "aaa", "hostname": "ci-1"}, "events": 5})";
  const std::string cand = R"({"manifest": {"schema_version": 1,
    "git_sha": "bbb", "hostname": "ci-2"}, "events": 5})";
  const CompareResult r = compare(base, cand);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.warnings, 0);
}

TEST(BenchCompare, SchemaVersionMismatchFails) {
  const std::string base =
      R"({"manifest": {"schema_version": 1}, "events": 5})";
  const std::string cand =
      R"({"manifest": {"schema_version": 2}, "events": 5})";
  EXPECT_FALSE(compare(base, cand).ok());
}

TEST(ManifestValidator, AcceptsFullEnvelope) {
  const std::string doc = R"({
    "manifest": {
      "schema_version": 1, "bench": "b", "mode": "smoke", "seed": 1,
      "git_sha": "abc", "git_dirty": false, "compiler": "GNU",
      "compiler_version": "12", "cxx_flags": "-O3",
      "build_type": "Release", "hostname": "h",
      "timestamp_utc": "2026-08-08T00:00:00Z"
    },
    "peak_rss_bytes": 1024
  })";
  EXPECT_EQ(emc::bench::manifest_error(parse_json(doc)), "");
}

TEST(ManifestValidator, RejectsMissingManifest) {
  EXPECT_NE(emc::bench::manifest_error(parse_json(R"({"events": 1})")),
            "");
}

TEST(ManifestValidator, RejectsWrongFieldType) {
  const std::string doc = R"({
    "manifest": {
      "schema_version": "one", "bench": "b", "mode": "smoke", "seed": 1,
      "git_sha": "abc", "git_dirty": false, "compiler": "GNU",
      "compiler_version": "12", "cxx_flags": "-O3",
      "build_type": "Release", "hostname": "h",
      "timestamp_utc": "2026-08-08T00:00:00Z"
    },
    "peak_rss_bytes": 1024
  })";
  const std::string err = emc::bench::manifest_error(parse_json(doc));
  EXPECT_NE(err.find("schema_version"), std::string::npos);
}

TEST(ManifestValidator, ValidateReportRereadsStrictly) {
  const std::string path = ::testing::TempDir() + "validate_report.json";
  const auto write = [&](const std::string& text) {
    std::ofstream(path) << text;
    return emc::bench::validate_report(path);
  };
  const std::string manifest = R"("manifest": {
      "schema_version": 1, "bench": "b", "mode": "smoke", "seed": 1,
      "git_sha": "abc", "git_dirty": false, "compiler": "GNU",
      "compiler_version": "12", "cxx_flags": "-O3",
      "build_type": "Release", "hostname": "h",
      "timestamp_utc": "2026-08-08T00:00:00Z"})";
  EXPECT_EQ(write("{" + manifest + R"(, "peak_rss_bytes": 1})"), "");
  EXPECT_NE(write("{" + manifest + R"(, "peak_rss_bytes": NaN})")
                .find("invalid JSON"),
            std::string::npos);
  EXPECT_NE(write("{" + manifest + "}").find("peak_rss_bytes"),
            std::string::npos);
  std::remove(path.c_str());
  EXPECT_NE(emc::bench::validate_report(path), "");
}

TEST(MarkdownReport, ContainsSummaryAndRows) {
  const CompareResult r =
      compare(R"({"events": 1})", R"({"events": 2})");
  const std::string md =
      emc::tools::markdown_report("base.json", "cand.json", r);
  EXPECT_NE(md.find("**FAIL**"), std::string::npos);
  EXPECT_NE(md.find("`events`"), std::string::npos);
  EXPECT_NE(md.find("deterministic counter mismatch"), std::string::npos);
}

TEST(ParserFuzz, MutatedBaselinesParseOrFailCleanly) {
  // Prefix truncations at a stride and seeded byte flips of every
  // checked-in report. Each mutant parses or throws std::runtime_error;
  // each one that parses is compared against the original. The
  // sanitizer builds run this too.
  for (const char* name :
       {"BENCH_kernel.json", "BENCH_model_fit.json", "BENCH_paper.json"}) {
    std::ifstream in(std::string(EMC_BASELINE_DIR) + "/" + name);
    ASSERT_TRUE(in) << name;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    const emc::util::JsonValue original = parse_json(text);
    int parsed = 0, failed = 0;
    auto probe = [&](const std::string& mutant) {
      emc::util::JsonValue doc;
      try {
        doc = parse_json(mutant);
      } catch (const std::runtime_error&) {
        ++failed;
        return;
      }
      ++parsed;
      const CompareResult r = compare_reports(original, doc, {});
      EXPECT_FALSE(markdown_report(name, "mutant", r).empty());
    };
    const std::size_t stride = std::max<std::size_t>(1, text.size() / 200);
    for (std::size_t len = 0; len < text.size(); len += stride) {
      probe(text.substr(0, len));
    }
    emc::Rng rng(20261020);
    for (int trial = 0; trial < 300; ++trial) {
      std::string mutant = text;
      const std::uint64_t flips = 1 + rng.below(4);
      for (std::uint64_t f = 0; f < flips; ++f) {
        mutant[rng.below(mutant.size())] = static_cast<char>(rng.below(256));
      }
      probe(mutant);
    }
    EXPECT_GT(failed, 0) << name;
    EXPECT_GT(parsed, 0) << name;
  }
}

}  // namespace
