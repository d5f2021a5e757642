// Unit tests for util: RNG, statistics, histogram, table, CLI.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using emc::Accumulator;
using emc::Cli;
using emc::Histogram;
using emc::Rng;
using emc::Summary;
using emc::Table;

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, RangeInclusiveBounds) {
  Rng rng(5);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    hit_lo |= (v == -3);
    hit_hi |= (v == 3);
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, SplitStreamsAreIndependentish) {
  Rng parent(19);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent() == child()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Stats, SummaryBasics) {
  const std::array<double, 5> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  const Summary s = emc::summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.sum, 15.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
}

TEST(Stats, SummaryEmptyIsZero) {
  const Summary s = emc::summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.cv(), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::array<double, 4> xs{0.0, 1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(emc::percentile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(emc::percentile(xs, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(emc::percentile(xs, 0.5), 1.5);
}

TEST(Stats, PercentileUnsortedInput) {
  const std::array<double, 5> xs{5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(emc::percentile(xs, 0.5), 3.0);
}

TEST(Stats, ImbalanceRatio) {
  const std::array<double, 4> balanced{1.0, 1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(emc::imbalance_ratio(balanced), 1.0);
  const std::array<double, 4> skewed{4.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(emc::imbalance_ratio(skewed), 4.0);
}

TEST(Stats, AccumulatorMatchesSummary) {
  Rng rng(23);
  std::vector<double> xs;
  Accumulator acc;
  for (int i = 0; i < 1000; ++i) {
    xs.push_back(rng.uniform(-5.0, 5.0));
    acc.add(xs.back());
  }
  const Summary s = emc::summarize(xs);
  EXPECT_NEAR(acc.mean(), s.mean, 1e-10);
  EXPECT_NEAR(acc.stddev(), s.stddev, 1e-10);
  EXPECT_DOUBLE_EQ(acc.min(), s.min);
  EXPECT_DOUBLE_EQ(acc.max(), s.max);
}

TEST(HistogramTest, BinningAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  h.add(-1.0);
  h.add(0.0);
  h.add(5.5);
  h.add(9.999);
  h.add(10.0);
  h.add(42.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.total(), 6u);
}

TEST(HistogramTest, BinEdges) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 0.25);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 0.75);
}

TEST(HistogramTest, RenderContainsCounts) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(0.5);
  h.add(1.5);
  const std::string out = h.render(10);
  EXPECT_NE(out.find("2"), std::string::npos);
  EXPECT_NE(out.find("#"), std::string::npos);
}

TEST(TableTest, TextAlignmentAndContent) {
  Table t({"name", "value"});
  t.add_row({std::string("alpha"), std::int64_t{42}});
  t.add_row({std::string("b"), 3.14159});
  t.set_precision(2);
  const std::string text = t.to_text();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
  EXPECT_NE(text.find("3.14"), std::string::npos);
}

TEST(TableTest, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({std::string("only one")}), std::invalid_argument);
}

TEST(TableTest, EmptyHeadersThrow) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(CliTest, ParsesLongAndShortOptions) {
  Cli cli("prog", "test");
  std::int64_t n = 1;
  double x = 0.0;
  std::string s = "default";
  bool flag = false;
  cli.add_int("count", 'n', "a count", &n);
  cli.add_double("ratio", 'r', "a ratio", &x);
  cli.add_string("name", 's', "a name", &s);
  cli.add_flag("verbose", 'v', "verbosity", &flag);

  const char* argv[] = {"prog", "--count", "5", "-r", "2.5",
                        "--name=bob", "-v"};
  ASSERT_TRUE(cli.parse(7, argv));
  EXPECT_EQ(n, 5);
  EXPECT_DOUBLE_EQ(x, 2.5);
  EXPECT_EQ(s, "bob");
  EXPECT_TRUE(flag);
}

TEST(CliTest, RejectsUnknownOption) {
  Cli cli("prog", "test");
  const char* argv[] = {"prog", "--nope"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(CliTest, RejectsBadInt) {
  Cli cli("prog", "test");
  std::int64_t n = 0;
  cli.add_int("count", 'n', "a count", &n);
  const char* argv[] = {"prog", "--count", "abc"};
  EXPECT_FALSE(cli.parse(3, argv));
}

TEST(CliTest, IntOverloadRejectsOutOfRange) {
  Cli cli("prog", "test");
  int n = 3;
  cli.add_int("count", 'n', "a count", &n);
  const char* ok[] = {"prog", "--count=-7"};
  ASSERT_TRUE(cli.parse(2, ok));
  EXPECT_EQ(n, -7);
  const char* big[] = {"prog", "--count=4294967296"};
  EXPECT_FALSE(cli.parse(2, big));
  EXPECT_EQ(n, -7);
}

TEST(CliTest, MissingValueFails) {
  Cli cli("prog", "test");
  std::int64_t n = 0;
  cli.add_int("count", 'n', "a count", &n);
  const char* argv[] = {"prog", "--count"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(CliTest, HelpExitsZero) {
  Cli cli("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_EXIT(cli.parse(2, argv), ::testing::ExitedWithCode(0), "");
}

TEST(LogTest, LevelNamesAndThreshold) {
  using emc::LogLevel;
  EXPECT_STREQ(emc::log_level_name(LogLevel::kDebug), "DEBUG");
  EXPECT_STREQ(emc::log_level_name(LogLevel::kError), "ERROR");
  const LogLevel before = emc::log_level();
  emc::set_log_level(LogLevel::kError);
  EXPECT_EQ(emc::log_level(), LogLevel::kError);
  EMC_LOG(kDebug) << "suppressed by threshold";  // must not crash
  emc::set_log_level(before);
}

TEST(TableTest, CellAccessor) {
  Table t({"a", "b"});
  t.add_row({std::int64_t{7}, std::string("x")});
  EXPECT_EQ(std::get<std::int64_t>(t.at(0, 0)), 7);
  EXPECT_EQ(std::get<std::string>(t.at(0, 1)), "x");
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_THROW(t.at(1, 0), std::out_of_range);
}

TEST(TimerTest, MeasuresElapsedTime) {
  emc::Timer t;
  volatile double x = 0.0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GT(t.seconds(), 0.0);
  EXPECT_GE(t.nanos(), 0u);
}

TEST(LogTest, LineCarriesStampLevelAndThreadTag) {
  emc::set_log_thread_tag("r7");
  const std::string line =
      emc::detail::format_log_line(emc::LogLevel::kWarn, "hello");
  emc::set_log_thread_tag("");  // restore the automatic tag
  // Format: [WARN +<seconds>s r7] hello
  EXPECT_EQ(line.rfind("[WARN +", 0), 0u);
  EXPECT_NE(line.find("s r7] hello"), std::string::npos);
  const std::size_t plus = line.find('+');
  const std::size_t s = line.find("s ", plus);
  ASSERT_NE(s, std::string::npos);
  const double elapsed = std::stod(line.substr(plus + 1, s - plus - 1));
  EXPECT_GE(elapsed, 0.0);
  EXPECT_LT(elapsed, 3600.0);  // sane process-elapsed stamp
}

TEST(LogTest, AutomaticTagAssignedOnce) {
  emc::set_log_thread_tag("");
  const std::string first = emc::log_thread_tag();
  EXPECT_EQ(first.rfind('T', 0), 0u);
  EXPECT_EQ(emc::log_thread_tag(), first);  // stable across calls
  emc::set_log_thread_tag("custom");
  EXPECT_EQ(emc::log_thread_tag(), "custom");
  emc::set_log_thread_tag("");
}

TEST(MetricsTest, CounterGaugeHistogramRoundTrip) {
  emc::util::MetricsRegistry reg;
  reg.counter("ops").add(3);
  reg.counter("ops").add(2);
  reg.gauge("level").set(1.5);
  reg.gauge("level").add(0.25);
  reg.histogram("wait").record(1e-6);
  reg.histogram("wait").record(2e-6);
  reg.histogram("wait").record(1.0);

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("ops"), 5);
  EXPECT_DOUBLE_EQ(snap.gauges.at("level"), 1.75);
  const auto& h = snap.histograms.at("wait");
  EXPECT_EQ(h.count, 3);
  EXPECT_DOUBLE_EQ(h.min, 1e-6);
  EXPECT_DOUBLE_EQ(h.max, 1.0);
  EXPECT_NEAR(h.sum, 1.0 + 3e-6, 1e-12);
  std::int64_t binned = 0;
  for (const auto& [edge, count] : h.bins) binned += count;
  EXPECT_EQ(binned, 3);
}

TEST(MetricsTest, ResetZeroesButKeepsRegistrations) {
  emc::util::MetricsRegistry reg;
  emc::util::Counter& ops = reg.counter("ops");
  ops.add(10);
  reg.gauge("g").set(2.0);
  reg.histogram("h").record(0.5);
  reg.reset();
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(ops.value(), 0);  // outstanding reference still valid
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("ops"), 0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 0.0);
  EXPECT_EQ(snap.histograms.at("h").count, 0);
  ops.add(1);
  EXPECT_EQ(reg.counter("ops").value(), 1);
}

TEST(MetricsTest, NameCannotChangeKind) {
  emc::util::MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("x"), std::invalid_argument);
}

TEST(MetricsTest, SnapshotListsEveryCounterAndGauge) {
  emc::util::MetricsRegistry reg;
  reg.counter("a/ops").add(1);
  reg.gauge("b").set(0.5);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters.at("a/ops"), 1);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("b"), 0.5);
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(MetricsTest, HistogramBinsCoverWideRange) {
  emc::util::Histogram h;
  h.record(1e-13);  // near the lower clamp
  h.record(1e6);    // far above: clamps to the top bin
  EXPECT_EQ(h.count(), 2);
  const auto bins = h.bins();
  std::int64_t total = 0;
  for (std::int64_t b : bins) total += b;
  EXPECT_EQ(total, 2);
  EXPECT_GT(emc::util::Histogram::bin_lower_bound(1),
            emc::util::Histogram::bin_lower_bound(0));
}

TEST(MetricsTest, HistogramPercentilesTrackExactPercentiles) {
  // Log2-binned percentile estimates are bin-width-accurate: each must
  // land within a factor of 2 of the exact sample percentile computed by
  // util/stats.hpp, and inside the true sample range.
  emc::util::MetricsRegistry reg;
  emc::util::Histogram& h = reg.histogram("wait");
  Rng rng(123);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) {
    xs.push_back(std::exp(rng.uniform(-14.0, 0.0)));  // ~6e-7 .. 1
    h.record(xs.back());
  }
  const auto snap = reg.snapshot();
  const auto& hv = snap.histograms.at("wait");
  const struct {
    double q;
    double estimate;
  } cases[] = {{0.50, hv.p50}, {0.90, hv.p90}, {0.99, hv.p99}};
  for (const auto& c : cases) {
    const double exact = emc::percentile(xs, c.q);
    EXPECT_GE(c.estimate, exact / 2.0) << "q=" << c.q;
    EXPECT_LE(c.estimate, exact * 2.0) << "q=" << c.q;
    EXPECT_GE(c.estimate, hv.min);
    EXPECT_LE(c.estimate, hv.max);
  }
  EXPECT_LE(hv.p50, hv.p90);
  EXPECT_LE(hv.p90, hv.p99);

  // Degenerate single-value histogram: every percentile clamps to it.
  reg.histogram("point").record(0.25);
  const auto snap2 = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap2.histograms.at("point").p50, 0.25);
  EXPECT_DOUBLE_EQ(snap2.histograms.at("point").p99, 0.25);

  // The snapshot carries the estimates percentile() makes from its bins.
  EXPECT_EQ(hv.p50, hv.percentile(0.50));
  EXPECT_EQ(hv.p99, hv.percentile(0.99));
}

TEST(MetricsTest, HistogramSubBinsSharpenPercentiles) {
  // The log-linear sub-bins (kSubBins per log2 bin) bound the
  // percentile error by ~one sub-bin width instead of the old factor
  // of 2 — on a smooth heavy-tailed sample the estimate must sit
  // within 25% of the exact percentile (2 sub-bin widths of slack for
  // the convention difference between the cumulative-bin walk and
  // util/stats' interpolated sample percentile).
  emc::util::MetricsRegistry reg;
  emc::util::Histogram& h = reg.histogram("wait");
  Rng rng(123);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) {
    xs.push_back(std::exp(rng.uniform(-14.0, 0.0)));
    h.record(xs.back());
  }
  const auto snap = reg.snapshot();
  const auto& hv = snap.histograms.at("wait");
  for (const double q : {0.50, 0.90, 0.99}) {
    const double exact = emc::percentile(xs, q);
    const double estimate = hv.percentile(q);
    EXPECT_GE(estimate, exact * 0.75) << "q=" << q;
    EXPECT_LE(estimate, exact * 1.25) << "q=" << q;
  }
  // q = 0 and q = 1 are exact by the [min, max] clamp.
  EXPECT_DOUBLE_EQ(hv.percentile(0.0), hv.min);
  EXPECT_DOUBLE_EQ(hv.percentile(1.0), hv.max);
}

TEST(MetricsTest, HistogramPercentileResolvesWithinSubBin) {
  // Two spikes inside ONE log2 bin [1, 2): 1.0 lands in sub-bin
  // [1, 1.125), 1.9 in [1.875, 2). Pure log2 binning cannot separate
  // them at all; the sub-bins must.
  emc::util::MetricsRegistry reg;
  emc::util::Histogram& h = reg.histogram("spikes");
  for (int i = 0; i < 50; ++i) h.record(1.0);
  for (int i = 0; i < 50; ++i) h.record(1.9);
  const auto snap = reg.snapshot();
  const auto& hv = snap.histograms.at("spikes");
  // p50 resolves inside the first spike's sub-bin...
  EXPECT_GE(hv.p50, 1.0);
  EXPECT_LE(hv.p50, 1.125);
  // ...and p99 inside the second's — strictly below max, which the old
  // factor-of-2 estimate (clamped to max) could never do here.
  EXPECT_GE(hv.p99, 1.875);
  EXPECT_LT(hv.p99, 1.9);
}

TEST(MetricsTest, HistogramFineBinsAggregateToLog2BinsExactly) {
  // The exported log2 bins are the sub-bins summed in groups of
  // kSubBins — the bitwise-compatibility contract for snapshots, text,
  // and JSON reports (which never serialize the sub-bins).
  using emc::util::Histogram;
  Histogram h;
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    h.record(std::exp(rng.uniform(-20.0, 5.0)));
  }
  const auto coarse = h.bins();
  const auto fine = h.fine_bins();
  for (int b = 0; b < Histogram::kBins; ++b) {
    std::int64_t sum = 0;
    for (int s = 0; s < Histogram::kSubBins; ++s) {
      sum += fine[static_cast<std::size_t>(b * Histogram::kSubBins + s)];
    }
    EXPECT_EQ(coarse[static_cast<std::size_t>(b)], sum) << "bin " << b;
  }
  // Sub-bin edges tile each log2 bin exactly.
  for (int b = 0; b < Histogram::kBins; b += 13) {
    const int f0 = b * Histogram::kSubBins;
    EXPECT_DOUBLE_EQ(Histogram::fine_lower_bound(f0),
                     Histogram::bin_lower_bound(b));
    for (int s = 0; s + 1 < Histogram::kSubBins; ++s) {
      EXPECT_DOUBLE_EQ(Histogram::fine_upper_bound(f0 + s),
                       Histogram::fine_lower_bound(f0 + s + 1));
    }
    EXPECT_DOUBLE_EQ(Histogram::fine_upper_bound(f0 + Histogram::kSubBins - 1),
                     Histogram::bin_lower_bound(b + 1));
  }
  // The snapshot's exported bins keep log2 granularity; only `fine`
  // resolves the sub-bin.
  emc::util::MetricsRegistry reg;
  reg.histogram("x").record(1.5);
  const auto hv = reg.snapshot().histograms.at("x");
  ASSERT_EQ(hv.bins.size(), 1u);
  EXPECT_EQ(hv.bins[0].first, 1.0);
  EXPECT_EQ(hv.bins[0].second, 1);
  ASSERT_EQ(hv.fine.size(), 1u);
  EXPECT_EQ(hv.fine[0].first, 1.5);
}

TEST(MetricsTest, HistogramPercentileFallsBackToCoarseBins) {
  // Hand-built snapshot values (no `fine` vector) still estimate off
  // the log2 bins with the original factor-of-2 bound.
  emc::util::MetricsSnapshot::HistogramValue hv;
  hv.count = 4;
  hv.min = 1.0;
  hv.max = 8.0;
  hv.bins = {{1.0, 2}, {4.0, 2}};
  const double p50 = hv.percentile(0.50);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 2.0);
  const double p99 = hv.percentile(0.99);
  EXPECT_GE(p99, 4.0);
  EXPECT_LE(p99, 8.0);
}

TEST(JsonParserTest, ParsesStructuredDocument) {
  const emc::util::JsonValue doc = emc::util::parse_json(
      R"({"name": "run", "ok": true, "skip": null,
          "nums": [1, -2.5, 3e2], "nest": {"k": "v\n"}})");
  using Kind = emc::util::JsonValue::Kind;
  ASSERT_EQ(doc.kind, Kind::kObject);
  EXPECT_EQ(doc.object.at("name").str, "run");
  EXPECT_TRUE(doc.object.at("ok").boolean);
  EXPECT_EQ(doc.object.at("skip").kind, Kind::kNull);
  const auto& nums = doc.object.at("nums").array;
  ASSERT_EQ(nums.size(), 3u);
  EXPECT_DOUBLE_EQ(nums[0].number, 1.0);
  EXPECT_DOUBLE_EQ(nums[1].number, -2.5);
  EXPECT_DOUBLE_EQ(nums[2].number, 300.0);
  EXPECT_EQ(doc.object.at("nest").object.at("k").str, "v\n");
}

TEST(JsonParserTest, RejectsMalformedDocuments) {
  EXPECT_THROW(emc::util::parse_json("{\"a\": 1"), std::runtime_error);
  EXPECT_THROW(emc::util::parse_json("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(emc::util::parse_json("[1, 2] trailing"),
               std::runtime_error);
  EXPECT_THROW(emc::util::parse_json("\"unterminated"), std::runtime_error);
  EXPECT_THROW(emc::util::parse_json(""), std::runtime_error);
  EXPECT_THROW(emc::util::parse_json("{\"a\": bogus}"), std::runtime_error);
  // A number token must parse whole, not as its valid prefix.
  for (const char* bad : {"[1-2]", "[1.2.3]", "[1e5e5]"}) {
    EXPECT_THROW(emc::util::parse_json(bad), std::runtime_error)
        << "accepted: " << bad;
  }
}

TEST(JsonParserTest, RejectsNonFiniteNumberLiterals) {
  // The tokens unguarded C++ emitters actually stream for NaN/Inf, plus
  // an exponent that overflows to infinity inside strtod.
  for (const char* bad :
       {"nan", "-nan", "NaN", "inf", "-inf", "Infinity", "-Infinity",
        "[1, nan]", "{\"x\": inf}", "1e999"}) {
    EXPECT_THROW(emc::util::parse_json(bad), std::runtime_error)
        << "accepted: " << bad;
  }
}

TEST(JsonParserTest, BoundsNestingDepth) {
  // Hostile nesting fails with a message instead of overflowing the
  // recursive descent's stack; nesting up to the limit still parses.
  struct Nest {
    const char* open;
    const char* leaf;
    char close;
  };
  for (const Nest nest : {Nest{"[", "", ']'}, Nest{"{\"a\":", "1", '}'}}) {
    auto nested = [&nest](int depth, bool closed) {
      std::string doc;
      for (int i = 0; i < depth; ++i) doc += nest.open;
      doc += nest.leaf;
      if (closed) doc.append(static_cast<std::size_t>(depth), nest.close);
      return doc;
    };
    EXPECT_THROW(emc::util::parse_json(nested(100000, false)),
                 std::runtime_error)
        << nest.open;
    const int limit = emc::util::kMaxJsonDepth;
    EXPECT_NO_THROW(emc::util::parse_json(nested(limit, true))) << nest.open;
    EXPECT_THROW(emc::util::parse_json(nested(limit + 1, true)),
                 std::runtime_error)
        << nest.open;
  }
}

TEST(JsonWriterTest, NonFiniteDoublesEmitNull) {
  std::ostringstream out;
  emc::bench::JsonWriter w(out);
  w.begin_object();
  w.field("finite", 1.5);
  w.field("not_a_number", std::numeric_limits<double>::quiet_NaN());
  w.field("too_big", std::numeric_limits<double>::infinity());
  w.begin_array("series");
  w.value(0.25);
  w.value(-std::numeric_limits<double>::infinity());
  w.end_array();
  w.end_object();

  // The strict parser is the oracle: a raw nan/inf token would throw.
  using Kind = emc::util::JsonValue::Kind;
  const emc::util::JsonValue doc = emc::util::parse_json(out.str());
  EXPECT_DOUBLE_EQ(doc.object.at("finite").number, 1.5);
  EXPECT_EQ(doc.object.at("not_a_number").kind, Kind::kNull);
  EXPECT_EQ(doc.object.at("too_big").kind, Kind::kNull);
  const auto& series = doc.object.at("series").array;
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0].number, 0.25);
  EXPECT_EQ(series[1].kind, Kind::kNull);
}

TEST(JsonEscapeTest, RoundTripsThroughStrictParser) {
  // Every writer escapes via json_escape; the parser must give the
  // original bytes back for quotes, backslashes, and control chars.
  const std::string nasty =
      "quote\" backslash\\ newline\n tab\t cr\r bell\x07 del\x1f end";
  const emc::util::JsonValue doc = emc::util::parse_json(
      "{" + emc::util::json_quote("key\n\"k\"") + ": " +
      emc::util::json_quote(nasty) + "}");
  ASSERT_TRUE(doc.has("key\n\"k\""));
  EXPECT_EQ(doc.object.at("key\n\"k\"").str, nasty);
}

TEST(JsonEscapeTest, ControlCharsBecomeUnicodeEscapes) {
  const std::string escaped = emc::util::json_escape("\x01\x1f");
  EXPECT_EQ(escaped, "\\u0001\\u001f");
}

TEST(JsonEscapeTest, WriterEscapesKeysAndValues) {
  std::ostringstream out;
  emc::bench::JsonWriter w(out);
  w.begin_object();
  w.field("na\"me", "va\\lue\n");
  w.end_object();
  const emc::util::JsonValue doc = emc::util::parse_json(out.str());
  EXPECT_EQ(doc.object.at("na\"me").str, "va\\lue\n");
}

TEST(FormatDoubleTest, RoundTripsExactBits) {
  for (const double v :
       {0.1, 1.0 / 3.0, 1e-300, 1.7976931348623157e308, -2.5,
        123456789.123456789, 6.02214076e23, 1.008635}) {
    const std::string s = emc::util::format_double(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
  EXPECT_EQ(emc::util::format_double(1.5), "1.5");
  EXPECT_EQ(emc::util::format_double(-0.0), "-0");
}

TEST(FormatDoubleTest, ParserRoundTripIsExact) {
  const double v = 0.036356915000000004;  // needs 17 digits
  const emc::util::JsonValue doc =
      emc::util::parse_json("[" + emc::util::format_double(v) + "]");
  EXPECT_EQ(doc.array[0].number, v);
}

TEST(MetricsTest, HistogramSnapshotCarriesMean) {
  emc::util::MetricsRegistry reg;
  auto& h = reg.histogram("lat");
  h.record(1.0);
  h.record(3.0);
  const auto snap = reg.snapshot();
  const auto& hv = snap.histograms.at("lat");
  EXPECT_DOUBLE_EQ(hv.mean, 2.0);
  EXPECT_DOUBLE_EQ(hv.min, 1.0);
  EXPECT_DOUBLE_EQ(hv.max, 3.0);
  EXPECT_DOUBLE_EQ(hv.sum, 4.0);
  EXPECT_EQ(hv.count, 2);
}

TEST(MetricsTest, SnapshotAfterJoinIsExact) {
  // Regression test for the snapshot-after-join contract
  // (MetricsRegistry::snapshot doc): metric updates are relaxed
  // atomics, so a snapshot is only guaranteed exact and mutually
  // consistent once the writing threads have joined. Hammer one
  // counter, one gauge, and one histogram from several threads, join,
  // and demand every aggregate agrees with arithmetic — including the
  // histogram's count == sum of its bin counts, the first thing a
  // mid-run snapshot would tear.
  emc::util::MetricsRegistry reg;
  emc::util::Counter& counter = reg.counter("join/counter");
  emc::util::Gauge& gauge = reg.gauge("join/gauge");
  emc::util::Histogram& hist = reg.histogram("join/hist");

  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  for (int round = 0; round < 3; ++round) {
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (int i = 0; i < kIters; ++i) {
          counter.add(1);
          gauge.add(1.0);
          hist.record(static_cast<double>((t % 4) + 1));
        }
      });
    }
    for (auto& w : writers) w.join();  // happens-before the snapshot

    const auto snap = reg.snapshot();
    const std::int64_t expected =
        static_cast<std::int64_t>(kThreads) * kIters * (round + 1);
    EXPECT_EQ(snap.counters.at("join/counter"), expected);
    EXPECT_DOUBLE_EQ(snap.gauges.at("join/gauge"),
                     static_cast<double>(expected));
    const auto& h = snap.histograms.at("join/hist");
    EXPECT_EQ(h.count, expected);
    std::int64_t binned = 0;
    for (const auto& [edge, count] : h.bins) binned += count;
    EXPECT_EQ(binned, h.count) << "torn histogram: bins disagree with count";
    // Sum of small integers is exact in double.
    EXPECT_DOUBLE_EQ(h.sum, static_cast<double>(kThreads / 4) * kIters *
                                (1.0 + 2.0 + 3.0 + 4.0) * (round + 1));
  }
}

}  // namespace
