// Invariants of the scoped-span profiler: nesting and exclusive-time
// accounting, disabled-mode inertness, multi-thread merging, reset, and
// the JSON / Chrome-trace exports (both must satisfy the strict
// parser).
//
// The profiler is process-global, so every test begins with
// set_enabled + reset and ends disabled; tests run single-binary so
// the shared state is sequenced by gtest.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/json.hpp"
#include "util/profiler.hpp"

namespace {

using emc::util::ProfileSpanStats;
using emc::util::Profiler;

const ProfileSpanStats* find(const std::vector<ProfileSpanStats>& spans,
                             const std::string& path) {
  for (const auto& s : spans) {
    if (s.path == path) return &s;
  }
  return nullptr;
}

void spin_for_ns(std::int64_t ns) {
  const auto start = std::chrono::steady_clock::now();
  while ((std::chrono::steady_clock::now() - start).count() < ns) {
  }
}

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler::global().set_enabled(true);
    Profiler::global().reset();
  }
  void TearDown() override { Profiler::global().set_enabled(false); }
};

TEST_F(ProfilerTest, RecordsCallsAndNesting) {
  for (int i = 0; i < 3; ++i) {
    EMC_PROF_SPAN("outer");
    {
      EMC_PROF_SPAN("inner");
      spin_for_ns(100000);
    }
    {
      EMC_PROF_SPAN("inner");
      spin_for_ns(100000);
    }
  }
  const auto spans = Profiler::global().aggregate();
  const auto* outer = find(spans, "outer");
  const auto* inner = find(spans, "outer/inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->calls, 3);
  EXPECT_EQ(inner->calls, 6);  // same path from two scopes merges
  EXPECT_EQ(outer->depth, 1);
  EXPECT_EQ(inner->depth, 2);
  EXPECT_EQ(inner->name, "inner");
}

TEST_F(ProfilerTest, ExclusiveIsInclusiveMinusChildren) {
  {
    EMC_PROF_SPAN("parent");
    spin_for_ns(200000);
    {
      EMC_PROF_SPAN("child");
      spin_for_ns(200000);
    }
  }
  const auto spans = Profiler::global().aggregate();
  const auto* parent = find(spans, "parent");
  const auto* child = find(spans, "parent/child");
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_GE(parent->inclusive_s, child->inclusive_s);
  EXPECT_NEAR(parent->exclusive_s,
              parent->inclusive_s - child->inclusive_s, 1e-12);
  EXPECT_GE(parent->exclusive_s, 0.0);
  // The child has no children: exclusive == inclusive.
  EXPECT_DOUBLE_EQ(child->exclusive_s, child->inclusive_s);
}

TEST_F(ProfilerTest, DepthFirstOrderParentBeforeChild) {
  {
    EMC_PROF_SPAN("a");
    { EMC_PROF_SPAN("b"); }
  }
  { EMC_PROF_SPAN("z"); }
  const auto spans = Profiler::global().aggregate();
  const auto pos = [&](const std::string& path) {
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].path == path) return static_cast<std::ptrdiff_t>(i);
    }
    return static_cast<std::ptrdiff_t>(-1);
  };
  ASSERT_GE(pos("a"), 0);
  ASSERT_GE(pos("a/b"), 0);
  ASSERT_GE(pos("z"), 0);
  EXPECT_EQ(pos("a/b"), pos("a") + 1);
}

TEST_F(ProfilerTest, DisabledRecordsNothing) {
  Profiler::global().set_enabled(false);
  { EMC_PROF_SPAN("ghost"); }
  Profiler::global().set_enabled(true);
  const auto spans = Profiler::global().aggregate();
  EXPECT_EQ(find(spans, "ghost"), nullptr);
}

TEST_F(ProfilerTest, ResetZeroesEverything) {
  { EMC_PROF_SPAN("work"); }
  ASSERT_NE(find(Profiler::global().aggregate(), "work"), nullptr);
  Profiler::global().reset();
  const auto spans = Profiler::global().aggregate();
  const auto* work = find(spans, "work");
  if (work != nullptr) {
    EXPECT_EQ(work->calls, 0);
    EXPECT_DOUBLE_EQ(work->inclusive_s, 0.0);
  }
}

TEST_F(ProfilerTest, MergesAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kIters = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kIters; ++i) {
        EMC_PROF_SPAN("worker");
        EMC_PROF_SPAN("step");
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto spans = Profiler::global().aggregate();
  const auto* worker = find(spans, "worker");
  const auto* step = find(spans, "worker/step");
  ASSERT_NE(worker, nullptr);
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(worker->calls, kThreads * kIters);
  EXPECT_EQ(step->calls, kThreads * kIters);
}

TEST_F(ProfilerTest, JsonExportParsesStrict) {
  {
    EMC_PROF_SPAN("fock/build_g");
    { EMC_PROF_SPAN("pgas/get"); }
  }
  std::ostringstream out;
  Profiler::global().write_json(out);
  const emc::util::JsonValue doc = emc::util::parse_json(out.str());
  ASSERT_TRUE(doc.has("enabled"));
  EXPECT_TRUE(doc.object.at("enabled").boolean);
  ASSERT_TRUE(doc.has("spans"));
  const auto& spans = doc.object.at("spans").array;
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].object.at("path").str, "fock/build_g");
  EXPECT_EQ(spans[1].object.at("path").str, "fock/build_g/pgas/get");
  EXPECT_EQ(spans[1].object.at("depth").number, 2.0);
}

TEST_F(ProfilerTest, SpanOpenAcrossDisableStillCloses) {
  // Disabling mid-span must not corrupt the tree: the open span closes
  // into its node regardless of the flag at exit.
  {
    EMC_PROF_SPAN("long_lived");
    Profiler::global().set_enabled(false);
  }
  Profiler::global().set_enabled(true);
  const auto spans = Profiler::global().aggregate();
  const auto* s = find(spans, "long_lived");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->calls, 1);
}

}  // namespace
