// Multilevel hypergraph partitioner tests: validity, balance, cut
// quality versus naive splits, determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/hypergraph.hpp"
#include "lb/hypergraph_partition.hpp"
#include "lb/simple.hpp"
#include "util/rng.hpp"

namespace {

using namespace emc::lb;
using emc::Rng;
using emc::graph::Hypergraph;
using emc::graph::NetId;
using emc::graph::VertexId;

std::vector<double> vertex_weights(const Hypergraph& h) {
  std::vector<double> w(static_cast<std::size_t>(h.vertex_count()));
  for (VertexId v = 0; v < h.vertex_count(); ++v) {
    w[static_cast<std::size_t>(v)] = h.vertex_weight(v);
  }
  return w;
}

TEST(HgPartitionTest, TrivialCases) {
  Hypergraph::Builder b(4);
  b.add_net({0, 1});
  const Hypergraph h = b.build();

  HgPartitionOptions one;
  one.n_parts = 1;
  const auto part1 = partition_hypergraph(h, one);
  for (int p : part1) EXPECT_EQ(p, 0);

  HgPartitionOptions bad;
  bad.n_parts = 0;
  EXPECT_THROW(partition_hypergraph(h, bad), std::invalid_argument);
}

TEST(HgPartitionTest, EveryVertexGetsValidPart) {
  Rng rng(3);
  const Hypergraph h =
      emc::graph::make_random_hypergraph(120, 80, 4, 0.5, 4.0, rng);
  HgPartitionOptions options;
  options.n_parts = 6;
  const auto part = partition_hypergraph(h, options);
  ASSERT_EQ(part.size(), 120u);
  std::set<int> used;
  for (int p : part) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 6);
    used.insert(p);
  }
  EXPECT_EQ(used.size(), 6u);  // no empty parts on this size
}

TEST(HgPartitionTest, BalanceWithinTolerance) {
  Rng rng(5);
  const Hypergraph h =
      emc::graph::make_random_hypergraph(200, 150, 3, 1.0, 1.0, rng);
  HgPartitionOptions options;
  options.n_parts = 4;
  options.epsilon = 0.10;
  const auto part = partition_hypergraph(h, options);
  const auto w = vertex_weights(h);
  Assignment a(part.begin(), part.end());
  // Unit weights, 200 vertices over 4 parts: mean 50; recursive bisection
  // with per-level slack can compound, so allow a loose envelope.
  EXPECT_LT(imbalance(w, a, 4), 1.35);
}

TEST(HgPartitionTest, CutsGridCheaperThanRandomSplit) {
  // A 2D grid modeled as a hypergraph (one net per edge). The partitioner
  // should find a far cheaper cut than a cyclic striping.
  const int rows = 12, cols = 12;
  Hypergraph::Builder b(rows * cols);
  for (VertexId r = 0; r < rows; ++r) {
    for (VertexId c = 0; c < cols; ++c) {
      const VertexId v = r * cols + c;
      if (c + 1 < cols) b.add_net({v, v + 1});
      if (r + 1 < rows) b.add_net({v, v + cols});
    }
  }
  const Hypergraph h = b.build();

  HgPartitionOptions options;
  options.n_parts = 2;
  const auto part = partition_hypergraph(h, options);
  const double cut = h.connectivity_cut(part, 2);

  const auto striped = cyclic_assignment(
      static_cast<std::size_t>(h.vertex_count()), 2);
  const std::vector<int> striped_part(striped.begin(), striped.end());
  const double striped_cut = h.connectivity_cut(striped_part, 2);

  // A clean bisection of a 12x12 grid cuts ~12 edges; striping cuts ~all.
  EXPECT_LT(cut, 0.25 * striped_cut);
  EXPECT_LE(cut, 3.0 * rows);
}

TEST(HgPartitionTest, DeterministicForFixedSeed) {
  Rng rng(7);
  const Hypergraph h =
      emc::graph::make_random_hypergraph(90, 60, 4, 0.5, 2.0, rng);
  HgPartitionOptions options;
  options.n_parts = 3;
  options.seed = 1234;
  const auto a = partition_hypergraph(h, options);
  const auto b = partition_hypergraph(h, options);
  EXPECT_EQ(a, b);
}

TEST(HgPartitionTest, MorePartsThanVertices) {
  Hypergraph::Builder b(3);
  b.add_net({0, 1, 2});
  const Hypergraph h = b.build();
  HgPartitionOptions options;
  options.n_parts = 8;
  const auto part = partition_hypergraph(h, options);
  // Validity is what matters; parts may be empty.
  for (int p : part) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 8);
  }
}

TEST(HgBalanceTest, WrapperReportsTiming) {
  Rng rng(11);
  const Hypergraph h =
      emc::graph::make_random_hypergraph(150, 100, 4, 0.5, 5.0, rng);
  const BalanceResult r = hypergraph_balance(h, 4);
  EXPECT_EQ(r.algorithm, "hypergraph");
  EXPECT_GT(r.balance_seconds, 0.0);
  validate_assignment(r.assignment, 4);
  EXPECT_EQ(r.assignment.size(), 150u);
}

class HgPartsSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(HgPartsSweepTest, ValidAcrossPartCounts) {
  Rng rng(13);
  const Hypergraph h =
      emc::graph::make_random_hypergraph(160, 120, 4, 0.5, 3.0, rng);
  HgPartitionOptions options;
  options.n_parts = GetParam();
  const auto part = partition_hypergraph(h, options);
  Assignment a(part.begin(), part.end());
  validate_assignment(a, options.n_parts);
  // Every part id in range and cut is finite/consistent.
  const double cut = h.connectivity_cut(part, options.n_parts);
  EXPECT_GE(cut, 0.0);
}

INSTANTIATE_TEST_SUITE_P(PartCounts, HgPartsSweepTest,
                         ::testing::Values(2, 3, 4, 5, 8, 16));

}  // namespace
