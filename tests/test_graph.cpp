// Tests for hypergraphs and the random hypergraph generator.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/hypergraph.hpp"
#include "util/rng.hpp"

namespace {

using emc::Rng;
using emc::graph::Hypergraph;
using emc::graph::NetId;
using emc::graph::VertexId;

TEST(HypergraphTest, PinAndDualConsistency) {
  Hypergraph::Builder b(5);
  const NetId e0 = b.add_net({0, 1, 2});
  const NetId e1 = b.add_net({2, 3});
  const Hypergraph h = b.build();

  EXPECT_EQ(h.vertex_count(), 5);
  EXPECT_EQ(h.net_count(), 2);
  EXPECT_EQ(h.pin_count(), 5u);
  EXPECT_EQ(h.pins(e0).size(), 3u);
  EXPECT_EQ(h.pins(e1).size(), 2u);

  // Dual: vertex 2 appears in both nets; vertex 4 in none.
  EXPECT_EQ(h.nets_of(2).size(), 2u);
  EXPECT_EQ(h.nets_of(4).size(), 0u);
  // Every (net, pin) pair appears in the dual.
  for (NetId e = 0; e < h.net_count(); ++e) {
    for (VertexId v : h.pins(e)) {
      const auto nets = h.nets_of(v);
      EXPECT_NE(std::find(nets.begin(), nets.end(), e), nets.end());
    }
  }
}

TEST(HypergraphTest, DuplicatePinsDeduped) {
  Hypergraph::Builder b(3);
  b.add_net({1, 1, 2, 2});
  const Hypergraph h = b.build();
  EXPECT_EQ(h.pins(0).size(), 2u);
}

TEST(HypergraphTest, OutOfRangePinThrows) {
  Hypergraph::Builder b(2);
  EXPECT_THROW(b.add_net({0, 7}), std::out_of_range);
}

TEST(HypergraphTest, ConnectivityCut) {
  Hypergraph::Builder b(4);
  b.add_net({0, 1}, 2.0);      // net A
  b.add_net({0, 1, 2, 3});     // net B
  b.add_net({2, 3});           // net C
  const Hypergraph h = b.build();

  // Partition {0,1} | {2,3}: A uncut, B spans 2 parts (cost 1), C uncut.
  const std::vector<int> part{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(h.connectivity_cut(part, 2), 1.0);

  // Partition {0,2} | {1,3}: A cut (2.0), B cut (1.0), C cut (1.0).
  const std::vector<int> bad{0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(h.connectivity_cut(bad, 2), 4.0);

  // All in one part: no cut.
  const std::vector<int> one{0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(h.connectivity_cut(one, 2), 0.0);
}

TEST(HypergraphTest, ConnectivityCutFourParts) {
  Hypergraph::Builder b(4);
  b.add_net({0, 1, 2, 3}, 3.0);
  const Hypergraph h = b.build();
  const std::vector<int> spread{0, 1, 2, 3};
  // lambda = 4 -> cost w * 3.
  EXPECT_DOUBLE_EQ(h.connectivity_cut(spread, 4), 9.0);
}

TEST(RandomHypergraphTest, ShapeAndWeights) {
  Rng rng(11);
  const Hypergraph h =
      emc::graph::make_random_hypergraph(30, 20, 4, 0.1, 10.0, rng);
  EXPECT_EQ(h.vertex_count(), 30);
  EXPECT_EQ(h.net_count(), 20);
  for (NetId e = 0; e < h.net_count(); ++e) {
    EXPECT_EQ(h.pins(e).size(), 4u);
  }
  for (VertexId v = 0; v < h.vertex_count(); ++v) {
    EXPECT_GE(h.vertex_weight(v), 0.1);
    EXPECT_LE(h.vertex_weight(v), 10.0);
  }
}

}  // namespace
