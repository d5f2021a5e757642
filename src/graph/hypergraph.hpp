#pragma once

// Weighted hypergraph: vertices (tasks) and nets (hyperedges grouping the
// tasks that touch a shared datum, e.g. a Fock-matrix block). Stored as
// dual CSR (pins per net, nets per vertex) so both directions iterate in
// O(degree).

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace emc::graph {

using VertexId = std::int32_t;
using NetId = std::int32_t;

class Hypergraph {
 public:
  class Builder {
   public:
    explicit Builder(VertexId n_vertices);

    /// Adds a net over the given pins (duplicates within a net are
    /// removed). Empty or singleton nets are allowed but carry no cut
    /// cost. Returns the net id.
    NetId add_net(std::vector<VertexId> pins, double weight = 1.0);
    void set_vertex_weight(VertexId v, double w);

    Hypergraph build();

   private:
    VertexId n_;
    std::vector<std::vector<VertexId>> nets_;
    std::vector<double> net_weights_;
    std::vector<double> vertex_weights_;
  };

  VertexId vertex_count() const {
    return static_cast<VertexId>(vertex_weights_.size());
  }
  NetId net_count() const {
    return static_cast<NetId>(net_offsets_.size()) - 1;
  }
  std::size_t pin_count() const { return pins_.size(); }

  std::span<const VertexId> pins(NetId e) const {
    return {pins_.data() + net_offsets_[static_cast<std::size_t>(e)],
            pins_.data() + net_offsets_[static_cast<std::size_t>(e) + 1]};
  }
  std::span<const NetId> nets_of(VertexId v) const {
    return {vertex_nets_.data() +
                vertex_offsets_[static_cast<std::size_t>(v)],
            vertex_nets_.data() +
                vertex_offsets_[static_cast<std::size_t>(v) + 1]};
  }
  double net_weight(NetId e) const {
    return net_weights_[static_cast<std::size_t>(e)];
  }
  double vertex_weight(VertexId v) const {
    return vertex_weights_[static_cast<std::size_t>(v)];
  }
  double total_vertex_weight() const;

  /// Connectivity-1 cut metric: sum over nets of w(e) * (lambda(e) - 1),
  /// where lambda(e) is the number of distinct parts the net's pins span
  /// under `part` (the standard hypergraph partitioning objective).
  double connectivity_cut(std::span<const int> part, int n_parts) const;

 private:
  Hypergraph() = default;

  std::vector<std::size_t> net_offsets_;
  std::vector<VertexId> pins_;
  std::vector<double> net_weights_;
  std::vector<std::size_t> vertex_offsets_;
  std::vector<NetId> vertex_nets_;
  std::vector<double> vertex_weights_;
};

/// Random k-uniform hypergraph: `n_nets` nets of `pins_per_net` distinct
/// pins each, vertex weights drawn log-uniformly in [w_lo, w_hi] to mimic
/// heavy-tailed task costs.
Hypergraph make_random_hypergraph(VertexId n_vertices, NetId n_nets,
                                  int pins_per_net, double w_lo, double w_hi,
                                  emc::Rng& rng);

}  // namespace emc::graph
