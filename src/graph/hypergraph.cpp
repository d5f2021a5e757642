#include "graph/hypergraph.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

namespace emc::graph {

Hypergraph::Builder::Builder(VertexId n_vertices)
    : n_(n_vertices),
      vertex_weights_(static_cast<std::size_t>(n_vertices), 1.0) {
  if (n_vertices < 0) {
    throw std::invalid_argument("Hypergraph: negative vertex count");
  }
}

NetId Hypergraph::Builder::add_net(std::vector<VertexId> pins,
                                   double weight) {
  for (VertexId v : pins) {
    if (v < 0 || v >= n_) {
      throw std::out_of_range("Hypergraph: pin out of range");
    }
  }
  std::sort(pins.begin(), pins.end());
  pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
  nets_.push_back(std::move(pins));
  net_weights_.push_back(weight);
  return static_cast<NetId>(nets_.size()) - 1;
}

void Hypergraph::Builder::set_vertex_weight(VertexId v, double w) {
  vertex_weights_.at(static_cast<std::size_t>(v)) = w;
}

Hypergraph Hypergraph::Builder::build() {
  Hypergraph h;
  h.vertex_weights_ = std::move(vertex_weights_);
  h.net_weights_ = std::move(net_weights_);

  h.net_offsets_.resize(nets_.size() + 1, 0);
  for (std::size_t e = 0; e < nets_.size(); ++e) {
    h.net_offsets_[e + 1] = h.net_offsets_[e] + nets_[e].size();
  }
  h.pins_.reserve(h.net_offsets_.back());
  for (const auto& net : nets_) {
    h.pins_.insert(h.pins_.end(), net.begin(), net.end());
  }

  // Dual direction: nets per vertex.
  const auto nv = h.vertex_weights_.size();
  h.vertex_offsets_.assign(nv + 1, 0);
  for (VertexId v : h.pins_) {
    ++h.vertex_offsets_[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t v = 0; v < nv; ++v) {
    h.vertex_offsets_[v + 1] += h.vertex_offsets_[v];
  }
  h.vertex_nets_.resize(h.pins_.size());
  std::vector<std::size_t> cursor(h.vertex_offsets_.begin(),
                                  h.vertex_offsets_.end() - 1);
  for (std::size_t e = 0; e < nets_.size(); ++e) {
    for (VertexId v : nets_[e]) {
      h.vertex_nets_[cursor[static_cast<std::size_t>(v)]++] =
          static_cast<NetId>(e);
    }
  }
  return h;
}

double Hypergraph::total_vertex_weight() const {
  double s = 0.0;
  for (double w : vertex_weights_) s += w;
  return s;
}

double Hypergraph::connectivity_cut(std::span<const int> part,
                                    int n_parts) const {
  if (part.size() != vertex_weights_.size()) {
    throw std::invalid_argument("connectivity_cut: partition size mismatch");
  }
  double cut = 0.0;
  std::vector<int> seen_mark(static_cast<std::size_t>(n_parts), -1);
  for (NetId e = 0; e < net_count(); ++e) {
    int lambda = 0;
    for (VertexId v : pins(e)) {
      const int p = part[static_cast<std::size_t>(v)];
      if (p < 0 || p >= n_parts) {
        throw std::out_of_range("connectivity_cut: part id out of range");
      }
      if (seen_mark[static_cast<std::size_t>(p)] != e) {
        seen_mark[static_cast<std::size_t>(p)] = e;
        ++lambda;
      }
    }
    if (lambda > 1) {
      cut += net_weight(e) * static_cast<double>(lambda - 1);
    }
  }
  return cut;
}

Hypergraph make_random_hypergraph(VertexId n_vertices, NetId n_nets,
                                  int pins_per_net, double w_lo, double w_hi,
                                  emc::Rng& rng) {
  if (pins_per_net > n_vertices) {
    throw std::invalid_argument("make_random_hypergraph: too many pins");
  }
  Hypergraph::Builder b(n_vertices);
  const double log_lo = std::log(w_lo), log_hi = std::log(w_hi);
  for (VertexId v = 0; v < n_vertices; ++v) {
    b.set_vertex_weight(v, std::exp(rng.uniform(log_lo, log_hi)));
  }
  for (NetId e = 0; e < n_nets; ++e) {
    std::set<VertexId> pins;
    while (static_cast<int>(pins.size()) < pins_per_net) {
      pins.insert(static_cast<VertexId>(
          rng.below(static_cast<std::uint64_t>(n_vertices))));
    }
    b.add_net(std::vector<VertexId>(pins.begin(), pins.end()));
  }
  return b.build();
}

}  // namespace emc::graph
