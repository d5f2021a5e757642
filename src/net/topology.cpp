#include "net/topology.hpp"

#include <cmath>
#include <stdexcept>

namespace emc::net {

const char* topology_name(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kLegacyFlat:
      return "flat";
    case TopologyKind::kCrossbar:
      return "crossbar";
    case TopologyKind::kFatTree:
      return "fat-tree";
    case TopologyKind::kTorus:
      return "torus";
  }
  return "?";
}

TopologyKind parse_topology(const std::string& name) {
  if (name == "flat" || name == "legacy") return TopologyKind::kLegacyFlat;
  if (name == "crossbar") return TopologyKind::kCrossbar;
  if (name == "fat-tree" || name == "fattree") return TopologyKind::kFatTree;
  if (name == "torus") return TopologyKind::kTorus;
  throw std::invalid_argument("unknown topology '" + name + "'");
}

namespace {

// Link-id layout. Every topology with links gives each node an up
// (injection) and down (ejection) NIC link first, so endpoint fan-in
// contention is modelled uniformly; fabric links follow.
//   crossbar:  [0, n)        nic-up,   [n, 2n)       nic-down
//   fat-tree:  as crossbar, then [2n, 2n+s) leaf-up, [2n+s, 2n+2s)
//              leaf-down for s leaf switches
//   torus:     4 directed links per grid cell: id = cell * 4 + dir with
//              dir 0 = +x, 1 = -x, 2 = +y, 3 = -y
constexpr int kTorusDirs = 4;

}  // namespace

Topology Topology::build(const NetworkConfig& config, int n_nodes) {
  if (n_nodes < 1) {
    throw std::invalid_argument("Topology: n_nodes < 1");
  }
  Topology topo;
  topo.kind_ = config.topology;
  topo.n_nodes_ = n_nodes;
  switch (config.topology) {
    case TopologyKind::kLegacyFlat:
      return topo;
    case TopologyKind::kCrossbar:
      topo.capacity_.assign(static_cast<std::size_t>(2 * n_nodes), 1);
      return topo;
    case TopologyKind::kFatTree: {
      if (config.nodes_per_switch < 1) {
        throw std::invalid_argument("Topology: nodes_per_switch < 1");
      }
      if (config.oversubscription < 1) {
        throw std::invalid_argument("Topology: oversubscription < 1");
      }
      topo.nodes_per_switch_ = config.nodes_per_switch;
      topo.n_switches_ = (n_nodes + config.nodes_per_switch - 1) /
                         config.nodes_per_switch;
      // Trunked uplink capacity in NIC-widths; an oversubscription of k
      // means k nodes share one uplink lane.
      const int trunk = std::max(
          1, config.nodes_per_switch / config.oversubscription);
      topo.capacity_.assign(
          static_cast<std::size_t>(2 * n_nodes + 2 * topo.n_switches_), 1);
      for (int s = 0; s < 2 * topo.n_switches_; ++s) {
        topo.capacity_[static_cast<std::size_t>(2 * n_nodes + s)] = trunk;
      }
      return topo;
    }
    case TopologyKind::kTorus: {
      int x = config.torus_x;
      int y = config.torus_y;
      if (x <= 0 || y <= 0) {
        x = static_cast<int>(std::ceil(std::sqrt(
            static_cast<double>(n_nodes))));
        y = (n_nodes + x - 1) / x;
      }
      if (x * y < n_nodes) {
        throw std::invalid_argument(
            "Topology: torus grid smaller than node count");
      }
      topo.torus_x_ = x;
      topo.torus_y_ = y;
      topo.capacity_.assign(static_cast<std::size_t>(x * y * kTorusDirs),
                            1);
      return topo;
    }
  }
  throw std::invalid_argument("Topology: unknown kind");
}

std::string Topology::link_name(int link) const {
  switch (kind_) {
    case TopologyKind::kLegacyFlat:
      break;
    case TopologyKind::kCrossbar:
    case TopologyKind::kFatTree: {
      if (link < n_nodes_) {
        return "nic-up[" + std::to_string(link) + "]";
      }
      if (link < 2 * n_nodes_) {
        return "nic-down[" + std::to_string(link - n_nodes_) + "]";
      }
      const int s = link - 2 * n_nodes_;
      if (s < n_switches_) {
        return "leaf-up[" + std::to_string(s) + "]";
      }
      return "leaf-down[" + std::to_string(s - n_switches_) + "]";
    }
    case TopologyKind::kTorus: {
      static const char* kDir[] = {"+x", "-x", "+y", "-y"};
      return "torus[" + std::to_string(link / kTorusDirs) + "]" +
             kDir[link % kTorusDirs];
    }
  }
  return "link[" + std::to_string(link) + "]";
}

void Topology::route(int a, int b, std::vector<int>& out) const {
  if (a == b || kind_ == TopologyKind::kLegacyFlat) return;
  switch (kind_) {
    case TopologyKind::kLegacyFlat:
      return;
    case TopologyKind::kCrossbar:
      out.push_back(a);              // nic-up[a]
      out.push_back(n_nodes_ + b);   // nic-down[b]
      return;
    case TopologyKind::kFatTree: {
      const int sa = a / nodes_per_switch_;
      const int sb = b / nodes_per_switch_;
      out.push_back(a);
      if (sa != sb) {
        out.push_back(2 * n_nodes_ + sa);                 // leaf-up[sa]
        out.push_back(2 * n_nodes_ + n_switches_ + sb);   // leaf-down[sb]
      }
      out.push_back(n_nodes_ + b);
      return;
    }
    case TopologyKind::kTorus: {
      // Dimension-order routing with shortest wrap direction (ties go
      // positive). Links may cross grid cells that hold no node; only
      // the wiring matters.
      int cx = a % torus_x_;
      int cy = a / torus_x_;
      const int tx = b % torus_x_;
      const int ty = b / torus_x_;
      auto step = [](int from, int to, int size) {
        const int fwd = (to - from + size) % size;
        const int back = (from - to + size) % size;
        return fwd <= back ? +1 : -1;
      };
      while (cx != tx) {
        const int dir = step(cx, tx, torus_x_);
        out.push_back((cy * torus_x_ + cx) * kTorusDirs +
                      (dir > 0 ? 0 : 1));
        cx = (cx + dir + torus_x_) % torus_x_;
      }
      while (cy != ty) {
        const int dir = step(cy, ty, torus_y_);
        out.push_back((cy * torus_x_ + cx) * kTorusDirs +
                      (dir > 0 ? 2 : 3));
        cy = (cy + dir + torus_y_) % torus_y_;
      }
      return;
    }
  }
}

int Topology::hops(int a, int b) const {
  if (a == b) return 0;
  switch (kind_) {
    case TopologyKind::kLegacyFlat:
      return 0;
    case TopologyKind::kCrossbar:
      return 2;
    case TopologyKind::kFatTree:
      return a / nodes_per_switch_ == b / nodes_per_switch_ ? 2 : 4;
    case TopologyKind::kTorus: {
      auto wrap_dist = [](int from, int to, int size) {
        const int fwd = (to - from + size) % size;
        return std::min(fwd, size - fwd);
      };
      return wrap_dist(a % torus_x_, b % torus_x_, torus_x_) +
             wrap_dist(a / torus_x_, b / torus_x_, torus_y_);
    }
  }
  return 0;
}

}  // namespace emc::net
