#pragma once

// Interconnect topologies for the network model (src/net).
//
// A Topology maps a (source node, destination node) pair to the ordered
// list of links a message traverses. Links are directed and shared:
// several in-flight transfers crossing the same link serialize in the
// NetworkModel (network.hpp). Three real shapes are provided next to the
// seed's legacy flat model:
//
//  - kCrossbar: every node owns an injection (up) and ejection (down)
//    NIC link into a non-blocking core. Contention happens only at the
//    endpoints (fan-in to a hot node), never inside the fabric.
//  - kFatTree: two levels. Nodes attach to leaf switches
//    (nodes_per_switch per leaf) through their NIC links; each leaf
//    reaches the non-blocking spine through a trunked uplink/downlink
//    whose capacity is nodes_per_switch / oversubscription NIC-widths.
//    At 1:1 this behaves like the crossbar with one extra hop; at 2:1 or
//    4:1 the uplinks are the hot spot once traffic leaves the leaf.
//  - kTorus: nodes on a 2D wrap-around grid, dimension-order (x then y)
//    routing, one directed link per neighbour direction. Path length —
//    and the number of links a transfer occupies — grows with Manhattan
//    distance, so placement matters.
//
// kLegacyFlat is the seed machine model: a bare intra/inter-node latency
// with no links, no bandwidth, and no contention. It exists so the
// refactored simulators reproduce the seed's results bitwise by default
// (tests/test_net.cpp pins this with golden makespans).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace emc::net {

enum class TopologyKind : std::uint8_t {
  kLegacyFlat = 0,
  kCrossbar,
  kFatTree,
  kTorus,
};

/// Display name ("flat", "crossbar", "fat-tree", "torus").
const char* topology_name(TopologyKind kind);

/// Inverse of topology_name; throws std::invalid_argument on an unknown
/// name (accepts "fattree" as an alias for "fat-tree").
TopologyKind parse_topology(const std::string& name);

/// Complete description of a network: topology shape plus the LogGP-style
/// cost knobs every message pays. The default is the seed's legacy flat
/// model — zero-cost to construct and bitwise-compatible with the
/// pre-net simulators.
struct NetworkConfig {
  TopologyKind topology = TopologyKind::kLegacyFlat;

  /// Fat-tree shape: nodes per leaf switch, and the uplink
  /// oversubscription factor (1 = fully provisioned, 2 = 2:1, ...).
  int nodes_per_switch = 4;
  int oversubscription = 1;

  /// Torus node grid; 0 means a near-square factorization of the node
  /// count is chosen automatically.
  int torus_x = 0;
  int torus_y = 0;

  /// Per-link bandwidth in bytes/second (QDR-InfiniBand-class default);
  /// <= 0 means infinite (no serialization term, no occupancy).
  double link_bandwidth = 4.0e9;

  /// LogGP 'o': sender-side software overhead charged per message.
  double per_message_overhead = 0.0;

  /// Extra latency per traversed link (switch hop cost).
  double per_hop_latency = 0.0;

  /// Payload of a control round trip (counter fetch-and-add, steal
  /// request/response), in bytes.
  std::size_t control_bytes = 8;

  /// Data bytes fetched per *remotely acquired* task: the density/Fock
  /// blocks a proc must move before running work it does not own
  /// (counter grabs, stolen tasks). 0 disables payload modelling. Derive
  /// from the workload with core::mean_task_comm_bytes.
  std::size_t task_payload_bytes = 0;

  bool legacy() const { return topology == TopologyKind::kLegacyFlat; }
};

/// Routed link graph for one NetworkConfig + node count. Construction
/// validates the shape; route() is allocation-free (appends into a
/// caller-owned scratch vector).
class Topology {
 public:
  /// Legacy flat topology: no links, empty routes.
  Topology() = default;

  /// Throws std::invalid_argument on a malformed config (n_nodes < 1,
  /// nodes_per_switch < 1, oversubscription < 1, or a torus grid too
  /// small for the node count).
  static Topology build(const NetworkConfig& config, int n_nodes);

  TopologyKind kind() const { return kind_; }
  int n_nodes() const { return n_nodes_; }
  int link_count() const { return static_cast<int>(capacity_.size()); }

  /// Parallel-lane multiplier of a link: a transfer's serialization time
  /// on the link is bytes / (bandwidth * capacity). 1 for every link
  /// except fat-tree trunk up/downlinks.
  int link_capacity(int link) const {
    return capacity_[static_cast<std::size_t>(link)];
  }

  /// Human-readable link label ("nic-up[3]", "leaf-up[0]", ...).
  std::string link_name(int link) const;

  /// Appends the links a message from node `a` to node `b` traverses, in
  /// order, to `out` (which is NOT cleared). No-op when a == b or for
  /// the legacy topology.
  void route(int a, int b, std::vector<int>& out) const;

  /// Number of links on the a -> b route (0 for a == b / legacy).
  int hops(int a, int b) const;

 private:
  TopologyKind kind_ = TopologyKind::kLegacyFlat;
  int n_nodes_ = 0;
  // Fat-tree shape.
  int nodes_per_switch_ = 0;
  int n_switches_ = 0;
  // Torus shape.
  int torus_x_ = 0;
  int torus_y_ = 0;
  std::vector<int> capacity_;  ///< per-link lane multiplier
};

}  // namespace emc::net
