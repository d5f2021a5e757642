#pragma once

// Contention-aware network model: LogGP-style message costs on top of a
// routed Topology, with discrete-event link occupancy so concurrent
// transfers crossing a shared link serialize.
//
// The model is deliberately simple and fully deterministic:
//
//   delivery = issue + o                        (per-message overhead)
//            + sum over route links of (queue wait + bytes/(bw*cap)
//                                       + per-hop latency)
//            + endpoint latency (intra- or inter-node)
//
// Each link keeps the time it next becomes free; a transfer arriving
// earlier queues (store-and-forward at link granularity — pessimistic
// against cut-through, but it keeps per-link occupancy exact and the
// saturation point right). Queue wait is the congestion signal: it is
// accumulated in Stats, surfaced as net/* metrics, and the simulators
// record it as kLinkWait trace events.
//
// Transfers are booked in call order. The simulators issue sends in
// (approximately) nondecreasing simulated time, so inversions are rare
// and bounded; determinism — the property the test suite pins — is
// unconditional.
//
// With a legacy-flat NetworkConfig the model degenerates to the seed
// machine model: send() is exactly `issue + link_latency(src, dst)` and
// round_trip() exactly `issue + 2 * latency`, the same floating-point
// expressions the seed simulators evaluated, so default-configured runs
// are bitwise identical to the pre-net code.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/topology.hpp"
#include "util/metrics.hpp"

namespace emc::net {

/// LogGP-style decomposition of one message's uncongested cost.
struct MessageCost {
  double overhead = 0.0;       ///< o: sender software overhead
  double latency = 0.0;        ///< L: endpoint + per-hop wire latency
  double serialization = 0.0;  ///< bytes / bandwidth, summed over links

  double total() const { return overhead + latency + serialization; }
};

/// Stateful per-run network: construct one per simulation (or reset()
/// between runs) so link occupancy starts empty.
class NetworkModel {
 public:
  /// `intra_latency` / `inter_latency` are the endpoint latencies in
  /// seconds (the seed MachineConfig values). Throws on a malformed
  /// config (Topology::build) or n_procs/procs_per_node < 1.
  NetworkModel(const NetworkConfig& config, int n_procs,
               int procs_per_node, double intra_latency,
               double inter_latency);

  bool legacy() const { return config_.legacy(); }
  const NetworkConfig& config() const { return config_; }
  const Topology& topology() const { return topology_; }
  int node_of(int proc) const { return proc / procs_per_node_; }

  /// Stateless one-way latency floor: 0 for src == dst, else the intra-
  /// or inter-node endpoint latency plus per-hop latency. For a legacy
  /// config this is exactly the seed MachineConfig::link_latency.
  double base_latency(int src_proc, int dst_proc) const;

  /// Uncongested LogGP cost of one message.
  MessageCost message_cost(int src_proc, int dst_proc,
                           std::size_t bytes) const;

  /// Books one one-sided message into the network and returns its
  /// delivery time. Shared-link conflicts with earlier transfers push
  /// the start back; the queueing delay is added to Stats::link_wait
  /// and written to *wait when non-null.
  double send(int src_proc, int dst_proc, double issue, std::size_t bytes,
              double* wait = nullptr);

  /// Request/response round trip (response issued on request delivery);
  /// returns the response's delivery time at src. Legacy: exactly
  /// issue + 2 * base_latency (the seed simulators' expression).
  double round_trip(int src_proc, int dst_proc, double issue,
                    std::size_t request_bytes, std::size_t response_bytes,
                    double* wait = nullptr);

  struct Stats {
    std::int64_t messages = 0;
    std::int64_t congested_messages = 0;  ///< waited on >= 1 link
    double bytes = 0.0;
    double link_wait = 0.0;       ///< total queueing delay, seconds
    double serialization = 0.0;   ///< total bytes-on-wire time, seconds
  };
  const Stats& stats() const { return stats_; }

  /// Accumulated wire occupancy per link since construction/reset().
  std::span<const double> link_busy() const { return link_busy_; }
  /// Occupancy of the busiest link (0 when there are no links).
  double max_link_busy() const;

  /// Clears link occupancy and stats (for multi-round runs).
  void reset();

  /// Writes "net/..." counters and gauges into a registry: messages,
  /// bytes, link-wait and serialization seconds, congested-message
  /// count, and the busiest link's name + occupancy.
  void write_metrics(util::MetricsRegistry& registry) const;

 private:
  NetworkConfig config_;
  Topology topology_;
  int n_procs_ = 0;
  int procs_per_node_ = 0;
  double intra_latency_ = 0.0;
  double inter_latency_ = 0.0;
  std::vector<double> link_free_;   ///< earliest next use per link
  std::vector<double> link_busy_;   ///< accumulated occupancy per link
  std::vector<int> route_scratch_;
  Stats stats_;
};

}  // namespace emc::net
