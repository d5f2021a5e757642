#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>

namespace emc::net {

NetworkModel::NetworkModel(const NetworkConfig& config, int n_procs,
                           int procs_per_node, double intra_latency,
                           double inter_latency)
    : config_(config),
      n_procs_(n_procs),
      procs_per_node_(procs_per_node),
      intra_latency_(intra_latency),
      inter_latency_(inter_latency) {
  if (n_procs < 1 || procs_per_node < 1) {
    throw std::invalid_argument("NetworkModel: bad proc counts");
  }
  const int n_nodes = (n_procs + procs_per_node - 1) / procs_per_node;
  topology_ = Topology::build(config, n_nodes);
  link_free_.assign(static_cast<std::size_t>(topology_.link_count()), 0.0);
  link_busy_.assign(link_free_.size(), 0.0);
}

double NetworkModel::base_latency(int src_proc, int dst_proc) const {
  if (src_proc == dst_proc) return 0.0;
  const double endpoint = node_of(src_proc) == node_of(dst_proc)
                              ? intra_latency_
                              : inter_latency_;
  if (config_.legacy() || config_.per_hop_latency <= 0.0) return endpoint;
  return endpoint +
         config_.per_hop_latency *
             topology_.hops(node_of(src_proc), node_of(dst_proc));
}

MessageCost NetworkModel::message_cost(int src_proc, int dst_proc,
                                       std::size_t bytes) const {
  MessageCost cost;
  if (src_proc == dst_proc) return cost;
  cost.latency = base_latency(src_proc, dst_proc);
  if (config_.legacy()) return cost;
  cost.overhead = config_.per_message_overhead;
  if (config_.link_bandwidth > 0.0) {
    const int a = node_of(src_proc);
    const int b = node_of(dst_proc);
    if (a != b) {
      std::vector<int> path;
      topology_.route(a, b, path);
      for (int link : path) {
        cost.serialization +=
            static_cast<double>(bytes) /
            (config_.link_bandwidth * topology_.link_capacity(link));
      }
    }
  }
  return cost;
}

double NetworkModel::send(int src_proc, int dst_proc, double issue,
                          std::size_t bytes, double* wait) {
  if (wait != nullptr) *wait = 0.0;
  if (config_.legacy()) {
    // Seed model, preserved expression-for-expression: delivery is
    // issue + link_latency with no occupancy and no overhead.
    ++stats_.messages;
    stats_.bytes += static_cast<double>(bytes);
    return issue + base_latency(src_proc, dst_proc);
  }
  ++stats_.messages;
  stats_.bytes += static_cast<double>(bytes);
  if (src_proc == dst_proc) return issue;

  double t = issue + config_.per_message_overhead;
  const int a = node_of(src_proc);
  const int b = node_of(dst_proc);
  double queued = 0.0;
  if (a != b && !link_free_.empty()) {
    route_scratch_.clear();
    topology_.route(a, b, route_scratch_);
    for (int link : route_scratch_) {
      const auto lu = static_cast<std::size_t>(link);
      const double ser =
          config_.link_bandwidth > 0.0
              ? static_cast<double>(bytes) /
                    (config_.link_bandwidth * topology_.link_capacity(link))
              : 0.0;
      // Zero-width transfers (infinite bandwidth or empty payload) do
      // not occupy the link and cannot be queued behind: the model then
      // degenerates to pure latency, like the legacy one.
      if (ser > 0.0) {
        const double start = std::max(t, link_free_[lu]);
        queued += start - t;
        link_free_[lu] = start + ser;
        link_busy_[lu] += ser;
        stats_.serialization += ser;
        t = start + ser;
      }
      t += config_.per_hop_latency;
    }
  }
  const double endpoint = a == b ? intra_latency_ : inter_latency_;
  if (queued > 0.0) {
    ++stats_.congested_messages;
    stats_.link_wait += queued;
    if (wait != nullptr) *wait = queued;
  }
  return t + endpoint;
}

double NetworkModel::round_trip(int src_proc, int dst_proc, double issue,
                                std::size_t request_bytes,
                                std::size_t response_bytes, double* wait) {
  if (config_.legacy()) {
    stats_.messages += 2;
    stats_.bytes +=
        static_cast<double>(request_bytes + response_bytes);
    if (wait != nullptr) *wait = 0.0;
    // The seed simulators' round-trip expression, kept bitwise:
    // issue + 2.0 * latency (NOT (issue + L) + L).
    return issue + 2.0 * base_latency(src_proc, dst_proc);
  }
  double w1 = 0.0, w2 = 0.0;
  const double there = send(src_proc, dst_proc, issue, request_bytes, &w1);
  const double back = send(dst_proc, src_proc, there, response_bytes, &w2);
  if (wait != nullptr) *wait = w1 + w2;
  return back;
}

double NetworkModel::max_link_busy() const {
  double best = 0.0;
  for (double b : link_busy_) best = std::max(best, b);
  return best;
}

void NetworkModel::reset() {
  std::fill(link_free_.begin(), link_free_.end(), 0.0);
  std::fill(link_busy_.begin(), link_busy_.end(), 0.0);
  stats_ = Stats{};
}

void NetworkModel::write_metrics(util::MetricsRegistry& registry) const {
  registry.counter("net/messages").add(stats_.messages);
  registry.counter("net/congested_messages").add(stats_.congested_messages);
  registry.gauge("net/bytes").add(stats_.bytes);
  registry.gauge("net/link_wait_seconds").add(stats_.link_wait);
  registry.gauge("net/serialization_seconds").add(stats_.serialization);
  registry.gauge("net/links").set(static_cast<double>(topology_.link_count()));
  int hottest = -1;
  double busy = 0.0;
  for (std::size_t l = 0; l < link_busy_.size(); ++l) {
    if (link_busy_[l] > busy) {
      busy = link_busy_[l];
      hottest = static_cast<int>(l);
    }
  }
  registry.gauge("net/max_link_busy_seconds").set(busy);
  if (hottest >= 0) {
    registry.gauge("net/hottest_link").set(static_cast<double>(hottest));
  }
}

}  // namespace emc::net
