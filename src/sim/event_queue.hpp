#pragma once

// The event queue the discrete-event simulators drain.
//
// Every event-driven simulator (counter family, hybrid tail, work
// stealing) drains a min-queue of (time, key) pairs. Pops follow the
// strict total order (time ascending, key ascending). Callers encode
// their tie-break AND payload into `key` (the work-stealing simulator
// packs its monotone sequence number above the proc id, the counter
// family packs (proc << 1) | kind) and never enqueue two events with
// equal (time, key), so the pop sequence — and with it every simulated
// number — is fully determined by the pushes.

#include <cstddef>
#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

namespace emc::sim {

/// One scheduled event: fires at `time`; `key` is the strict tie-break
/// and carries the caller's payload bits.
struct SimEvent {
  double time = 0.0;
  std::uint64_t key = 0;
};

/// Binary-heap min-queue over (time, key). Not thread-safe; one per
/// simulation run.
class EventQueue {
 public:
  /// Reserves room for `expected` pending events — pass the proc count
  /// for proc-event loops, whose population never exceeds it.
  explicit EventQueue(std::size_t expected = 0) {
    std::vector<SimEvent> storage;
    storage.reserve(expected);
    heap_ = Heap(EventGreater{}, std::move(storage));
  }

  void push(double time, std::uint64_t key) {
    heap_.push(SimEvent{time, key});
  }

  /// Removes and returns the minimum (time, key) event. Precondition:
  /// !empty().
  SimEvent pop() {
    const SimEvent ev = heap_.top();
    heap_.pop();
    return ev;
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

 private:
  struct EventGreater {
    bool operator()(const SimEvent& a, const SimEvent& b) const {
      return a.time != b.time ? a.time > b.time : a.key > b.key;
    }
  };
  using Heap =
      std::priority_queue<SimEvent, std::vector<SimEvent>, EventGreater>;
  Heap heap_;
};

}  // namespace emc::sim
