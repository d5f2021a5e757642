#pragma once

// Flat chunked ring buffers for the work-stealing simulator's per-proc
// task queues.
//
// The seed kept one std::deque<int64> per simulated proc. At P = 100k
// procs that is 100k independent allocators, each paying a heap
// allocation per 512 tasks and scattering queue nodes across the heap.
// TaskRingPool replaces them with one flat arena of fixed-size task
// chunks shared by every queue: a queue is a doubly-linked chain of
// chunk ids with head/tail offsets, chunks are recycled through an
// intrusive freelist, and the arena is sized up front for the task
// count (growing geometrically only past it) — so pushes and pops are
// O(1), the pool performs no heap allocation after construction, and
// a task migration (steal) moves an 8-byte id between two chains in
// the same arena.
//
// Deque semantics match the seed exactly: push_back/pop_back at the
// owner's end, pop_front at the thieves' end.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace emc::sim {

class TaskRingPool {
 public:
  /// `n_queues` fixed queues; the arena is pre-sized so it never grows
  /// while at most `expected_tasks` tasks are enqueued at once: the head
  /// and tail chunks of a non-empty queue each hold at least one task and
  /// every chunk between them is full, so the queues never hold more
  /// than ceil(expected_tasks / kChunkTasks) + 2 * n_queues chunks. A
  /// smaller estimate still works; the arena then grows on demand.
  TaskRingPool(int n_queues, std::int64_t expected_tasks) {
    queues_.resize(static_cast<std::size_t>(n_queues));
    const std::size_t chunks =
        static_cast<std::size_t>((expected_tasks + kChunkTasks - 1) /
                                 kChunkTasks) +
        2 * static_cast<std::size_t>(n_queues);
    grow(chunks);
  }

  std::size_t size(int q) const {
    return static_cast<std::size_t>(
        queues_[static_cast<std::size_t>(q)].count);
  }
  bool empty(int q) const { return size(q) == 0; }

  void push_back(int q, std::int64_t task) {
    Queue& queue = queues_[static_cast<std::size_t>(q)];
    if (queue.count == 0) {
      const std::int32_t c = alloc_chunk();
      queue.head = queue.tail = c;
      queue.head_off = queue.tail_off = 0;
    } else if (queue.tail_off == kChunkTasks) {
      const std::int32_t c = alloc_chunk();
      next_[static_cast<std::size_t>(queue.tail)] = c;
      prev_[static_cast<std::size_t>(c)] = queue.tail;
      queue.tail = c;
      queue.tail_off = 0;
    }
    slots_[slot(queue.tail, queue.tail_off)] = task;
    ++queue.tail_off;
    ++queue.count;
  }

  /// Precondition: !empty(q).
  std::int64_t pop_back(int q) {
    Queue& queue = queues_[static_cast<std::size_t>(q)];
    --queue.tail_off;
    const std::int64_t task = slots_[slot(queue.tail, queue.tail_off)];
    if (--queue.count == 0) {
      release_last(queue);
    } else if (queue.tail_off == 0) {
      const std::int32_t dead = queue.tail;
      queue.tail = prev_[static_cast<std::size_t>(dead)];
      queue.tail_off = kChunkTasks;
      free_chunk(dead);
    }
    return task;
  }

  /// Precondition: !empty(q).
  std::int64_t pop_front(int q) {
    Queue& queue = queues_[static_cast<std::size_t>(q)];
    const std::int64_t task = slots_[slot(queue.head, queue.head_off)];
    ++queue.head_off;
    if (--queue.count == 0) {
      release_last(queue);
    } else if (queue.head_off == kChunkTasks) {
      const std::int32_t dead = queue.head;
      queue.head = next_[static_cast<std::size_t>(dead)];
      queue.head_off = 0;
      free_chunk(dead);
    }
    return task;
  }

 private:
  static constexpr std::int32_t kChunkTasks = 32;

  struct Queue {
    std::int32_t head = -1;
    std::int32_t tail = -1;
    std::int32_t head_off = 0;  ///< first valid slot in the head chunk
    std::int32_t tail_off = 0;  ///< one past the last slot in the tail
    std::int64_t count = 0;
  };

  static std::size_t slot(std::int32_t chunk, std::int32_t offset) {
    return static_cast<std::size_t>(chunk) *
               static_cast<std::size_t>(kChunkTasks) +
           static_cast<std::size_t>(offset);
  }

  void release_last(Queue& queue) {
    free_chunk(queue.head);  // head == tail when the queue empties
    queue.head = queue.tail = -1;
    queue.head_off = queue.tail_off = 0;
  }

  std::int32_t alloc_chunk() {
    if (free_head_ < 0) grow(next_.size() * 2);
    const std::int32_t c = free_head_;
    free_head_ = next_[static_cast<std::size_t>(c)];
    return c;
  }

  void free_chunk(std::int32_t c) {
    next_[static_cast<std::size_t>(c)] = free_head_;
    free_head_ = c;
  }

  void grow(std::size_t min_chunks) {
    const std::size_t old_chunks = next_.size();
    const std::size_t new_chunks =
        std::max(min_chunks, old_chunks > 0 ? old_chunks * 2 : 4);
    slots_.resize(new_chunks * static_cast<std::size_t>(kChunkTasks));
    next_.resize(new_chunks);
    prev_.resize(new_chunks, -1);
    for (std::size_t c = old_chunks; c < new_chunks; ++c) {
      next_[c] = c + 1 < new_chunks ? static_cast<std::int32_t>(c + 1)
                                    : free_head_;
    }
    free_head_ = static_cast<std::int32_t>(old_chunks);
  }

  std::vector<std::int64_t> slots_;  ///< arena: chunk c = slots
                                     ///< [c*kChunkTasks, +kChunkTasks)
  std::vector<std::int32_t> next_;   ///< chain link / freelist link
  std::vector<std::int32_t> prev_;   ///< chain back-link
  std::vector<Queue> queues_;
  std::int32_t free_head_ = -1;
};

}  // namespace emc::sim
