#include "exec/schedulers.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "exec/ws_deque.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace emc::exec {

std::int64_t ExecutionStats::total_tasks() const {
  std::int64_t n = 0;
  for (const auto& r : ranks) n += r.tasks_executed;
  return n;
}

std::int64_t ExecutionStats::total_steals() const {
  std::int64_t n = 0;
  for (const auto& r : ranks) n += r.steals;
  return n;
}

double ExecutionStats::utilization() const {
  if (ranks.empty() || wall_seconds <= 0.0) return 0.0;
  double busy = 0.0;
  for (const auto& r : ranks) busy += r.busy_seconds;
  return busy / (wall_seconds * static_cast<double>(ranks.size()));
}

void SlotSchedule::validate() const {
  if (counter_chunk < 1) {
    throw std::invalid_argument("SlotSchedule: counter_chunk < 1");
  }
  if (intra_chunk < 1) {
    throw std::invalid_argument("SlotSchedule: intra_chunk < 1");
  }
}

namespace {

/// Decorrelated per-executor victim-selection seed.
std::uint64_t executor_seed(std::uint64_t base, int rank, int tid,
                            int threads) {
  std::uint64_t s = base ^
                    (static_cast<std::uint64_t>(rank) *
                         static_cast<std::uint64_t>(threads) +
                     static_cast<std::uint64_t>(tid) + 1) *
                        0x9e3779b97f4a7c15ULL;
  return splitmix64(s);
}

}  // namespace

SlotScheduler::SlotScheduler(pgas::Runtime& runtime, int threads)
    : runtime_(&runtime), threads_(threads) {
  if (threads < 1) {
    throw std::invalid_argument("SlotScheduler: threads must be >= 1");
  }
  pools_.reserve(static_cast<std::size_t>(runtime.size()));
  for (int r = 0; r < runtime.size(); ++r) {
    pools_.push_back(std::make_unique<ThreadPool>(threads));
  }
}

ExecutionStats SlotScheduler::run(const SlotSchedule& schedule,
                                  const lb::Assignment& home,
                                  const SlotBody& body,
                                  const std::function<void(int)>& rank_done) {
  schedule.validate();
  const int ranks = runtime_->size();
  lb::validate_assignment(home, ranks);
  const int threads = threads_;
  const auto n_slots = static_cast<std::int64_t>(home.size());
  // Static inter scheduling keeps slots on their home rank and hands
  // them to the intra policy; the dynamic inter policies span all
  // executors of all ranks.
  const bool global = schedule.inter != Policy::kStatic;
  const Policy policy = global ? schedule.inter : schedule.intra;

  // Ascending home-slot lists per rank.
  std::vector<std::vector<std::int64_t>> rank_slots(
      static_cast<std::size_t>(ranks));
  for (std::int64_t s = 0; s < n_slots; ++s) {
    rank_slots[static_cast<std::size_t>(home[static_cast<std::size_t>(s)])]
        .push_back(s);
  }

  // Counter source over all slots: GA-nxtval shared by every rank.
  pgas::GlobalCounter global_counter(0);
  if (policy == Policy::kCounter && global && runtime_->metrics() != nullptr) {
    global_counter.attach_metrics(*runtime_->metrics(), ranks);
  }

  // Stealing source: one deque per executor, capacity n_slots so
  // steal-half migrations never overflow. Each rank's home slots are
  // dealt cyclically over its threads, pushed in descending order so
  // owner pops run them in ascending slot order. `remaining` counts
  // unexecuted slots per rank, or in slot 0 for all ranks when they
  // steal from each other.
  std::vector<std::unique_ptr<WsDeque>> deques;
  std::vector<std::atomic<std::int64_t>> remaining(
      static_cast<std::size_t>(ranks));
  if (policy == Policy::kWorkStealing) {
    deques.resize(static_cast<std::size_t>(ranks) *
                  static_cast<std::size_t>(threads));
    for (auto& d : deques) {
      d = std::make_unique<WsDeque>(
          static_cast<std::size_t>(std::max<std::int64_t>(1, n_slots)));
    }
    for (int r = 0; r < ranks; ++r) {
      const auto& mine = rank_slots[static_cast<std::size_t>(r)];
      for (std::size_t i = mine.size(); i-- > 0;) {
        deques[static_cast<std::size_t>(r) *
                   static_cast<std::size_t>(threads) +
               i % static_cast<std::size_t>(threads)]
            ->push(mine[i]);
      }
      remaining[global ? 0 : static_cast<std::size_t>(r)] +=
          static_cast<std::int64_t>(mine.size());
    }
  }

  ExecutionStats stats;
  stats.ranks.assign(static_cast<std::size_t>(ranks), RankStats{});
  std::atomic<bool> aborted{false};
  const auto stopped = [&aborted] {
    return aborted.load(std::memory_order_relaxed);
  };

  emc::Timer wall;
  runtime_->run([&](pgas::Context& ctx) {
    const int rank = ctx.rank();
    const auto ru = static_cast<std::size_t>(rank);
    const std::vector<std::int64_t>& mine = rank_slots[ru];
    std::vector<RankStats> tstats(static_cast<std::size_t>(threads));
    // Rank-local nxtval for the intra counter (no metrics attached).
    pgas::GlobalCounter local_counter(0);

    pools_[ru]->run([&](int tid) {
      RankStats& ts = tstats[static_cast<std::size_t>(tid)];
      try {
        switch (policy) {
          case Policy::kStatic:
            for (std::size_t i = static_cast<std::size_t>(tid);
                 i < mine.size() && !stopped();
                 i += static_cast<std::size_t>(threads)) {
              body(mine[i], rank, ts);
            }
            break;
          case Policy::kCounter: {
            pgas::GlobalCounter& counter =
                global ? global_counter : local_counter;
            const std::int64_t chunk =
                global ? schedule.counter_chunk : schedule.intra_chunk;
            const auto count =
                global ? n_slots : static_cast<std::int64_t>(mine.size());
            while (!stopped()) {
              const std::int64_t first = counter.fetch_add(chunk, rank);
              ++ts.counter_ops;
              if (first >= count) break;
              const std::int64_t last = std::min(first + chunk, count);
              for (std::int64_t i = first; i < last && !stopped(); ++i) {
                body(global ? i : mine[static_cast<std::size_t>(i)], rank, ts);
              }
            }
            break;
          }
          case Policy::kWorkStealing: {
            const auto deque_of = [&](int r, int t) -> WsDeque& {
              return *deques[static_cast<std::size_t>(r) *
                                 static_cast<std::size_t>(threads) +
                             static_cast<std::size_t>(t)];
            };
            WsDeque& own = deque_of(rank, tid);
            std::atomic<std::int64_t>& left = remaining[global ? 0 : ru];
            const bool remote = global && ranks > 1;
            emc::Rng rng(executor_seed(schedule.steal.seed, rank, tid,
                                       threads));
            const auto run_slot = [&](std::int64_t s) {
              body(s, rank, ts);
              left.fetch_sub(1, std::memory_order_relaxed);
            };
            // One steal attempt: on success migrate up to half of the
            // victim's remaining queue, then run the first stolen slot.
            const auto steal_from = [&](WsDeque& victim) {
              ++ts.steal_attempts;
              const auto s = victim.steal();
              if (!s) return false;
              ++ts.steals;
              std::int64_t extra = victim.size_estimate() / 2;
              while (extra-- > 0) {
                const auto more = victim.steal();
                if (!more) break;
                own.push(*more);
              }
              run_slot(*s);
              return true;
            };
            while (left.load(std::memory_order_relaxed) > 0 && !stopped()) {
              if (const auto s = own.pop()) {
                run_slot(*s);
                continue;
              }
              if (threads > 1) {
                auto vt = static_cast<int>(
                    rng.below(static_cast<std::uint64_t>(threads - 1)));
                if (vt >= tid) ++vt;
                if (steal_from(deque_of(rank, vt))) continue;
              }
              if (remote) {
                const auto pick = static_cast<std::int64_t>(rng.below(
                    static_cast<std::uint64_t>((ranks - 1) * threads)));
                auto vr = static_cast<int>(pick / threads);
                if (vr >= rank) ++vr;
                steal_from(deque_of(vr, static_cast<int>(pick % threads)));
              }
            }
            break;
          }
        }
      } catch (...) {
        // Unblock every other executor before propagating.
        aborted.store(true, std::memory_order_relaxed);
        throw;
      }
    });

    RankStats& total = stats.ranks[ru];
    for (const RankStats& ts : tstats) {
      total.tasks_executed += ts.tasks_executed;
      total.busy_seconds += ts.busy_seconds;
      total.steal_attempts += ts.steal_attempts;
      total.steals += ts.steals;
      total.counter_ops += ts.counter_ops;
    }
    if (rank_done) rank_done(rank);
  });
  stats.wall_seconds = wall.seconds();
  return stats;
}

}  // namespace emc::exec
