#include "sim/trace.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

#include "util/json.hpp"

namespace emc::sim {

const char* trace_event_name(TraceEventType type) {
  switch (type) {
    case TraceEventType::kTaskExec:
      return "task";
    case TraceEventType::kStealSuccess:
      return "steal";
    case TraceEventType::kStealFail:
      return "steal-fail";
    case TraceEventType::kCounterOp:
      return "counter";
    case TraceEventType::kIdle:
      return "idle";
    case TraceEventType::kIterationBoundary:
      return "iteration";
    case TraceEventType::kFaultStart:
      return "fault-start";
    case TraceEventType::kFaultEnd:
      return "fault-end";
    case TraceEventType::kOpRetry:
      return "op-retry";
    case TraceEventType::kTaskReexec:
      return "task-reexec";
    case TraceEventType::kNetTransfer:
      return "net-transfer";
    case TraceEventType::kLinkWait:
      return "link-wait";
  }
  return "?";
}

std::vector<double> utilization_timeline(std::span<const TraceEvent> trace,
                                         double makespan, int n_procs,
                                         int bins) {
  bool any_task = false;
  for (const TraceEvent& ev : trace) {
    if (ev.type == TraceEventType::kTaskExec) {
      any_task = true;
      break;
    }
  }
  if (!any_task) {
    throw std::invalid_argument(
        "utilization_timeline: empty trace (set record_trace)");
  }
  if (bins < 1 || n_procs < 1) {
    throw std::invalid_argument("utilization_timeline: bad bins/procs");
  }
  // A non-positive (or NaN) makespan would make the bin width zero and
  // ev.start / width NaN/Inf, whose cast to int is undefined behavior;
  // an infinite makespan would yield a meaningless all-zero timeline.
  if (!(makespan > 0.0) || !std::isfinite(makespan)) {
    throw std::invalid_argument(
        "utilization_timeline: makespan must be positive and finite");
  }
  const double width = makespan / static_cast<double>(bins);
  std::vector<double> busy_time(static_cast<std::size_t>(bins), 0.0);

  for (const TraceEvent& ev : trace) {
    if (ev.type != TraceEventType::kTaskExec) continue;
    // Distribute this execution's busy time over the bins it overlaps.
    const int first =
        std::clamp(static_cast<int>(ev.start / width), 0, bins - 1);
    const int last =
        std::clamp(static_cast<int>(ev.end / width), 0, bins - 1);
    for (int b = first; b <= last; ++b) {
      const double lo = std::max(ev.start, width * b);
      const double hi = std::min(ev.end, width * (b + 1));
      if (hi > lo) busy_time[static_cast<std::size_t>(b)] += hi - lo;
    }
  }
  for (double& x : busy_time) {
    x /= width * static_cast<double>(n_procs);
  }
  return busy_time;
}

std::vector<std::int64_t> steal_provenance(
    std::span<const TraceEvent> trace, int n_procs) {
  if (n_procs < 1) {
    throw std::invalid_argument("steal_provenance: n_procs < 1");
  }
  const auto p = static_cast<std::size_t>(n_procs);
  std::vector<std::int64_t> matrix(p * p, 0);
  for (const TraceEvent& ev : trace) {
    if (ev.type != TraceEventType::kStealSuccess) continue;
    if (ev.proc < 0 || ev.proc >= n_procs || ev.peer < 0 ||
        ev.peer >= n_procs) {
      throw std::invalid_argument("steal_provenance: proc out of range");
    }
    ++matrix[static_cast<std::size_t>(ev.proc) * p +
             static_cast<std::size_t>(ev.peer)];
  }
  return matrix;
}

namespace {

/// Per-proc chronological [start, end) intervals of all recorded
/// (non-derived) activity.
std::vector<std::vector<std::pair<double, double>>> activity_by_proc(
    std::span<const TraceEvent> trace, int n_procs) {
  std::vector<std::vector<std::pair<double, double>>> activity(
      static_cast<std::size_t>(n_procs));
  for (const TraceEvent& ev : trace) {
    if (ev.type == TraceEventType::kIdle ||
        ev.type == TraceEventType::kIterationBoundary) {
      continue;
    }
    if (ev.proc < 0 || ev.proc >= n_procs) {
      throw std::invalid_argument("trace analysis: proc out of range");
    }
    activity[static_cast<std::size_t>(ev.proc)].emplace_back(ev.start,
                                                             ev.end);
  }
  for (auto& spans : activity) std::sort(spans.begin(), spans.end());
  return activity;
}

/// Invokes fn(proc, gap_start, gap_end) for each uncovered interval.
template <typename Fn>
void for_each_gap(
    const std::vector<std::vector<std::pair<double, double>>>& activity,
    double makespan, Fn&& fn) {
  for (std::size_t p = 0; p < activity.size(); ++p) {
    double cursor = 0.0;
    for (const auto& [start, end] : activity[p]) {
      if (start > cursor) fn(static_cast<int>(p), cursor, start);
      cursor = std::max(cursor, end);
    }
    if (makespan > cursor) fn(static_cast<int>(p), cursor, makespan);
  }
}

}  // namespace

std::vector<TraceEvent> derive_idle_gaps(std::span<const TraceEvent> trace,
                                         int n_procs, double makespan,
                                         double min_gap) {
  if (n_procs < 1) {
    throw std::invalid_argument("derive_idle_gaps: n_procs < 1");
  }
  std::vector<TraceEvent> gaps;
  for_each_gap(activity_by_proc(trace, n_procs), makespan,
               [&](int proc, double start, double end) {
                 if (end - start < min_gap) return;
                 TraceEvent ev;
                 ev.type = TraceEventType::kIdle;
                 ev.proc = proc;
                 ev.start = start;
                 ev.end = end;
                 gaps.push_back(ev);
               });
  return gaps;
}

TraceSummary summarize_trace(std::span<const TraceEvent> trace, int n_procs,
                             double makespan) {
  if (n_procs < 1) {
    throw std::invalid_argument("summarize_trace: n_procs < 1");
  }
  TraceSummary summary;
  const auto p = static_cast<std::size_t>(n_procs);
  std::vector<double> busy(p, 0.0), overhead(p, 0.0), last_end(p, 0.0);

  for (const TraceEvent& ev : trace) {
    if (ev.type == TraceEventType::kIterationBoundary) continue;
    ++summary.events;
    if (ev.proc < 0 || ev.proc >= n_procs) {
      throw std::invalid_argument("summarize_trace: proc out of range");
    }
    const auto pu = static_cast<std::size_t>(ev.proc);
    switch (ev.type) {
      case TraceEventType::kTaskExec:
        busy[pu] += ev.duration();
        break;
      case TraceEventType::kStealSuccess:
      case TraceEventType::kStealFail:
      case TraceEventType::kCounterOp:
      case TraceEventType::kOpRetry:
      case TraceEventType::kTaskReexec:
      case TraceEventType::kNetTransfer:
        overhead[pu] += ev.duration();
        break;
      // kLinkWait annotates queueing *inside* the enclosing counter /
      // steal / transfer span, which is already booked as overhead —
      // counting it again would double-book the wait.
      case TraceEventType::kLinkWait:
        break;
      default:
        break;
    }
    last_end[pu] = std::max(last_end[pu], ev.end);
  }

  // Critical proc: the one whose recorded activity ends the run.
  std::size_t critical = 0;
  for (std::size_t i = 1; i < p; ++i) {
    if (last_end[i] > last_end[critical]) critical = i;
  }
  summary.critical_proc = static_cast<int>(critical);
  summary.critical_busy = busy[critical];
  summary.critical_overhead = overhead[critical];
  summary.critical_idle =
      std::max(0.0, makespan - busy[critical] - overhead[critical]);

  for_each_gap(activity_by_proc(trace, n_procs), makespan,
               [&](int proc, double start, double end) {
                 const double gap = end - start;
                 summary.total_idle += gap;
                 if (gap > summary.longest_idle_gap) {
                   summary.longest_idle_gap = gap;
                   summary.longest_idle_proc = proc;
                 }
               });
  for (std::size_t i = 0; i < p; ++i) {
    summary.total_busy += busy[i];
    summary.total_overhead += overhead[i];
  }
  return summary;
}

void write_chrome_trace(std::ostream& out,
                        std::span<const TraceEvent> trace,
                        int procs_per_node) {
  if (procs_per_node < 1) {
    throw std::invalid_argument("write_chrome_trace: procs_per_node < 1");
  }
  // ts/dur are microseconds per the trace-event spec, written round-trip
  // exact (the default 6 significant digits would merge events microseconds
  // apart once a run passes 10 s); pid groups procs by node so Perfetto's
  // process lanes mirror the machine topology.
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& ev : trace) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "  {\"name\": " << util::json_quote(trace_event_name(ev.type))
        << ", \"cat\": \"sim\", \"ph\": \"X\", \"ts\": "
        << util::format_double(ev.start * 1e6)
        << ", \"dur\": " << util::format_double(ev.duration() * 1e6)
        << ", \"pid\": " << ev.proc / procs_per_node
        << ", \"tid\": " << ev.proc;
    if (ev.task >= 0 || ev.peer >= 0) {
      out << ", \"args\": {";
      bool first_arg = true;
      if (ev.task >= 0) {
        out << "\"task\": " << ev.task;
        first_arg = false;
      }
      if (ev.peer >= 0) {
        out << (first_arg ? "" : ", ") << "\"peer\": " << ev.peer;
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n]}\n";
}

}  // namespace emc::sim
