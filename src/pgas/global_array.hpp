#pragma once

// Distributed dense 2D array with Global-Arrays-style one-sided access.
//
// The array is partitioned into row stripes, one per rank (the owner).
// Any rank may Get, Put, or Accumulate any rectangular patch; the owner
// decides only which stripe lock an update takes, since every stripe is
// plain shared memory. Accumulate is atomic per stripe (mutex), matching
// ARMCI's element-wise atomic accumulate guarantee.

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "pgas/runtime.hpp"

namespace emc::pgas {

class GlobalArray {
 public:
  /// rows x cols array distributed over n_ranks row stripes.
  GlobalArray(std::size_t rows, std::size_t cols, int n_ranks);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  int ranks() const { return n_ranks_; }

  /// Owner rank of a given row.
  int owner_of_row(std::size_t row) const;
  /// [first, last) row range owned by `rank`.
  std::pair<std::size_t, std::size_t> local_rows(int rank) const;

  /// Copies the patch [r0, r0+h) x [c0, c0+w) into `out` (row-major,
  /// h*w elements). `caller` is the rank the operation is counted for.
  void get(int caller, std::size_t r0, std::size_t c0, std::size_t h,
           std::size_t w, std::span<double> out) const;

  /// Overwrites the patch from `in` (row-major h*w).
  void put(int caller, std::size_t r0, std::size_t c0, std::size_t h,
           std::size_t w, std::span<const double> in);

  /// Atomically adds `in` into the patch (ARMCI_Acc semantics).
  void accumulate(int caller, std::size_t r0, std::size_t c0, std::size_t h,
                  std::size_t w, std::span<const double> in);

  /// Attaches a metrics registry: get/put/accumulate record per-caller
  /// operation counts and bytes moved ("pgas/r<k>/get_ops",
  /// "pgas/r<k>/get_bytes", likewise put/acc). The names carry no array
  /// identity, so several arrays sharing a registry accumulate into the
  /// same per-rank totals. Counters are resolved once here; nullptr
  /// detaches. The registry must outlive the array.
  void set_metrics(util::MetricsRegistry* registry);

  /// Direct read access for verification after all ranks quiesce.
  double at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

 private:
  void check_patch(std::size_t r0, std::size_t c0, std::size_t h,
                   std::size_t w) const;
  /// Invokes fn(stripe_rank, row_first, row_last) for each stripe the
  /// row range [r0, r0+h) intersects.
  template <typename Fn>
  void for_each_stripe(std::size_t r0, std::size_t h, Fn&& fn) const;

  /// Pre-resolved per-rank counters for one op kind (ops + bytes).
  struct OpMetrics {
    std::vector<util::Counter*> ops;
    std::vector<util::Counter*> bytes;
    void record(int caller, std::size_t n_bytes) const {
      if (caller < 0 || caller >= static_cast<int>(ops.size())) return;
      const auto k = static_cast<std::size_t>(caller);
      ops[k]->add(1);
      bytes[k]->add(static_cast<std::int64_t>(n_bytes));
    }
  };

  std::size_t rows_, cols_;
  int n_ranks_;
  std::vector<double> data_;
  mutable std::vector<std::mutex> stripe_mutexes_;
  bool metrics_attached_ = false;
  OpMetrics get_metrics_, put_metrics_, acc_metrics_;
};

}  // namespace emc::pgas
