#include "pgas/global_array.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace emc::pgas {

namespace {

void resolve_op_counters(util::MetricsRegistry& registry, int n_ranks,
                         const char* op, std::vector<util::Counter*>& ops,
                         std::vector<util::Counter*>& bytes) {
  ops.clear();
  bytes.clear();
  for (int r = 0; r < n_ranks; ++r) {
    const std::string prefix = "pgas/r" + std::to_string(r) + "/";
    ops.push_back(&registry.counter(prefix + op + "_ops"));
    bytes.push_back(&registry.counter(prefix + op + "_bytes"));
  }
}

}  // namespace

void GlobalArray::set_metrics(util::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_attached_ = false;
    get_metrics_ = {};
    put_metrics_ = {};
    acc_metrics_ = {};
    return;
  }
  resolve_op_counters(*registry, n_ranks_, "get", get_metrics_.ops,
                      get_metrics_.bytes);
  resolve_op_counters(*registry, n_ranks_, "put", put_metrics_.ops,
                      put_metrics_.bytes);
  resolve_op_counters(*registry, n_ranks_, "acc", acc_metrics_.ops,
                      acc_metrics_.bytes);
  metrics_attached_ = true;
}

GlobalArray::GlobalArray(std::size_t rows, std::size_t cols, int n_ranks)
    : rows_(rows), cols_(cols), n_ranks_(n_ranks), data_(rows * cols, 0.0),
      stripe_mutexes_(static_cast<std::size_t>(n_ranks)) {
  if (n_ranks < 1) throw std::invalid_argument("GlobalArray: n_ranks < 1");
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("GlobalArray: empty array");
  }
}

int GlobalArray::owner_of_row(std::size_t row) const {
  // Block distribution: rank r owns rows [r*rows/P, (r+1)*rows/P).
  return static_cast<int>(row * static_cast<std::size_t>(n_ranks_) / rows_);
}

std::pair<std::size_t, std::size_t> GlobalArray::local_rows(int rank) const {
  const auto p = static_cast<std::size_t>(n_ranks_);
  const auto r = static_cast<std::size_t>(rank);
  // Inverse of owner_of_row's floor distribution.
  const std::size_t first = (r * rows_ + p - 1) / p;
  const std::size_t last = ((r + 1) * rows_ + p - 1) / p;
  return {std::min(first, rows_), std::min(last, rows_)};
}

void GlobalArray::check_patch(std::size_t r0, std::size_t c0, std::size_t h,
                              std::size_t w) const {
  if (r0 + h > rows_ || c0 + w > cols_ || h == 0 || w == 0) {
    throw std::out_of_range("GlobalArray: patch out of range");
  }
}

template <typename Fn>
void GlobalArray::for_each_stripe(std::size_t r0, std::size_t h,
                                  Fn&& fn) const {
  std::size_t row = r0;
  const std::size_t end = r0 + h;
  while (row < end) {
    const int rank = owner_of_row(row);
    const std::size_t stripe_end =
        std::min(end, local_rows(rank).second);
    fn(rank, row, stripe_end);
    row = stripe_end;
  }
}

void GlobalArray::get(int caller, std::size_t r0, std::size_t c0,
                      std::size_t h, std::size_t w,
                      std::span<double> out) const {
  check_patch(r0, c0, h, w);
  if (out.size() < h * w) throw std::invalid_argument("get: buffer too small");
  if (metrics_attached_) get_metrics_.record(caller, h * w * sizeof(double));
  // Reads take no stripe lock, so the patch is copied without a stripe
  // walk.
  for (std::size_t r = 0; r < h; ++r) {
    const double* src = data_.data() + (r0 + r) * cols_ + c0;
    std::copy(src, src + w, out.data() + r * w);
  }
}

void GlobalArray::put(int caller, std::size_t r0, std::size_t c0,
                      std::size_t h, std::size_t w,
                      std::span<const double> in) {
  check_patch(r0, c0, h, w);
  if (in.size() < h * w) throw std::invalid_argument("put: buffer too small");
  if (metrics_attached_) put_metrics_.record(caller, h * w * sizeof(double));
  for_each_stripe(r0, h, [&](int rank, std::size_t first, std::size_t last) {
    std::lock_guard<std::mutex> lock(
        stripe_mutexes_[static_cast<std::size_t>(rank)]);
    for (std::size_t r = first; r < last; ++r) {
      const double* src = in.data() + (r - r0) * w;
      std::copy(src, src + w, data_.data() + r * cols_ + c0);
    }
  });
}

void GlobalArray::accumulate(int caller, std::size_t r0, std::size_t c0,
                             std::size_t h, std::size_t w,
                             std::span<const double> in) {
  check_patch(r0, c0, h, w);
  if (in.size() < h * w) {
    throw std::invalid_argument("accumulate: buffer too small");
  }
  if (metrics_attached_) acc_metrics_.record(caller, h * w * sizeof(double));
  for_each_stripe(r0, h, [&](int rank, std::size_t first, std::size_t last) {
    std::lock_guard<std::mutex> lock(
        stripe_mutexes_[static_cast<std::size_t>(rank)]);
    for (std::size_t r = first; r < last; ++r) {
      const double* src = in.data() + (r - r0) * w;
      double* dst = data_.data() + r * cols_ + c0;
      for (std::size_t c = 0; c < w; ++c) dst[c] += src[c];
    }
  });
}

}  // namespace emc::pgas
