// Latency statistics: running aggregate plus a log-bucketed histogram.
//
// Used to report operation round-trip latencies (Table 1 / Table 2 style) out
// of the simulation, and the wait/hold distributions of every Resource.
// Buckets double in width so percentiles across the ns..ms range stay cheap.
// Only the window of buckets between the smallest and largest value recorded
// so far is stored: a histogram that never records allocates nothing, and one
// whose values span a few octaves stores a few counters, not all 65.

#ifndef PVM_SRC_METRICS_HISTOGRAM_H_
#define PVM_SRC_METRICS_HISTOGRAM_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

namespace pvm {

class LatencyHistogram {
 public:
  // Bucket indices run 0..64: bit_width of a 64-bit value.
  static constexpr std::size_t kBucketCount = 65;

  void record(std::uint64_t value_ns) {
    ++count_;
    sum_ += value_ns;
    min_ = std::min(min_, value_ns);
    max_ = std::max(max_, value_ns);
    const std::size_t index = bucket_index(value_ns);
    if (index < first_ || index - first_ >= buckets_.size()) {
      widen(index);
    }
    ++buckets_[index - first_];
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }

  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // Upper bound of the bucket holding the q-quantile (0 < q <= 1). Exact for
  // point distributions (all values equal), approximate otherwise. Buckets
  // outside the stored window are empty, so walking the window alone returns
  // what a walk over all 65 buckets would.
  std::uint64_t quantile(double q) const {
    if (count_ == 0) {
      return 0;
    }
    const auto target = static_cast<std::uint64_t>(q * static_cast<double>(count_));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen > target || seen == count_) {
        return bucket_upper_bound(first_ + i);
      }
    }
    return max_;
  }

  void reset() {
    count_ = 0;
    sum_ = 0;
    min_ = std::numeric_limits<std::uint64_t>::max();
    max_ = 0;
    buckets_.clear();
    first_ = 0;
  }

  static std::size_t bucket_index(std::uint64_t value) {
    if (value == 0) {
      return 0;
    }
    return static_cast<std::size_t>(std::bit_width(value));
  }

  static std::uint64_t bucket_upper_bound(std::size_t index) {
    if (index >= 64) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    return (1ull << index) - 1;
  }

 private:
  // Extends the window [first_, first_ + buckets_.size()) to cover `index`.
  void widen(std::size_t index) {
    if (buckets_.empty()) {
      first_ = index;
      buckets_.push_back(0);
    } else if (index < first_) {
      buckets_.insert(buckets_.begin(), first_ - index, 0);
      first_ = index;
    } else {
      buckets_.resize(index - first_ + 1, 0);
    }
  }

  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
  std::vector<std::uint64_t> buckets_;  // counts of buckets first_, first_ + 1, ...
  std::size_t first_ = 0;
};

}  // namespace pvm

#endif  // PVM_SRC_METRICS_HISTOGRAM_H_
