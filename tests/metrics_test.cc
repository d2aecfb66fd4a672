// Tests for counters, histograms, and table rendering.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <random>
#include <set>
#include <string_view>
#include <vector>

#include "src/metrics/counters.h"
#include "src/metrics/histogram.h"
#include "src/metrics/table.h"

namespace pvm {
namespace {

TEST(CounterSetTest, StartsZeroAndAccumulates) {
  CounterSet counters;
  EXPECT_EQ(counters.get(Counter::kWorldSwitch), 0u);
  counters.add(Counter::kWorldSwitch);
  counters.add(Counter::kWorldSwitch, 5);
  EXPECT_EQ(counters.get(Counter::kWorldSwitch), 6u);
  counters.reset();
  EXPECT_EQ(counters.get(Counter::kWorldSwitch), 0u);
}

TEST(CounterSetTest, DeltaSinceSnapshot) {
  CounterSet counters;
  counters.add(Counter::kL0Exit, 10);
  const CounterSet snapshot = counters;
  counters.add(Counter::kL0Exit, 7);
  counters.add(Counter::kTlbMiss, 3);
  const CounterSet delta = counters.delta_since(snapshot);
  EXPECT_EQ(delta.get(Counter::kL0Exit), 7u);
  EXPECT_EQ(delta.get(Counter::kTlbMiss), 3u);
  EXPECT_EQ(delta.get(Counter::kWorldSwitch), 0u);
}

TEST(CounterSetTest, EveryCounterHasAName) {
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    EXPECT_NE(counter_name(static_cast<Counter>(i)), "unknown") << "counter index " << i;
  }
}

TEST(CounterSetTest, CounterNamesDistinctAndNonEmpty) {
  std::set<std::string_view> seen;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const std::string_view name = counter_name(static_cast<Counter>(i));
    EXPECT_FALSE(name.empty()) << "counter index " << i;
    EXPECT_TRUE(seen.insert(name).second) << "duplicate counter name: " << name;
  }
}

TEST(CounterSetTest, DeltaSinceSaturatesAtZero) {
  // A reset() between the snapshot and the delta used to wrap the subtraction
  // to ~2^64; it must read as zero progress instead.
  CounterSet counters;
  counters.add(Counter::kL0Exit, 10);
  const CounterSet snapshot = counters;
  counters.reset();
  counters.add(Counter::kL0Exit, 3);
  counters.add(Counter::kTlbMiss, 2);
  const CounterSet delta = counters.delta_since(snapshot);
  EXPECT_EQ(delta.get(Counter::kL0Exit), 0u);
  EXPECT_EQ(delta.get(Counter::kTlbMiss), 2u);
}

TEST(LatencyHistogramTest, BasicAggregates) {
  LatencyHistogram h;
  h.record(100);
  h.record(200);
  h.record(300);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 600u);
  EXPECT_EQ(h.min(), 100u);
  EXPECT_EQ(h.max(), 300u);
  EXPECT_DOUBLE_EQ(h.mean(), 200.0);
}

TEST(LatencyHistogramTest, EmptyIsSafe) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.99), 0u);
}

TEST(LatencyHistogramTest, QuantileBracketsValues) {
  LatencyHistogram h;
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    h.record(i);
  }
  // The p50 bucket upper bound must be >= 500 and within a power of two.
  const std::uint64_t p50 = h.quantile(0.5);
  EXPECT_GE(p50, 500u);
  EXPECT_LE(p50, 1023u);
  EXPECT_GE(h.quantile(1.0), 1000u);
}

TEST(LatencyHistogramTest, ResetClears) {
  LatencyHistogram h;
  h.record(5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
}

// bit_width(v) is 64 for v >= 2^63: the top bucket index is 64, one past the
// 64 power-of-two buckets below it.
TEST(LatencyHistogramTest, ValuesAtOrAbove2To63LandInTheTopBucket) {
  LatencyHistogram h;
  h.record(1);
  h.record(1ull << 63);
  h.record(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(LatencyHistogram::bucket_index(1ull << 63), 64u);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(h.quantile(0.01), 1u);
  EXPECT_EQ(h.quantile(1.0), std::numeric_limits<std::uint64_t>::max());
}

// Reference: all 65 buckets stored densely, walked with the same quantile
// rule. LatencyHistogram stores only the touched window and must agree.
class DenseHistogram {
 public:
  void record(std::uint64_t v) {
    ++count_;
    ++buckets_[LatencyHistogram::bucket_index(v)];
  }
  std::uint64_t quantile(double q) const {
    if (count_ == 0) {
      return 0;
    }
    const auto target = static_cast<std::uint64_t>(q * static_cast<double>(count_));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen > target || seen == count_) {
        return LatencyHistogram::bucket_upper_bound(i);
      }
    }
    return 0;
  }

 private:
  std::uint64_t count_ = 0;
  std::array<std::uint64_t, LatencyHistogram::kBucketCount> buckets_{};
};

void expect_same_quantiles(const LatencyHistogram& h, const DenseHistogram& dense,
                           const char* phase) {
  for (const double q : {0.01, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(h.quantile(q), dense.quantile(q)) << phase << " q=" << q;
  }
}

TEST(LatencyHistogramTest, WindowQuantilesMatchDenseReference) {
  std::mt19937_64 rng(20231023);
  // Magnitudes from 0 to 2^64 - 1: shifting a full-width draw right by 0..64
  // bits puts values in every bucket, the top one included.
  auto draw = [&rng] {
    const unsigned shift = static_cast<unsigned>(rng() % 65);
    return shift == 64 ? 0 : rng() >> shift;
  };
  LatencyHistogram h;
  DenseHistogram dense;
  // Ascending magnitudes first (window grows upward), then descending (it
  // grows downward from a high first bucket), then random order.
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 200; ++i) {
    values.push_back(draw());
  }
  std::sort(values.begin(), values.end());
  for (const std::uint64_t v : values) {
    h.record(v);
    dense.record(v);
  }
  expect_same_quantiles(h, dense, "ascending");

  h.reset();
  dense = DenseHistogram();
  std::sort(values.begin(), values.end(), std::greater<>());
  for (const std::uint64_t v : values) {
    h.record(v);
    dense.record(v);
    expect_same_quantiles(h, dense, "descending");
  }

  // Reuse after reset: a narrow first window, then random growth both ways.
  h.reset();
  dense = DenseHistogram();
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = i < 100 ? 1000 + rng() % 1000 : draw();
    h.record(v);
    dense.record(v);
    if (i % 97 == 0) {
      expect_same_quantiles(h, dense, "after reset");
    }
  }
  EXPECT_EQ(h.count(), 2000u);
  expect_same_quantiles(h, dense, "after reset");
}

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable table({"config", "value"});
  table.add_row({"kvm-ept (BM)", "0.46"});
  table.add_row({"pvm (NST)", "0.48"});
  const std::string out = table.render();
  EXPECT_NE(out.find("config"), std::string::npos);
  EXPECT_NE(out.find("kvm-ept (BM)"), std::string::npos);
  EXPECT_NE(out.find("0.48"), std::string::npos);
  // Header underline present.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TextTableTest, ShortRowsPadded) {
  TextTable table({"a", "b", "c"});
  table.add_row({"x"});
  EXPECT_NO_THROW(table.render());
}

TEST(TextTableTest, CellFormatters) {
  EXPECT_EQ(TextTable::cell(1.234, 2), "1.23");
  EXPECT_EQ(TextTable::cell(std::uint64_t{42}), "42");
}

}  // namespace
}  // namespace pvm
