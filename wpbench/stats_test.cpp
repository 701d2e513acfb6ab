// Tests for the benchmark's order-statistic helpers. The quartile cases are
// the values Python's statistics.quantiles(values, n=4) returns for the same
// inputs.
#include "stats.hpp"

#include <gtest/gtest.h>

namespace wpbench {
namespace {

TEST(Quartiles, MatchesPythonExclusiveMethod) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const Quartiles q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);

  // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
  const Quartiles odd = quartiles({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(odd.q1, 1.5);
  EXPECT_DOUBLE_EQ(odd.median, 3.0);
  EXPECT_DOUBLE_EQ(odd.q3, 4.5);

  // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
  const Quartiles two = quartiles({3, 1});
  EXPECT_DOUBLE_EQ(two.q1, 0.5);
  EXPECT_DOUBLE_EQ(two.median, 2.0);
  EXPECT_DOUBLE_EQ(two.q3, 3.5);
}

TEST(Quartiles, DegenerateInputs) {
  const Quartiles none = quartiles({});
  EXPECT_EQ(none.median, 0.0);
  EXPECT_EQ(none.spread(), 0.0);

  const Quartiles one = quartiles({4.0});
  EXPECT_EQ(one.q1, 4.0);
  EXPECT_EQ(one.median, 4.0);
  EXPECT_EQ(one.q3, 4.0);
  EXPECT_EQ(one.spread(), 0.0);
}

TEST(Quartiles, SpreadIsInterquartileRangeOverMedian) {
  const Quartiles q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q.spread(), (8.25 - 2.75) / 5.5);
  EXPECT_EQ(quartiles({2, 2, 2, 2}).spread(), 0.0);
}

TEST(TailRank, LeavesTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 40; ++i) {
    v.push_back(static_cast<double>(41 - i));  // unsorted on purpose
  }
  const TailRank t = tail_rank(v);
  EXPECT_EQ(t.samples, 40u);
  EXPECT_EQ(t.samples_beyond, 10u);
  EXPECT_DOUBLE_EQ(t.percentile, 75.0);
  EXPECT_DOUBLE_EQ(t.value, 30.0);
}

TEST(TailRank, ThinSamplesFallBackToMaximum) {
  const TailRank t = tail_rank({3, 1, 2});
  EXPECT_EQ(t.samples, 3u);
  EXPECT_EQ(t.samples_beyond, 0u);
  EXPECT_DOUBLE_EQ(t.percentile, 100.0);
  EXPECT_DOUBLE_EQ(t.value, 3.0);

  const TailRank exact = tail_rank(std::vector<double>(10, 1.0));
  EXPECT_EQ(exact.samples_beyond, 0u);

  const TailRank eleven = tail_rank({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  EXPECT_EQ(eleven.samples_beyond, 10u);
  EXPECT_DOUBLE_EQ(eleven.value, 1.0);

  EXPECT_EQ(tail_rank({}).samples, 0u);
}

}  // namespace
}  // namespace wpbench
