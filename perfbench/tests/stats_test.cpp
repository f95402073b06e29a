#include "stats.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace {

using perfbench::RunLedger;
using perfbench::RunResult;

TEST(StatsTest, QuantileInterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(perfbench::quantile({3.0, 1.0, 2.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(perfbench::quantile({5.0}, 0.9), 5.0);
  EXPECT_DOUBLE_EQ(perfbench::quantile({0.0, 10.0}, 0.9), 9.0);
  EXPECT_THROW(perfbench::quantile({}, 0.5), std::invalid_argument);
}

TEST(StatsTest, PercentileNeedsTenSamplesBeyondIt) {
  const std::vector<double> ladder = {90.0, 99.0, 99.9};
  EXPECT_FALSE(perfbench::reportable_percentile(99, ladder).has_value());
  EXPECT_EQ(perfbench::reportable_percentile(100, ladder), 90.0);
  EXPECT_EQ(perfbench::reportable_percentile(999, ladder), 90.0);
  EXPECT_EQ(perfbench::reportable_percentile(1000, ladder), 99.0);
  EXPECT_EQ(perfbench::reportable_percentile(10000, ladder), 99.9);
  EXPECT_FALSE(perfbench::reportable_percentile(0, ladder).has_value());
}

TEST(RunLedgerTest, ExceptionViolationAndMismatchEachCountAsFailed) {
  RunLedger ledger;
  ledger.run(0, [] { return RunResult{11, 0}; });
  ledger.run(1, [] { return RunResult{22, 0}; });
  ledger.run(2, [] { return RunResult{33, 0}; });
  ledger.end_pass();
  EXPECT_EQ(ledger.failed(), 0u);

  ledger.run(0, [] { return RunResult{11, 0}; });  // same digest: ok
  ledger.run(1, [] { return RunResult{99, 0}; });  // mismatch
  ledger.run(2, []() -> RunResult { throw std::runtime_error("boom"); });
  ledger.end_pass();
  ledger.run(0, [] { return RunResult{11, 1}; });  // violation
  ledger.end_pass();

  EXPECT_EQ(ledger.attempted(), 7u);
  EXPECT_EQ(ledger.failed(), 3u);
  EXPECT_DOUBLE_EQ(ledger.failed_pct(), 100.0 * 3.0 / 7.0);
  ASSERT_EQ(ledger.failures().size(), 3u);
  EXPECT_NE(ledger.failures()[1].find("boom"), std::string::npos);
}

TEST(RunLedgerTest, CrossCheckFailureCountsOncePerRun) {
  RunLedger ledger;
  ledger.run(0, [] { return RunResult{1, 1}; });
  ledger.fail(0, "traced digest differs");
  EXPECT_EQ(ledger.attempted(), 1u);
  EXPECT_EQ(ledger.failed(), 1u);
}

TEST(RunLedgerTest, FoldedDigestDependsOnEveryRun) {
  RunLedger a;
  RunLedger b;
  a.run(0, [] { return RunResult{1, 0}; });
  a.run(1, [] { return RunResult{2, 0}; });
  b.run(0, [] { return RunResult{1, 0}; });
  b.run(1, [] { return RunResult{3, 0}; });
  EXPECT_NE(a.folded_digest(), b.folded_digest());
  EXPECT_EQ(a.failed_pct(), 0.0);
}

}  // namespace
