#include "spans.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace {

// A clock the test advances by hand, in nanoseconds.
std::int64_t g_now = 0;
std::int64_t fake_now() { return g_now; }

using perfbench::SpanRecorder;

TEST(SpanRecorderTest, SelfTimeSubtractsDirectChildrenOnly) {
  g_now = 0;
  SpanRecorder spans(16, &fake_now);
  const auto outer = spans.kind("outer");
  const auto middle = spans.kind("middle");
  const auto leaf = spans.kind("leaf");

  spans.begin(outer);   // t=0
  g_now = 10;
  spans.begin(middle);  // t=10
  g_now = 15;
  spans.begin(leaf);    // t=15
  g_now = 25;
  spans.end();          // leaf: 10
  g_now = 30;
  spans.end();          // middle: 20, self 10
  g_now = 40;
  spans.begin(leaf);    // t=40
  g_now = 45;
  spans.end();          // leaf: 5
  g_now = 50;
  spans.end();          // outer: 50, children 20 + 5

  EXPECT_EQ(spans.totals(outer).total_ns, 50);
  EXPECT_EQ(spans.totals(outer).self_ns, 25);
  EXPECT_EQ(spans.totals(middle).total_ns, 20);
  EXPECT_EQ(spans.totals(middle).self_ns, 10);
  EXPECT_EQ(spans.totals(leaf).calls, 2u);
  EXPECT_EQ(spans.totals(leaf).total_ns, 15);
  EXPECT_EQ(spans.totals(leaf).self_ns, 15);
  EXPECT_EQ(spans.open_spans(), 0u);
}

TEST(SpanRecorderTest, RecordsKeepParentAndRunUpToTheCap) {
  g_now = 0;
  SpanRecorder spans(2, &fake_now);
  const auto a = spans.kind("a");
  spans.set_run(7);
  spans.begin(a);
  spans.begin(a);
  spans.begin(a);  // beyond the cap: aggregated, not kept
  g_now = 3;
  spans.end();
  spans.end();
  spans.end();
  ASSERT_EQ(spans.records().size(), 2u);
  EXPECT_EQ(spans.records()[0].parent, -1);
  EXPECT_EQ(spans.records()[1].parent, 0);
  EXPECT_EQ(spans.records()[1].run, 7u);
  EXPECT_EQ(spans.records()[1].end_ns, 3);
  EXPECT_EQ(spans.totals(a).calls, 3u);
  EXPECT_EQ(spans.spans_closed(), 3u);
}

TEST(SpanRecorderTest, KindIsIdempotent) {
  SpanRecorder spans;
  EXPECT_EQ(spans.kind("x"), spans.kind("x"));
  EXPECT_NE(spans.kind("x"), spans.kind("y"));
}

TEST(SpanRecorderTest, EndWithoutBeginThrows) {
  SpanRecorder spans;
  EXPECT_THROW(spans.end(), std::logic_error);
}

TEST(SpanRecorderTest, ChromeTraceListsCompleteEvents) {
  g_now = 1000;
  SpanRecorder spans(4, &fake_now);
  const auto a = spans.kind("layer.call");
  spans.begin(a);
  g_now = 3000;
  spans.end();
  const std::string path = ::testing::TempDir() + "perfbench_trace.json";
  ASSERT_TRUE(spans.write_chrome_trace(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\"name\":\"layer.call\",\"ph\":\"X\""),
            std::string::npos);
  EXPECT_NE(text.str().find("\"dur\":2.000"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
