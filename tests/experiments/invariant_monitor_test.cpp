#include "experiments/invariant_monitor.h"

#include <gtest/gtest.h>

namespace waif::experiments {
namespace {

using core::BreakerState;

InvariantMonitor::Expectations armed() {
  InvariantMonitor::Expectations expectations;
  expectations.topic_budget = 8;
  expectations.proxy_budget = 20;
  expectations.admission_armed = true;
  return expectations;
}

TEST(InvariantMonitor, AcceptsTheLegalBreakerCycle) {
  InvariantMonitor monitor(armed());
  monitor.note_breaker(BreakerState::kOpen, 1);       // trip
  monitor.note_breaker(BreakerState::kHalfOpen, 2);   // probe window
  monitor.note_breaker(BreakerState::kOpen, 3);       // probe failed
  monitor.note_breaker(BreakerState::kHalfOpen, 4);
  monitor.note_breaker(BreakerState::kClosed, 5);     // probe succeeded
  monitor.note_breaker(BreakerState::kOpen, 6);       // trips again
  monitor.note_breaker(BreakerState::kClosed, 7);     // direct reclose
  EXPECT_TRUE(monitor.ok());
}

TEST(InvariantMonitor, RejectsIllegalBreakerTransitions) {
  InvariantMonitor monitor(armed());
  monitor.note_breaker(BreakerState::kHalfOpen, 1);  // closed -> half-open
  ASSERT_FALSE(monitor.ok());
  EXPECT_EQ(monitor.violations()[0].invariant, "breaker-legality");

  InvariantMonitor second(armed());
  second.note_breaker(BreakerState::kClosed, 1);  // closed -> closed
  EXPECT_FALSE(second.ok());
}

TEST(InvariantMonitor, ResetBreakerSkipsTheLegalityCheck) {
  InvariantMonitor monitor(armed());
  monitor.note_breaker(BreakerState::kOpen, 1);
  // crash_proxy_side recloses silently; the harness re-syncs the monitor.
  monitor.reset_breaker(BreakerState::kClosed);
  monitor.note_breaker(BreakerState::kOpen, 2);
  EXPECT_TRUE(monitor.ok());
}

TEST(InvariantMonitor, FlagsBackwardChannelCounters) {
  InvariantMonitor monitor(armed());
  core::ReliableChannelStats stats;
  stats.accepted = 10;
  stats.acked = 4;
  monitor.note_channel(11, stats, 1);
  EXPECT_TRUE(monitor.ok());

  stats.accepted = 9;  // went backwards
  monitor.note_channel(11, stats, 2);
  ASSERT_FALSE(monitor.ok());
  EXPECT_EQ(monitor.violations()[0].invariant, "channel-monotone");
}

TEST(InvariantMonitor, FlagsSequenceRegression) {
  InvariantMonitor monitor(armed());
  core::ReliableChannelStats stats;
  monitor.note_channel(7, stats, 1);
  monitor.note_channel(6, stats, 2);
  EXPECT_FALSE(monitor.ok());
}

TEST(InvariantMonitor, FlagsAckedBeyondAccepted) {
  InvariantMonitor monitor(armed());
  core::ReliableChannelStats stats;
  stats.accepted = 3;
  stats.acked = 5;
  monitor.note_channel(1, stats, 1);
  EXPECT_FALSE(monitor.ok());
}

TEST(InvariantMonitor, EnforcesQueueBudgets) {
  InvariantMonitor monitor(armed());
  monitor.note_queue("news", 8, 1);   // exactly at budget: fine
  monitor.note_proxy_total(20, 1);
  EXPECT_TRUE(monitor.ok());

  monitor.note_queue("news", 9, 2);
  ASSERT_FALSE(monitor.ok());
  EXPECT_EQ(monitor.violations()[0].invariant, "queue-bound");

  monitor.note_proxy_total(21, 3);
  EXPECT_EQ(monitor.violations().size(), 2u);
}

TEST(InvariantMonitor, ZeroBudgetsDisableBoundChecks) {
  InvariantMonitor monitor;  // default expectations: nothing armed
  monitor.note_queue("news", 10000, 1);
  monitor.note_proxy_total(10000, 1);
  EXPECT_TRUE(monitor.ok());
}

TEST(InvariantMonitor, UnarmedAdmissionMustNeverReject) {
  InvariantMonitor unarmed;
  unarmed.note_admission_rejects(0, 1);
  EXPECT_TRUE(unarmed.ok());
  unarmed.note_admission_rejects(3, 2);
  ASSERT_FALSE(unarmed.ok());
  EXPECT_EQ(unarmed.violations()[0].invariant, "admission-legality");

  InvariantMonitor with_admission(armed());
  with_admission.note_admission_rejects(3, 1);
  EXPECT_TRUE(with_admission.ok());
}

TEST(InvariantMonitor, UnarmedBudgetsMustNeverShed) {
  InvariantMonitor unarmed;
  unarmed.note_shed(0, 1);
  EXPECT_TRUE(unarmed.ok());
  unarmed.note_shed(2, 2);
  ASSERT_FALSE(unarmed.ok());
  EXPECT_EQ(unarmed.violations()[0].invariant, "unarmed-shed");

  // Either budget alone licenses shedding.
  InvariantMonitor::Expectations proxy_only;
  proxy_only.proxy_budget = 20;
  InvariantMonitor with_budget(proxy_only);
  with_budget.note_shed(5, 1);
  EXPECT_TRUE(with_budget.ok());
}

TEST(InvariantMonitor, EveryShedMustBeJournaled) {
  InvariantMonitor monitor(armed());
  monitor.note_shed_journal(7, 7, 1);
  EXPECT_TRUE(monitor.ok());
  monitor.note_shed_journal(6, 7, 2);  // one shed bypassed the journal
  ASSERT_FALSE(monitor.ok());
  EXPECT_EQ(monitor.violations()[0].invariant, "shed-journal");
}

TEST(InvariantMonitor, ReadsMustHaveBeenDelivered) {
  InvariantMonitor monitor(armed());
  monitor.note_delivered(41);
  monitor.note_delivered(42);
  monitor.note_read("news", 42, 1);
  monitor.note_read("news", 41, 2);
  EXPECT_TRUE(monitor.ok());
  monitor.note_read("news", 43, 3);  // never crossed the transport
  ASSERT_FALSE(monitor.ok());
  EXPECT_EQ(monitor.violations()[0].invariant, "read-without-delivery");
}

TEST(InvariantMonitor, DeviceDuplicatesAreBoundedByRequeues) {
  InvariantMonitor monitor(armed());
  monitor.note_device_duplicates(0, 0, 1);
  monitor.note_device_duplicates(3, 3, 2);
  EXPECT_TRUE(monitor.ok());
  monitor.note_device_duplicates(4, 3, 3);
  ASSERT_FALSE(monitor.ok());
  EXPECT_EQ(monitor.violations()[0].invariant, "duplicate-receive");
}

TEST(InvariantMonitor, AcceptedTransfersAreConserved) {
  InvariantMonitor monitor(armed());
  core::ReliableChannelStats stats;
  stats.accepted = 20;
  stats.acked = 12;
  stats.expired_abandoned = 2;
  stats.attempts_exhausted = 3;
  monitor.note_transfers(stats, /*in_flight=*/2, /*backlog=*/1, 1);
  EXPECT_TRUE(monitor.ok());
  monitor.note_transfers(stats, /*in_flight=*/1, /*backlog=*/1, 2);  // lost one
  ASSERT_FALSE(monitor.ok());
  EXPECT_EQ(monitor.violations()[0].invariant, "transfer-conservation");
}

TEST(InvariantMonitor, ArrivalsNeverOutnumberSurvivingTransmissions) {
  InvariantMonitor monitor(armed());
  core::ReliableChannelStats stats;
  stats.transmissions = 10;
  stats.link_drops = 3;
  stats.delivered = 5;
  stats.duplicates_suppressed = 2;
  monitor.note_transmissions(stats, 1);
  EXPECT_TRUE(monitor.ok());
  stats.duplicates_suppressed = 3;  // 8 arrivals from 7 surviving sends
  monitor.note_transmissions(stats, 2);
  ASSERT_FALSE(monitor.ok());
  EXPECT_EQ(monitor.violations()[0].invariant, "transmission-conservation");
}

TEST(InvariantMonitor, NoThrashFlagsADirectionFlipInsideTheDwell) {
  InvariantMonitor::Expectations expectations;
  expectations.resize_min_dwell = kHour;
  expectations.max_resizes = 10;
  InvariantMonitor monitor(expectations);

  monitor.note_resize(3, 4, kMinute);
  EXPECT_TRUE(monitor.ok());
  // Same direction inside the dwell is fine — only reversals thrash.
  monitor.note_resize(4, 5, 2 * kMinute);
  EXPECT_TRUE(monitor.ok());
  // Reversal after the dwell is fine too.
  monitor.note_resize(5, 4, 2 * kMinute + kHour);
  EXPECT_TRUE(monitor.ok());
  // Reversal inside the dwell is the thrash the invariant exists for.
  monitor.note_resize(4, 5, 3 * kMinute + kHour);
  ASSERT_FALSE(monitor.ok());
  EXPECT_EQ(monitor.violations()[0].invariant, "no-thrash");
}

TEST(InvariantMonitor, NoThrashBoundsTheTotalResizeCount) {
  InvariantMonitor::Expectations expectations;
  expectations.max_resizes = 3;
  InvariantMonitor monitor(expectations);
  // All same-direction, generously spaced: only the count can trip.
  for (std::size_t i = 0; i < 3; ++i) {
    monitor.note_resize(3 + i, 4 + i, static_cast<SimTime>(i + 1) * kHour);
  }
  EXPECT_TRUE(monitor.ok());
  // A no-op "resize" does not consume budget.
  monitor.note_resize(6, 6, 9 * kHour);
  EXPECT_TRUE(monitor.ok());
  monitor.note_resize(6, 7, 10 * kHour);
  ASSERT_FALSE(monitor.ok());
  EXPECT_EQ(monitor.violations()[0].invariant, "no-thrash");
}

TEST(InvariantMonitor, UnarmedNoThrashIgnoresResizes) {
  InvariantMonitor monitor;  // both bounds zero
  for (std::size_t i = 0; i < 20; ++i) {
    // Immediate flip-flopping, but nothing is armed.
    monitor.note_resize(3 + (i % 2), 3 + ((i + 1) % 2),
                        static_cast<SimTime>(i + 1));
  }
  EXPECT_TRUE(monitor.ok());
}

TEST(InvariantMonitor, StorageIsBoundedButTheCountIsNot) {
  InvariantMonitor monitor(armed());
  for (int i = 0; i < 1000; ++i) {
    monitor.record("test-invariant", "violation " + std::to_string(i), i);
  }
  EXPECT_EQ(monitor.total_violations(), 1000u);
  EXPECT_LT(monitor.violations().size(), 1000u);
  EXPECT_FALSE(monitor.ok());
}

}  // namespace
}  // namespace waif::experiments
