// Differential crash/recovery tests over the crash-point harness
// (experiments/recovery_runner.h): the digest of (run, crash at record N,
// recover, continue) is compared against the uninterrupted run.
//
// The headline theorem: with sync-every-record persistence and no storage
// faults, recovery is EXACT at every single record index — same reads, same
// instants, same ids, same final record count. The remaining tests relax
// the sync policy and inject storage faults, checking the documented
// bounded-loss and no-duplicate guarantees instead of exact identity; the
// durability grid at the end crosses all of those axes cell by cell.
#include "experiments/recovery_runner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>

#include "common/time.h"

namespace waif::experiments {
namespace {

RecoveryPlan base_plan() {
  RecoveryPlan plan;
  plan.scenario = recovery_scenario();
  plan.seed = 7;
  return plan;
}

TEST(RecoveryRunner, PersistenceIsBehaviorNeutralWithoutFaults) {
  // Journaling every mutation and snapshotting must not perturb the run:
  // the persistence-off control and the persistence-on run read the exact
  // same notifications at the exact same instants.
  RecoveryPlan off = base_plan();
  off.persist = false;
  RecoveryPlan on = base_plan();
  on.persistence.snapshot_interval = 64;

  const RecoveryOutcome control = run_recovery_plan(off);
  const RecoveryOutcome journaled = run_recovery_plan(on);

  EXPECT_EQ(control.read_digest, journaled.read_digest);
  EXPECT_EQ(control.total_read, journaled.total_read);
  EXPECT_EQ(control.read_operations, journaled.read_operations);
  EXPECT_EQ(control.records_logged, 0u);
  EXPECT_GT(journaled.records_logged, 100u);
  EXPECT_GT(journaled.snapshots, 0u);
  EXPECT_TRUE(journaled.fsck_recoverable);
}

TEST(RecoveryRunner, CrashAtEveryRecordRecoversExactly) {
  // The acceptance sweep: kill the proxy at EVERY record index of the
  // three-topic scenario. With the smallest loss window (sync every record,
  // write-ahead forwards) and instant restart, the recovered run must be
  // byte-identical to the uninterrupted one.
  RecoveryPlan plan = base_plan();
  plan.persistence.sync_interval = 1;
  plan.persistence.sync_on_forward = true;
  plan.persistence.snapshot_interval = 64;

  const RecoveryOutcome baseline = run_recovery_plan(plan);
  ASSERT_GT(baseline.records_logged, 100u);
  ASSERT_EQ(baseline.crashes, 0u);

  for (std::uint64_t n = 1; n <= baseline.records_logged; ++n) {
    RecoveryPlan crashed = plan;
    crashed.crash_at_record = static_cast<std::int64_t>(n);
    const RecoveryOutcome outcome = run_recovery_plan(crashed);
    ASSERT_EQ(outcome.crashes, 1u) << "crash at record " << n;
    ASSERT_EQ(outcome.lost_window, 0u) << "crash at record " << n;
    ASSERT_EQ(outcome.read_digest, baseline.read_digest)
        << "crash at record " << n;
    ASSERT_EQ(outcome.total_read, baseline.total_read)
        << "crash at record " << n;
    ASSERT_EQ(outcome.records_logged, baseline.records_logged)
        << "crash at record " << n;
    ASSERT_EQ(outcome.duplicate_user_reads, 0u) << "crash at record " << n;
    ASSERT_TRUE(outcome.fsck_recoverable) << "crash at record " << n;
  }
}

TEST(RecoveryRunner, SnapshotIntervalDoesNotChangeRecovery) {
  // Whether recovery starts from a snapshot plus a short tail or replays
  // the whole log from scratch, the rebuilt proxy is the same proxy.
  RecoveryPlan never = base_plan();
  never.persistence.snapshot_interval = 0;  // recovery = full-log replay
  never.crash_at_record = 150;
  RecoveryPlan frequent = base_plan();
  frequent.persistence.snapshot_interval = 16;
  frequent.crash_at_record = 150;

  const RecoveryOutcome from_log = run_recovery_plan(never);
  const RecoveryOutcome from_snapshot = run_recovery_plan(frequent);

  EXPECT_FALSE(from_log.recovered_from_snapshot);
  EXPECT_TRUE(from_snapshot.recovered_from_snapshot);
  EXPECT_LT(from_snapshot.replayed, from_log.replayed);
  EXPECT_EQ(from_log.read_digest, from_snapshot.read_digest);
  EXPECT_EQ(from_log.total_read, from_snapshot.total_read);
}

TEST(RecoveryRunner, BatchedSyncLossIsBoundedByTheUnsyncedWindow) {
  // sync_interval 32 without write-ahead forwards: a crash discards at most
  // the unsynced tail. The run may lose (or re-deliver) a bounded handful
  // of reads, never an expired notification.
  RecoveryPlan plan = base_plan();
  plan.persistence.sync_interval = 32;
  plan.persistence.sync_on_forward = false;
  plan.persistence.snapshot_interval = 64;

  const RecoveryOutcome baseline = run_recovery_plan(plan);
  ASSERT_GT(baseline.records_logged, 100u);

  for (std::uint64_t n = 10; n <= baseline.records_logged; n += 37) {
    RecoveryPlan crashed = plan;
    crashed.crash_at_record = static_cast<std::int64_t>(n);
    const RecoveryOutcome outcome = run_recovery_plan(crashed);
    ASSERT_EQ(outcome.crashes, 1u) << "crash at record " << n;
    ASSERT_LE(outcome.lost_window, 32u) << "crash at record " << n;
    // Every lost record forfeits at most one read; behavioural divergence
    // after the loss can shift a read boundary, hence the small slack.
    const std::int64_t loss = static_cast<std::int64_t>(baseline.total_read) -
                              static_cast<std::int64_t>(outcome.total_read);
    ASSERT_LE(loss, static_cast<std::int64_t>(outcome.lost_window) +
                        2 * plan.scenario.max)
        << "crash at record " << n;
    ASSERT_TRUE(outcome.fsck_recoverable) << "crash at record " << n;
  }
}

TEST(RecoveryRunner, FailedFsyncsRefuseForwardsButStaySafe)  {
  // fsync failures with the write-ahead discipline on: the delivery whose
  // record could not be made durable is refused (parked), never performed
  // unlogged. Duplicates stay impossible; the run itself aborts otherwise.
  RecoveryPlan plan = base_plan();
  plan.storage_fault.fsync_failure_probability = 0.2;
  plan.crash_at_record = 120;

  const RecoveryOutcome outcome = run_recovery_plan(plan);
  EXPECT_EQ(outcome.crashes, 1u);
  EXPECT_GT(outcome.storage_faults.fsync_failures, 0u);
  EXPECT_GT(outcome.forward_refusals, 0u);
  EXPECT_EQ(outcome.duplicate_user_reads, 0u);
  EXPECT_TRUE(outcome.fsck_recoverable);
}

TEST(RecoveryRunner, TornWritesAndBitFlipsAreTruncatedAway) {
  // A crash that leaves a torn, bit-flipped tail: recovery must reject the
  // damage (CRC), repair the log by truncation and continue from the last
  // durable record — still no duplicates, nothing expired delivered.
  RecoveryPlan plan = base_plan();
  plan.persistence.sync_interval = 16;  // leave an unsynced tail to tear
  plan.storage_fault.torn_write_probability = 1.0;
  plan.storage_fault.bit_flip_probability = 0.5;

  bool saw_repair = false;
  for (std::uint64_t n = 40; n <= 160; n += 40) {
    RecoveryPlan crashed = plan;
    crashed.crash_at_record = static_cast<std::int64_t>(n);
    crashed.storage_fault_seed = 0xBADF00D + n;
    const RecoveryOutcome outcome = run_recovery_plan(crashed);
    ASSERT_EQ(outcome.crashes, 1u) << "crash at record " << n;
    ASSERT_EQ(outcome.duplicate_user_reads, 0u) << "crash at record " << n;
    ASSERT_TRUE(outcome.fsck_recoverable) << "crash at record " << n;
    saw_repair = saw_repair || outcome.wal_repairs > 0 ||
                 outcome.storage_faults.torn_writes > 0;
  }
  EXPECT_TRUE(saw_repair);
}

TEST(RecoveryRunner, RestartDelayLosesOnlyTheDowntime) {
  // A two-hour repair window: events published meanwhile are lost upstream,
  // reads are served from the device buffer, and the recovered proxy picks
  // the run back up. Safety still holds; the read volume can only shrink.
  RecoveryPlan plan = base_plan();
  plan.crash_at_record = 100;
  plan.restart_delay = 2 * kHour;

  const RecoveryOutcome baseline = run_recovery_plan(base_plan());
  const RecoveryOutcome outcome = run_recovery_plan(plan);
  EXPECT_EQ(outcome.crashes, 1u);
  EXPECT_LE(outcome.total_read, baseline.total_read);
  EXPECT_GT(outcome.total_read, 0u);
  EXPECT_EQ(outcome.duplicate_user_reads, 0u);
}

TEST(RecoveryRunner, ReliableChannelRecoveryTrustsOrRequeues) {
  // Over the reliable transport the ACK stream is journaled. Trusting the
  // log keeps the no-duplicate guarantee; requeuing the in-doubt events
  // re-sends them on purpose (the documented tradeoff) but must still never
  // deliver anything expired.
  RecoveryPlan trust = base_plan();
  trust.reliable_channel = true;
  trust.crash_at_record = 120;

  const RecoveryOutcome trusted = run_recovery_plan(trust);
  EXPECT_EQ(trusted.crashes, 1u);
  EXPECT_EQ(trusted.duplicate_user_reads, 0u);
  EXPECT_TRUE(trusted.fsck_recoverable);

  RecoveryPlan requeue = trust;
  requeue.unacked = storage::RecoverUnacked::kRequeueHolding;
  const RecoveryOutcome requeued = run_recovery_plan(requeue);
  EXPECT_EQ(requeued.crashes, 1u);
  EXPECT_GT(requeued.total_read, 0u);
}

// ------------------------------------------------------------ durability grid
//
// Sync policy x snapshot interval x injected storage fault x crash point
// over 12-day runs. The crash point indexes the uninterrupted no-fault
// run's WAL (without faults the sync policy cannot change behaviour, so
// one baseline covers both policies).

enum class SyncMode { kWriteAhead, kBatched };
enum class StorageFault { kNone, kFsync, kTorn };

/// sync x snapshot interval x fault x crash fraction (0 = no crash).
using DurabilityCell =
    std::tuple<SyncMode, std::uint64_t, StorageFault, double>;

RecoveryPlan grid_plan() {
  RecoveryPlan plan;
  plan.scenario = recovery_scenario();
  plan.scenario.horizon = 12 * kDay;
  return plan;
}

const RecoveryOutcome& grid_baseline() {
  static const RecoveryOutcome baseline = run_recovery_plan(grid_plan());
  return baseline;
}

RecoveryPlan cell_plan(const DurabilityCell& cell) {
  const auto [sync, snapshot_interval, fault, crash_fraction] = cell;
  RecoveryPlan plan = grid_plan();
  plan.persistence.snapshot_interval = snapshot_interval;
  if (sync == SyncMode::kBatched) {
    plan.persistence.sync_interval = 32;
    plan.persistence.sync_on_forward = false;
  }
  switch (fault) {
    case StorageFault::kNone:
      break;
    case StorageFault::kFsync:
      plan.storage_fault.fsync_failure_probability = 0.2;
      break;
    case StorageFault::kTorn:
      plan.storage_fault.torn_write_probability = 1.0;
      plan.storage_fault.bit_flip_probability = 0.5;
      break;
  }
  if (crash_fraction > 0.0) {
    plan.crash_at_record = static_cast<std::int64_t>(
        crash_fraction *
        static_cast<double>(grid_baseline().records_logged));
  }
  return plan;
}

std::string cell_name(const DurabilityCell& cell) {
  const auto [sync, snapshot_interval, fault, crash_fraction] = cell;
  const char* fault_name = fault == StorageFault::kNone    ? "none"
                           : fault == StorageFault::kFsync ? "fsync"
                                                           : "torn";
  return std::string(sync == SyncMode::kWriteAhead ? "ahead" : "batch") +
         "_snap" + std::to_string(snapshot_interval) + "_" + fault_name +
         "_crash" + std::to_string(std::lround(crash_fraction * 10));
}

class DurabilityGrid : public ::testing::TestWithParam<DurabilityCell> {};

TEST_P(DurabilityGrid, KeepsTheDurabilityInvariants) {
  const auto [sync, snapshot_interval, fault, crash_fraction] = GetParam();
  const RecoveryOutcome& baseline = grid_baseline();
  ASSERT_GT(baseline.records_logged, 0u);
  ASSERT_EQ(baseline.crashes, 0u);

  const RecoveryPlan plan = cell_plan(GetParam());
  const RecoveryOutcome result = run_recovery_plan(plan);
  const bool crashed = result.crashes > 0;
  const bool write_ahead = sync == SyncMode::kWriteAhead;
  const bool clean_storage = fault == StorageFault::kNone;

  // Whatever the fault left on disk, fsck finds a recoverable image.
  EXPECT_TRUE(result.fsck_recoverable);
  // Write-ahead syncs + clean storage = exact recovery.
  if (write_ahead && clean_storage) {
    EXPECT_EQ(result.read_digest, baseline.read_digest);
    EXPECT_EQ(result.total_read, baseline.total_read);
    if (crashed) {
      EXPECT_EQ(result.lost_window, 0u);
    }
  }
  // No crash + no fault is behaviour-neutral for either sync policy.
  if (!crashed && clean_storage) {
    EXPECT_EQ(result.read_digest, baseline.read_digest);
  }
  // A crash can only cost the unsynced window: each lost record hides at
  // most one read of up to `max` events, and the in-flight slack on either
  // side of the crash instant adds two more windows.
  if (crashed && clean_storage) {
    const std::int64_t loss = static_cast<std::int64_t>(baseline.total_read) -
                              static_cast<std::int64_t>(result.total_read);
    EXPECT_LE(loss, static_cast<std::int64_t>(
                        (result.lost_window + 2) *
                        static_cast<std::uint64_t>(plan.scenario.max)));
  }
  // Duplicates require losing a forward record, which the write-ahead
  // discipline makes impossible, crash or no crash, faults or not.
  // (Batched cells that crash may legitimately re-deliver.)
  if (write_ahead || !crashed) {
    EXPECT_EQ(result.duplicate_user_reads, 0u);
  }
  // A crash was injected wherever the cell asked for one.
  if (crash_fraction > 0.0) {
    EXPECT_TRUE(crashed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SyncSnapshotFaultCrash, DurabilityGrid,
    ::testing::Combine(
        ::testing::Values(SyncMode::kWriteAhead, SyncMode::kBatched),
        ::testing::Values(std::uint64_t{32}, std::uint64_t{256}),
        ::testing::Values(StorageFault::kNone, StorageFault::kFsync,
                          StorageFault::kTorn),
        ::testing::Values(0.0, 0.5)),
    [](const ::testing::TestParamInfo<DurabilityCell>& param_info) {
      return cell_name(param_info.param);
    });

}  // namespace
}  // namespace waif::experiments
