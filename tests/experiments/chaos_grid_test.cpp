// Single-family fault grids over the unified chaos harness. Each cell is a
// ChaosSchedule built only from existing fault kinds and arming lines, run
// through run_chaos with every InvariantMonitor check on:
//
//   - the last-hop grid: silent drop rate x outage downtime x active-replica
//     crashes (kLinkFault, kOutage, kCrashActive) — reads only what the
//     transport delivered, nothing expired reaches the device, duplicates
//     stay within requeues, and the channel's transfer and transmission
//     books balance;
//   - the overload grid: publish storm x device stall x queue budget
//     (kStorm, kDeviceStall, budgets + admission + breaker) — queues never
//     exceed the armed budgets, no budget means no shed and no reject,
//     every shed is journaled in canonical order, stalls trip the breaker
//     and recovery recloses it.
//
// Both grids also run through ParallelRunner at 1 and 4 workers and must
// agree digest for digest.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/time.h"
#include "experiments/chaos_orchestrator.h"
#include "experiments/chaos_schedule.h"
#include "experiments/parallel_runner.h"

namespace waif::experiments {
namespace {

/// The schedule as a `.chaos` file would carry it: written, re-read, and
/// checked to have survived the trip unchanged.
ChaosSchedule round_trip(const ChaosSchedule& schedule) {
  std::ostringstream text;
  write_chaos(text, schedule);
  std::istringstream in(text.str());
  ChaosSchedule reread = read_chaos(in);
  EXPECT_EQ(digest_chaos(reread), digest_chaos(schedule));
  return reread;
}

std::string describe(const ChaosOutcome& outcome) {
  std::string out;
  for (const ChaosViolation& violation : outcome.violations) {
    out += violation.invariant + " at " + std::to_string(violation.at) +
           ": " + violation.detail + "\n";
  }
  return out;
}

// --------------------------------------------------------- last-hop grid

/// drop (link-fault magnitude) x outage (fraction of the run spent down)
/// x crashes (active-replica kills).
using LastHopCell = std::tuple<double, double, std::size_t>;

ChaosSchedule lasthop_schedule(const LastHopCell& cell) {
  const auto [drop, outage, crashes] = cell;
  ChaosSchedule schedule;  // seed 1, 3-day horizon, nothing armed
  const SimTime horizon = schedule.horizon;
  if (drop > 0.0) {
    schedule.faults.push_back(
        {ChaosFaultKind::kLinkFault, 0, horizon, drop, 0, 0x11});
  }
  if (outage > 0.0) {
    // Six evenly spaced windows, each centred in its slot, together down
    // for `outage` of the run.
    constexpr SimTime kWindows = 6;
    const SimDuration slot = horizon / kWindows;
    const auto down =
        static_cast<SimDuration>(outage * static_cast<double>(slot));
    for (SimTime k = 0; k < kWindows; ++k) {
      schedule.faults.push_back({ChaosFaultKind::kOutage,
                                 k * slot + (slot - down) / 2, down, 0.0, 0,
                                 1});
    }
  }
  for (std::size_t i = 0; i < crashes; ++i) {
    const SimTime at = horizon * static_cast<SimTime>(i + 1) /
                       static_cast<SimTime>(crashes + 1);
    schedule.faults.push_back(
        {ChaosFaultKind::kCrashActive, at, 2 * kHour, 0.0, 0, 1});
  }
  return round_trip(schedule);
}

std::vector<LastHopCell> lasthop_cells() {
  std::vector<LastHopCell> cells;
  for (double outage : {0.0, 0.25, 0.5}) {
    for (double drop : {0.0, 0.05, 0.2}) {
      for (std::size_t crashes : {0u, 2u}) {
        cells.emplace_back(drop, outage, crashes);
      }
    }
  }
  return cells;
}

class LastHopGrid : public ::testing::TestWithParam<LastHopCell> {};

TEST_P(LastHopGrid, KeepsEveryInvariant) {
  const auto [drop, outage, crashes] = GetParam();
  const ChaosOutcome outcome = run_chaos(lasthop_schedule(GetParam()));
  EXPECT_TRUE(outcome.ok()) << describe(outcome);
  EXPECT_GT(outcome.total_read, 0u);
  // Each axis actually bit.
  EXPECT_EQ(outcome.crashes, crashes);
  EXPECT_EQ(outcome.failovers, crashes);
  if (drop > 0.0) {
    EXPECT_GT(outcome.link_faults.downlink_drops(), 0u);
  } else {
    EXPECT_EQ(outcome.link_faults.downlink_drops(), 0u);
  }
  const std::size_t windows = outage > 0.0 ? 6 : 0;
  EXPECT_EQ(outcome.faults_applied,
            (drop > 0.0 ? 1u : 0u) + windows + crashes);
}

INSTANTIATE_TEST_SUITE_P(
    DropOutageCrash, LastHopGrid, ::testing::ValuesIn(lasthop_cells()),
    [](const ::testing::TestParamInfo<LastHopCell>& param_info) {
      const LastHopCell& cell = param_info.param;
      return "drop" + std::to_string(std::lround(std::get<0>(cell) * 100)) +
             "_outage" +
             std::to_string(std::lround(std::get<1>(cell) * 100)) +
             "_crashes" + std::to_string(std::get<2>(cell));
    });

// --------------------------------------------------------- overload grid

/// storm x stall x per-topic budget (0 = overload protection off).
using OverloadCell = std::tuple<bool, bool, std::size_t>;

ChaosSchedule overload_schedule(const OverloadCell& cell) {
  const auto [storm, stall, budget] = cell;
  ChaosSchedule schedule;  // seed 1, 3-day horizon
  const SimTime horizon = schedule.horizon;
  // The breaker is armed everywhere, so only ACK starvation can trip it.
  schedule.breaker_threshold = 3;
  if (budget > 0) {
    schedule.topic_budget = budget;
    schedule.proxy_budget = 2 * budget;
    schedule.admission_high = 2 * budget;
    schedule.admission_low = budget;
  }
  if (storm) {
    // Six 48-event bursts an hour apart from a quarter into the run.
    for (std::uint64_t burst = 0; burst < 6; ++burst) {
      schedule.faults.push_back(
          {ChaosFaultKind::kStorm,
           horizon / 4 + static_cast<SimDuration>(burst) * kHour, 0, 0.0, 48,
           0x5702 + burst});
    }
  }
  if (stall) {
    // Two 3-hour ACK-starvation windows, a third and two thirds in.
    for (SimTime i = 1; i <= 2; ++i) {
      schedule.faults.push_back(
          {ChaosFaultKind::kDeviceStall, horizon * i / 3, 3 * kHour, 0.0, 0,
           1});
    }
  }
  return round_trip(schedule);
}

std::vector<OverloadCell> overload_cells() {
  std::vector<OverloadCell> cells;
  for (bool storm : {false, true}) {
    for (bool stall : {false, true}) {
      for (std::size_t budget : {0u, 32u, 8u}) {
        cells.emplace_back(storm, stall, budget);
      }
    }
  }
  return cells;
}

class OverloadGrid : public ::testing::TestWithParam<OverloadCell> {};

TEST_P(OverloadGrid, KeepsEveryInvariant) {
  const auto [storm, stall, budget] = GetParam();
  const ChaosOutcome outcome = run_chaos(overload_schedule(GetParam()));
  // Budgets, shed legality and journaling, shed order and image equality
  // are all named checks inside run_chaos.
  EXPECT_TRUE(outcome.ok()) << describe(outcome);
  EXPECT_GT(outcome.total_read, 0u);
  // ACK starvation trips the breaker and the device's recovery recloses
  // it; a healthy device never trips it.
  if (stall) {
    EXPECT_GT(outcome.breaker_trips, 0u);
    EXPECT_GT(outcome.breaker_closes, 0u);
  } else {
    EXPECT_EQ(outcome.breaker_trips, 0u);
  }
  // A storm against an armed budget has to shed.
  if (storm && budget > 0) {
    EXPECT_GT(outcome.shed, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    StormStallBudget, OverloadGrid, ::testing::ValuesIn(overload_cells()),
    [](const ::testing::TestParamInfo<OverloadCell>& param_info) {
      const OverloadCell& cell = param_info.param;
      return std::string(std::get<0>(cell) ? "storm" : "calm") + "_" +
             (std::get<1>(cell) ? "stall" : "nostall") + "_budget" +
             std::to_string(std::get<2>(cell));
    });

// ------------------------------------------------------------ determinism

std::vector<std::uint64_t> grid_digests(std::size_t jobs) {
  std::vector<ChaosSchedule> schedules;
  for (const LastHopCell& cell : lasthop_cells()) {
    schedules.push_back(lasthop_schedule(cell));
  }
  for (const OverloadCell& cell : overload_cells()) {
    schedules.push_back(overload_schedule(cell));
  }
  ParallelRunner runner(jobs);
  return runner.map(schedules.size(), [&schedules](std::size_t i) {
    return run_chaos(schedules[i]).digest();
  });
}

TEST(ChaosGridDeterminism, DigestsAgreeAtOneAndFourWorkers) {
  const std::vector<std::uint64_t> sequential = grid_digests(1);
  const std::vector<std::uint64_t> parallel = grid_digests(4);
  ASSERT_EQ(sequential.size(),
            lasthop_cells().size() + overload_cells().size());
  EXPECT_EQ(sequential, parallel);
}

}  // namespace
}  // namespace waif::experiments
