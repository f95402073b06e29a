// The three-topic scenario shared by the crash-point recovery harness
// (recovery_runner.h) and the chaos orchestrator (chaos_orchestrator.h).
//
// Three deliberately different topic configurations, so a crash or a fault
// schedule crosses every queue and journal stage: an adaptive on-demand
// topic with a rank-change delay stage, a buffer-prefetch topic with an
// expiration threshold (holding queue) and an interrupt refinement, and an
// on-line topic with a per-day delivery cap. Each harness names its topics
// under its own prefix ("recovery/...", "chaos/...") and folds the names
// and the per-topic traces into its digests, so both are stable contracts.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/forwarding_policy.h"
#include "workload/scenario.h"
#include "workload/trace.h"

namespace waif::experiments {

/// "<prefix>/adaptive", "<prefix>/buffer", "<prefix>/online", in that order.
std::vector<std::string> three_topic_names(std::string_view prefix);

/// The three topic configurations, volume limits taken from `scenario`.
std::map<std::string, core::TopicConfig> three_topic_configs(
    std::string_view prefix, const workload::ScenarioConfig& scenario);

struct TopicTrace {
  std::string topic;
  workload::Trace trace;
};

/// One trace per topic from independent splitmix64 substreams of `seed`.
/// The adaptive topic replays `base` with rank changes off; the buffer
/// topic runs at 0.75x the event rate with every event expiring (mean 4 h);
/// the on-line topic at 0.5x with nothing expiring. Only the adaptive
/// trace carries outages (there is one link).
std::vector<TopicTrace> three_topic_traces(std::string_view prefix,
                                           const workload::ScenarioConfig& base,
                                           std::uint64_t seed);

/// Arrivals summed over every topic's trace (sizes the broker).
std::size_t total_arrivals(const std::vector<TopicTrace>& traces);

}  // namespace waif::experiments
