#include "experiments/three_topic.h"

#include <utility>

#include "common/rng.h"

namespace waif::experiments {

std::vector<std::string> three_topic_names(std::string_view prefix) {
  const std::string base(prefix);
  return {base + "/adaptive", base + "/buffer", base + "/online"};
}

std::map<std::string, core::TopicConfig> three_topic_configs(
    std::string_view prefix, const workload::ScenarioConfig& scenario) {
  const std::vector<std::string> names = three_topic_names(prefix);
  std::map<std::string, core::TopicConfig> configs;
  {
    core::TopicConfig config;
    config.options.max = scenario.max;
    config.options.threshold = scenario.threshold;
    config.policy = core::PolicyConfig::adaptive();
    config.policy.delay = 30 * kMinute;  // rank-change delay stage
    configs.emplace(names[0], config);
  }
  {
    core::TopicConfig config;
    config.options.max = scenario.max;
    config.options.threshold = scenario.threshold;
    config.policy = core::PolicyConfig::buffer(8, 2 * kHour);
    config.refinements.interrupt_threshold = 4.8;
    configs.emplace(names[1], config);
  }
  {
    core::TopicConfig config;
    config.mode = core::DeliveryMode::kOnLine;
    config.options.max = scenario.max;
    config.options.threshold = scenario.threshold;
    config.policy = core::PolicyConfig::online();
    config.refinements.max_per_day = 16;
    configs.emplace(names[2], config);
  }
  return configs;
}

std::vector<TopicTrace> three_topic_traces(std::string_view prefix,
                                           const workload::ScenarioConfig& base,
                                           std::uint64_t seed) {
  workload::ScenarioConfig adaptive = base;
  adaptive.rank_drop_fraction = 0.0;
  adaptive.rank_raise_fraction = 0.0;

  workload::ScenarioConfig buffer = adaptive;
  buffer.event_frequency = adaptive.event_frequency * 0.75;
  buffer.expiring_fraction = 1.0;
  buffer.mean_expiration = 4 * kHour;
  buffer.outage_fraction = 0.0;

  workload::ScenarioConfig online = adaptive;
  online.event_frequency = adaptive.event_frequency * 0.5;
  online.expiring_fraction = 0.0;
  online.mean_expiration = 0;
  online.outage_fraction = 0.0;

  std::vector<std::string> names = three_topic_names(prefix);
  std::uint64_t state = seed;
  std::vector<TopicTrace> traces;
  traces.push_back({std::move(names[0]),
                    workload::generate_trace(adaptive, splitmix64(state))});
  traces.push_back({std::move(names[1]),
                    workload::generate_trace(buffer, splitmix64(state))});
  traces.push_back({std::move(names[2]),
                    workload::generate_trace(online, splitmix64(state))});
  return traces;
}

std::size_t total_arrivals(const std::vector<TopicTrace>& traces) {
  std::size_t total = 0;
  for (const TopicTrace& entry : traces) total += entry.trace.arrivals.size();
  return total;
}

}  // namespace waif::experiments
