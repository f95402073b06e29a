// The repository benchmark harness.
//
//   perfbench --workload <name> --seed <n> --seconds <s> [--trace]
//             [--trace-file <path>]
//
// Runs one workload through the library's public entry points, one run at
// a time on one core, as a closed loop of one: the next replay, fleet run
// or chaos schedule starts when the previous one returns. Passes over the
// same inputs repeat until --seconds have elapsed, and every pass must
// digest the same as the first. Prints one JSON document: the run ledger,
// the folded digest of the first pass and every metric with its unit.
//
// Without --trace the metrics are the end-to-end ones, measured on the
// program's own entry points with nothing wrapped. With --trace, untraced
// and traced passes alternate. The traced paper_replay pass rebuilds the
// replay from outside with span decorators on pubsub::Subscriber and
// core::DeviceChannel; the fleet and chaos passes put spans around their
// entry points and read counts from their outcomes. Reported: per-layer
// self times, counts and the trace's overhead against the untraced pass.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/alloc_stats.h"
#include "common/flags.h"
#include "common/resource.h"
#include "common/rng.h"
#include "core/channel.h"
#include "core/proxy.h"
#include "core/shard_ring.h"
#include "experiments/chaos_orchestrator.h"
#include "experiments/chaos_schedule.h"
#include "experiments/elastic_fleet.h"
#include "experiments/invariant_monitor.h"
#include "experiments/parallel_runner.h"
#include "experiments/runner.h"
#include "experiments/sharded_fleet.h"
#include "pubsub/broker.h"
#include "pubsub/publisher.h"
#include "sim/simulator.h"
#include "spans.h"
#include "stats.h"
#include "workload/population.h"
#include "workload/trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace waif;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

double pct(double part, double whole) { return 100.0 * ratio(part, whole); }

/// Adds run_p50_ms and, when enough samples exist, the highest percentile
/// with at least ten samples beyond it (run_p90_ms from 100 samples).
void add_run_times(Report& report, const std::vector<double>& run_ms) {
  report.add("run_p50_ms", perfbench::median(run_ms), "ms");
  if (const auto p = perfbench::reportable_percentile(run_ms.size(), {90.0})) {
    report.add("run_p90_ms", perfbench::quantile(run_ms, *p / 100.0), "ms");
  }
  report.add("run_samples", static_cast<double>(run_ms.size()), "count");
}

/// Sim-time delays in seconds: p50 and, when enough samples exist, p99.
void add_sim_latency(Report& report, const std::string& prefix,
                     const std::vector<double>& samples) {
  if (samples.empty()) return;
  report.add(prefix + "_p50_s", perfbench::median(samples), "s");
  if (const auto p = perfbench::reportable_percentile(samples.size(), {99.0})) {
    report.add(prefix + "_p99_s", perfbench::quantile(samples, *p / 100.0),
               "s");
  }
}

/// Per-pass values of one measurement; reported as their median.
using PassSamples = std::map<std::string, std::vector<double>>;

double median_of(const PassSamples& samples, const std::string& key) {
  const auto it = samples.find(key);
  return it == samples.end() || it->second.empty()
             ? 0.0
             : perfbench::median(it->second);
}

/// Runs run(0), run(1), ... over `count` inputs cyclically until `seconds`
/// have elapsed and at least one full pass is done, calling end_pass()
/// after each completed pass. Stopping between runs rather than between
/// passes keeps the measured time close to `seconds`.
void cycle_for(double seconds, std::size_t count,
               const std::function<void(std::size_t)>& run,
               const std::function<void()>& end_pass) {
  const auto start = Clock::now();
  std::size_t done = 0;
  do {
    run(done % count);
    if (++done % count == 0) end_pass();
  } while (done < count || seconds_since(start) < seconds);
}

/// Repeats `pass` until `seconds` have elapsed, at least once.
void repeat_for(double seconds, const std::function<void(std::size_t)>& pass) {
  const auto start = Clock::now();
  std::size_t index = 0;
  do {
    pass(index++);
  } while (seconds_since(start) < seconds);
}

// --- span decorators on the two public virtual seams -----------------------

/// Span names of the traced wiring, registered once.
struct SpanKinds {
  explicit SpanKinds(SpanRecorder& spans)
      : replay(spans.kind("experiments.replay")),
        generate_trace(spans.kind("workload.generate_trace")),
        run_until(spans.kind("sim.run_until")),
        publish(spans.kind("pubsub.publish")),
        update_rank(spans.kind("pubsub.update_rank")),
        on_notification(spans.kind("core.on_notification")),
        user_read(spans.kind("core.user_read")),
        deliver(spans.kind("net.deliver")) {}

  SpanRecorder::Kind replay, generate_trace, run_until, publish, update_rank,
      on_notification, user_read, deliver;
};

/// What the decorators observe besides time.
struct ReplayProbe {
  std::uint64_t deliver_calls = 0;
  std::uint64_t deliver_accepted = 0;
  /// Sim seconds from publish to first accepted delivery (per id).
  std::vector<double> forward_latency_s;
  /// Sim seconds from publish to the user read that returned it.
  std::vector<double> read_latency_s;
};

class TracedSubscriber final : public pubsub::Subscriber {
 public:
  TracedSubscriber(pubsub::Subscriber& inner, SpanRecorder* spans,
                   SpanRecorder::Kind kind)
      : inner_(inner), spans_(spans), kind_(kind) {}

  void on_notification(const pubsub::NotificationPtr& notification) override {
    const ScopedSpan span(spans_, kind_);
    inner_.on_notification(notification);
  }
  void on_topic_withdrawn(const std::string& topic) override {
    inner_.on_topic_withdrawn(topic);
  }

 private:
  pubsub::Subscriber& inner_;
  SpanRecorder* spans_;
  SpanRecorder::Kind kind_;
};

class TracedChannel final : public core::DeviceChannel {
 public:
  TracedChannel(core::DeviceChannel& inner, const sim::Simulator& sim,
                SpanRecorder* spans, SpanRecorder::Kind kind,
                ReplayProbe& probe)
      : inner_(inner), sim_(sim), spans_(spans), kind_(kind), probe_(probe) {}

  bool link_up() const override { return inner_.link_up(); }
  bool accepting() const override { return inner_.accepting(); }
  bool deliver(const pubsub::NotificationPtr& notification) override {
    bool accepted = false;
    {
      const ScopedSpan span(spans_, kind_);
      accepted = inner_.deliver(notification);
    }
    ++probe_.deliver_calls;
    if (accepted) {
      ++probe_.deliver_accepted;
      if (forwarded_.insert(notification->id.value).second) {
        probe_.forward_latency_s.push_back(
            to_seconds(sim_.now() - notification->published_at));
      }
    }
    return accepted;
  }

 private:
  core::DeviceChannel& inner_;
  const sim::Simulator& sim_;
  SpanRecorder* spans_;
  SpanRecorder::Kind kind_;
  ReplayProbe& probe_;
  std::unordered_set<std::uint64_t> forwarded_;
};

// --- paper_replay -----------------------------------------------------------

/// Trace seeds per run; each is replayed over the 3 x 2 grid, so a pass is
/// 17 x 6 = 102 compare_policies calls (at least 100, so p90 has ten
/// samples beyond it within one pass).
constexpr std::size_t kReplaySeeds = 17;
constexpr std::size_t kSetupRepeats = 9;

struct ReplayCase {
  workload::ScenarioConfig config;
  std::uint64_t seed = 0;
};

std::vector<ReplayCase> replay_cases(std::uint64_t seed) {
  std::vector<ReplayCase> cases;
  std::uint64_t state = seed;
  for (std::size_t s = 0; s < kReplaySeeds; ++s) {
    const std::uint64_t trace_seed = splitmix64(state);
    for (const double outage : {0.1, 0.5, 0.9}) {
      for (const int max : {4, 16}) {
        ReplayCase c;
        c.config.event_frequency = 32.0;
        c.config.horizon = kYear;
        c.config.user_frequency = 2.0;
        c.config.threshold = 2.0;
        c.config.mean_expiration = seconds(491520.0);
        c.config.rank_drop_fraction = 0.1;
        c.config.outage_fraction = outage;
        c.config.max = max;
        c.seed = trace_seed;
        cases.push_back(c);
      }
    }
  }
  return cases;
}

/// experiments::run_trace's wiring for a fault-free scenario, rebuilt from
/// the public API so the broker -> proxy and proxy -> device seams can be
/// decorated. Must digest-equal run_trace on every trace; the harness checks
/// that on every traced run.
experiments::RunOutcome wired_replay(const workload::Trace& trace,
                                     const workload::ScenarioConfig& config,
                                     const core::PolicyConfig& policy,
                                     SpanRecorder* spans,
                                     const SpanKinds& kinds,
                                     ReplayProbe& probe) {
  if (config.fault.enabled()) {
    throw std::invalid_argument("wired_replay covers fault-free scenarios");
  }
  using experiments::kTopic;
  sim::Simulator sim;
  pubsub::Broker broker(sim, std::max<std::size_t>(trace.arrivals.size(), 1));
  net::Link link(sim);

  const experiments::DeviceOverrides overrides;
  device::DeviceConfig device_config;
  device_config.storage_limit = overrides.storage_limit;
  device_config.battery_capacity = overrides.battery_capacity;
  device_config.receive_cost = overrides.receive_cost;
  device_config.send_cost = overrides.send_cost;
  device::Device device(sim, DeviceId{1}, device_config);

  core::SimDeviceChannel channel(link, device);
  TracedChannel traced_channel(channel, sim, spans, kinds.deliver, probe);
  core::Proxy proxy(sim, traced_channel);
  proxy.attach_to_link(link);

  core::TopicConfig topic_config;
  topic_config.mode = core::DeliveryMode::kOnDemand;
  topic_config.options.max = config.max;
  topic_config.options.threshold = config.threshold;
  topic_config.policy = policy;
  proxy.add_topic(kTopic, topic_config);
  device.set_topic_threshold(kTopic, config.threshold);

  // Declared before the publisher: the publisher withdraws its topics on
  // destruction, which reaches the proxy through this decorator.
  TracedSubscriber traced_proxy(proxy, spans, kinds.on_notification);
  pubsub::Publisher publisher(broker, "workload");
  publisher.advertise(kTopic);
  broker.subscribe(kTopic, traced_proxy, topic_config.options);

  core::LastHopSession session(proxy, link, device);
  link.apply_schedule(trace.outages);

  experiments::RunOutcome outcome;
  outcome.published.resize(trace.arrivals.size());
  std::vector<NotificationId>& published = outcome.published;

  for (std::size_t i = 0; i < trace.arrivals.size(); ++i) {
    const workload::Arrival& arrival = trace.arrivals[i];
    sim.schedule_at(arrival.time,
                    [&publisher, &published, arrival, i, spans, &kinds] {
                      const ScopedSpan span(spans, kinds.publish);
                      auto notification = publisher.publish(
                          kTopic, arrival.rank, arrival.lifetime);
                      if (notification == nullptr) {
                        throw std::runtime_error("publish returned null");
                      }
                      published[i] = notification->id;
                    });
  }
  for (const workload::RankChange& change : trace.rank_changes) {
    if (change.arrival_index >= trace.arrivals.size()) {
      throw std::runtime_error("rank change of an unknown arrival");
    }
    sim.schedule_at(change.time, [&publisher, &published, change, spans,
                                  &kinds] {
      const ScopedSpan span(spans, kinds.update_rank);
      publisher.update_rank(published[change.arrival_index], change.new_rank);
    });
  }
  for (const SimTime read_at : trace.reads) {
    sim.schedule_at(read_at, [&session, &outcome, &sim, spans, &kinds,
                              &probe] {
      ++outcome.read_operations;
      std::vector<pubsub::NotificationPtr> read;
      {
        const ScopedSpan span(spans, kinds.user_read);
        read = session.user_read(kTopic);
      }
      for (const auto& notification : read) {
        outcome.read_ids.insert(notification->id.value);
        probe.read_latency_s.push_back(
            to_seconds(sim.now() - notification->published_at));
      }
    });
  }

  {
    const ScopedSpan span(spans, kinds.run_until);
    sim.run_until(trace.horizon);
  }

  const core::TopicState* state = proxy.topic(kTopic);
  if (state == nullptr) throw std::runtime_error("topic vanished");
  outcome.topic = state->stats();
  outcome.device = device.stats();
  outcome.link = link.stats();
  outcome.forwarded_unique = state->forwarded_unique();
  return outcome;
}

struct WorkloadResult {
  Report report;
  perfbench::RunLedger untraced;
  perfbench::RunLedger traced;
};

void run_paper_replay(const Options& options, WorkloadResult& result,
                      SpanRecorder& spans) {
  const std::vector<ReplayCase> cases = replay_cases(options.seed);
  Report& report = result.report;

  // Set-up: the traces, built kSetupRepeats times (median reported). The
  // replays regenerate their trace inside compare_policies, so the set-up
  // is measured apart from them and its traces are not kept.
  std::vector<double> setup_s;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    const auto start = Clock::now();
    for (const ReplayCase& c : cases) {
      (void)workload::generate_trace(c.config, c.seed);
    }
    setup_s.push_back(seconds_since(start));
  }

  // Per case: digests of the baseline and policy runs, from the first
  // untraced pass (compare_policies -> run_trace).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> run_digests(
      cases.size());
  std::vector<double> run_ms;
  run_ms.reserve(8192);
  double run_s = 0.0;
  double deliveries = 0.0;
  double waste = 0.0;
  double loss = 0.0;
  bool first_pass = true;

  const auto replay = [&](std::size_t i) {
    result.untraced.run(i, [&] {
      const auto start = Clock::now();
      const experiments::Comparison comparison = experiments::compare_policies(
          cases[i].config, core::PolicyConfig::adaptive(), cases[i].seed);
      const double elapsed = seconds_since(start);
      run_s += elapsed;
      run_ms.push_back(1e3 * elapsed);
      deliveries += static_cast<double>(comparison.baseline.device.received +
                                        comparison.policy.device.received);
      if (first_pass) {
        waste += comparison.waste_percent;
        loss += comparison.loss_percent;
        run_digests[i] = {experiments::digest(comparison.baseline),
                          experiments::digest(comparison.policy)};
      }
      return perfbench::RunResult{experiments::digest(comparison), 0};
    });
  };
  const auto end_pass = [&] {
    result.untraced.end_pass();
    first_pass = false;
  };

  if (!options.trace) {
    const std::uint64_t events_before = sim::total_events_fired();
    cycle_for(options.seconds, cases.size(), replay, end_pass);
    const double events =
        static_cast<double>(sim::total_events_fired() - events_before);
    report.add("setup_s", perfbench::median(setup_s), "s");
    add_run_times(report, run_ms);
    report.add("sim_events_per_s", ratio(events, run_s), "1/s");
    report.add("deliveries_per_s", ratio(deliveries, run_s), "1/s");
    report.add("waste_pct", waste / static_cast<double>(cases.size()), "%");
    report.add("loss_pct", loss / static_cast<double>(cases.size()), "%");
    return;
  }

  PassSamples passes;
  const auto untraced_pass = [&] {
    const std::uint64_t events_before = sim::total_events_fired();
    const alloc_stats::AllocProbe allocs;
    const double run_s_before = run_s;
    for (std::size_t i = 0; i < cases.size(); ++i) replay(i);
    end_pass();
    const double events =
        static_cast<double>(sim::total_events_fired() - events_before);
    passes["pass_s"].push_back(run_s - run_s_before);
    passes["allocs_per_event"].push_back(
        ratio(static_cast<double>(allocs.allocations()), events));
  };

  const SpanKinds kinds(spans);
  ReplayProbe probe;
  PassSamples layer;
  std::size_t traced_passes = 0;
  const auto traced_pass = [&] {
    spans.reset_totals();
    const std::uint64_t events_before = sim::total_events_fired();
    const auto start = Clock::now();
    ReplayProbe pass_probe;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      spans.set_run(traced_passes * cases.size() + i);
      bool matches = true;
      result.traced.run(i, [&] {
        const ScopedSpan span(&spans, kinds.replay);
        workload::Trace trace;
        {
          const ScopedSpan generate(&spans, kinds.generate_trace);
          trace = workload::generate_trace(cases[i].config, cases[i].seed);
        }
        const experiments::RunOutcome online =
            wired_replay(trace, cases[i].config, core::PolicyConfig::online(),
                         &spans, kinds, pass_probe);
        const experiments::RunOutcome adaptive = wired_replay(
            trace, cases[i].config, core::PolicyConfig::adaptive(), &spans,
            kinds, pass_probe);
        const std::uint64_t online_digest = experiments::digest(online);
        const std::uint64_t adaptive_digest = experiments::digest(adaptive);
        matches = online_digest == run_digests[i].first &&
                  adaptive_digest == run_digests[i].second;
        return perfbench::RunResult{online_digest ^ adaptive_digest, 0};
      });
      if (!matches) result.traced.fail(i, "traced wiring != run_trace digest");
    }
    result.traced.end_pass();
    const double wall = seconds_since(start);
    const double events =
        static_cast<double>(sim::total_events_fired() - events_before);
    const auto self_s = [&](SpanRecorder::Kind kind) {
      return 1e-9 * static_cast<double>(spans.totals(kind).self_ns);
    };
    const auto total_s = [&](SpanRecorder::Kind kind) {
      return 1e-9 * static_cast<double>(spans.totals(kind).total_ns);
    };
    layer["traced_pass_s"].push_back(wall);
    layer["sim.self_s"].push_back(self_s(kinds.run_until));
    layer["pubsub.publish_self_s"].push_back(self_s(kinds.publish));
    layer["pubsub.update_rank_s"].push_back(total_s(kinds.update_rank));
    layer["core.on_notification_self_s"].push_back(
        self_s(kinds.on_notification));
    layer["core.user_read_self_s"].push_back(self_s(kinds.user_read));
    layer["net.deliver_s"].push_back(total_s(kinds.deliver));
    layer["experiments.run_s"].push_back(total_s(kinds.replay));
    layer["workload.generate_trace_s"].push_back(
        total_s(kinds.generate_trace));
    if (traced_passes == 0) {
      layer["sim.events"].push_back(events);
      layer["pubsub.publish_calls"].push_back(
          static_cast<double>(spans.totals(kinds.publish).calls));
      layer["core.on_notification_calls"].push_back(
          static_cast<double>(spans.totals(kinds.on_notification).calls));
      layer["core.user_read_calls"].push_back(
          static_cast<double>(spans.totals(kinds.user_read).calls));
      layer["net.deliver_calls"].push_back(
          static_cast<double>(pass_probe.deliver_calls));
      layer["net.deliver_accepted_ratio"].push_back(
          ratio(static_cast<double>(pass_probe.deliver_accepted),
                static_cast<double>(pass_probe.deliver_calls)));
      probe = std::move(pass_probe);
    }
    ++traced_passes;
  };

  // Paired passes, alternating which side runs first. The first pair runs
  // the untraced side first: its digests are what the traced side is
  // checked against.
  repeat_for(options.seconds, [&](std::size_t pair) {
    if (pair % 2 == 0) {
      untraced_pass();
      traced_pass();
    } else {
      traced_pass();
      untraced_pass();
    }
  });
  for (const char* name :
       {"sim.self_s", "pubsub.publish_self_s", "pubsub.update_rank_s",
        "core.on_notification_self_s", "core.user_read_self_s",
        "net.deliver_s", "experiments.run_s", "workload.generate_trace_s"}) {
    report.add(name, median_of(layer, name), "s");
  }
  for (const char* name :
       {"sim.events", "pubsub.publish_calls", "core.on_notification_calls",
        "core.user_read_calls", "net.deliver_calls"}) {
    report.add(name, median_of(layer, name), "count");
  }
  report.add("net.deliver_accepted_ratio",
             median_of(layer, "net.deliver_accepted_ratio"), "ratio");
  add_sim_latency(report, "core.forward_latency", probe.forward_latency_s);
  add_sim_latency(report, "read_latency", probe.read_latency_s);
  report.add("common.allocs_per_event", median_of(passes, "allocs_per_event"),
             "count");
  const double untraced_s = median_of(passes, "pass_s");
  report.add("bench.trace_overhead_pct",
             pct(median_of(layer, "traced_pass_s") - untraced_s, untraced_s),
             "%");
}

// --- fleet_sharded and fleet_elastic -----------------------------------------

constexpr std::uint64_t kFleetDevices = 200'000;

/// scale_million's 200k / s=1.1 row, seeded by the workload seed.
experiments::FleetConfig sharded_config(std::uint64_t seed) {
  experiments::FleetConfig config;
  config.shards = 16;
  config.vnodes = 64;
  config.population.devices = kFleetDevices;
  config.population.topics = 1024;
  config.population.zipf_s = 1.1;
  config.population.seed = seed;
  config.publishes = 49152;
  config.horizon = kDay;
  config.drain_period = 15 * kMinute;
  config.seed = seed;
  return config;
}

/// scale_elastic's schedule on the same population and trace: 8 -> 12 -> 8
/// shards at 6 h and 15 h, default (sync every record) persistence.
experiments::ElasticFleetConfig elastic_config(std::uint64_t seed) {
  experiments::ElasticFleetConfig config;
  config.base = sharded_config(seed);
  config.base.shards = 8;
  config.checkpoints = 24;
  config.resizes = {{6 * kHour, 12}, {15 * kHour, 8}};
  return config;
}

/// Delivery-side counts both fleet engines report.
struct FleetCounts {
  double deliveries = 0;
  double drops = 0;
  double rss_bytes = 0;
};

/// Times the pieces a fleet constructor builds, called separately.
void time_fleet_inputs(const experiments::FleetConfig& config,
                       std::size_t ring_shards, SpanRecorder& spans,
                       PassSamples& layer) {
  const auto timed = [&](const char* name, const std::function<void()>& fn) {
    const SpanRecorder::Kind kind = spans.kind(name);
    const auto start = Clock::now();
    {
      const ScopedSpan span(&spans, kind);
      fn();
    }
    layer[std::string(name) + "_s"].push_back(seconds_since(start));
  };
  std::optional<core::ShardRing> ring;
  timed("core.shard_ring_build",
        [&] { ring.emplace(ring_shards, config.vnodes); });
  timed("workload.population_build",
        [&] { workload::Population population(config.population, *ring); });
  timed("workload.draw_publishes",
        [&] { (void)experiments::draw_publishes(config); });
}

template <typename Fleet, typename Config, typename RunFn>
void run_fleet(const Options& options, WorkloadResult& result,
               SpanRecorder& spans, const Config& config,
               const experiments::FleetConfig& base, std::size_t ring_shards,
               RunFn&& run_once) {
  Report& report = result.report;
  experiments::ParallelRunner runner(1);
  PassSamples passes;
  PassSamples layer;
  std::vector<double> setup_s;
  std::vector<double> run_ms;
  const SpanRecorder::Kind run_kind = spans.kind("experiments.run");
  std::size_t pass_count = 0;

  const auto pass = [&](bool traced) {
    perfbench::RunLedger& ledger = traced ? result.traced : result.untraced;
    ledger.run(0, [&] {
      const auto setup_start = Clock::now();
      const Fleet fleet(config);
      if (!traced) setup_s.push_back(seconds_since(setup_start));
      const std::uint64_t events_before = sim::total_events_fired();
      const alloc_stats::AllocProbe allocs;
      const auto start = Clock::now();
      perfbench::RunResult verdict;
      FleetCounts counts;
      {
        const ScopedSpan span(traced ? &spans : nullptr, run_kind);
        verdict =
            run_once(fleet, runner, counts, report, pass_count == 0 && !traced);
      }
      const double elapsed = seconds_since(start);
      const double events =
          static_cast<double>(sim::total_events_fired() - events_before);
      PassSamples& into = traced ? layer : passes;
      into["run_s"].push_back(elapsed);
      if (!traced) {
        run_ms.push_back(1e3 * elapsed);
        passes["events_per_s"].push_back(ratio(events, elapsed));
        passes["deliveries_per_s"].push_back(
            ratio(counts.deliveries, elapsed));
        passes["allocs_per_delivery"].push_back(
            ratio(static_cast<double>(allocs.allocations()),
                  counts.deliveries));
        passes["allocs_per_event"].push_back(
            ratio(static_cast<double>(allocs.allocations()), events));
        passes["sweep_task_s"].push_back(runner.last_stats().task_seconds);
        passes["events"].push_back(events);
        passes["rss_bytes_per_device"].push_back(
            counts.rss_bytes / static_cast<double>(kFleetDevices));
        passes["overflow_drop_pct"].push_back(
            pct(counts.drops, counts.deliveries + counts.drops));
      }
      return verdict;
    });
    ledger.end_pass();
    if (!traced) ++pass_count;
  };

  if (!options.trace) {
    repeat_for(options.seconds, [&](std::size_t) { pass(false); });
    report.add("setup_s", perfbench::median(setup_s), "s");
    add_run_times(report, run_ms);
    report.add("sim_events_per_s", median_of(passes, "events_per_s"), "1/s");
    report.add("deliveries_per_s", median_of(passes, "deliveries_per_s"),
               "1/s");
    report.add("rss_bytes_per_device",
               median_of(passes, "rss_bytes_per_device"), "B/device");
    report.add("overflow_drop_pct", median_of(passes, "overflow_drop_pct"),
               "%");
    return;
  }

  time_fleet_inputs(base, ring_shards, spans, layer);
  repeat_for(options.seconds, [&](std::size_t pair) {
    pass(pair % 2 == 1);
    pass(pair % 2 == 0);
  });
  for (const char* name :
       {"core.shard_ring_build_s", "workload.population_build_s",
        "workload.draw_publishes_s"}) {
    report.add(name, median_of(layer, name), "s");
  }
  report.add("experiments.run_s", median_of(layer, "run_s"), "s");
  report.add("experiments.sweep_task_s", median_of(passes, "sweep_task_s"),
             "s");
  report.add("sim.events", median_of(passes, "events"), "count");
  report.add("common.allocs_per_delivery",
             median_of(passes, "allocs_per_delivery"), "count");
  report.add("common.allocs_per_event", median_of(passes, "allocs_per_event"),
             "count");
  report.add("bench.trace_overhead_pct",
             pct(median_of(layer, "run_s") - median_of(passes, "run_s"),
                 median_of(passes, "run_s")),
             "%");
}

double lineage_clean_ratio(const std::vector<storage::WalLineage>& lineage) {
  const auto clean = std::count_if(
      lineage.begin(), lineage.end(),
      [](const storage::WalLineage& l) { return l.clean; });
  return ratio(static_cast<double>(clean), static_cast<double>(lineage.size()));
}

void run_fleet_sharded(const Options& options, WorkloadResult& result,
                       SpanRecorder& spans) {
  const experiments::FleetConfig config = sharded_config(options.seed);
  run_fleet<experiments::ShardedFleet>(
      options, result, spans, config, config, config.shards,
      [&](const experiments::ShardedFleet& fleet,
          experiments::ParallelRunner& runner, FleetCounts& counts,
          Report& report, bool first) {
        const experiments::FleetOutcome outcome = fleet.run(runner);
        counts.deliveries = static_cast<double>(outcome.deliveries);
        counts.drops = static_cast<double>(outcome.overflow_drops);
        counts.rss_bytes = static_cast<double>(
            std::max(outcome.peak_rss_bytes, current_rss_bytes()));
        std::vector<storage::WalLineage> lineage;
        std::uint64_t batches = 0;
        for (const experiments::ShardOutcome& shard : outcome.shards) {
          lineage.push_back(shard.lineage);
          batches += shard.batches;
        }
        const double clean = lineage_clean_ratio(lineage);
        if (first && options.trace) {
          report.add("core.publishes_routed",
                     static_cast<double>(outcome.publishes), "count");
          report.add("core.fanout_batches", static_cast<double>(batches),
                     "count");
          report.add("core.deliveries_per_batch",
                     ratio(counts.deliveries, static_cast<double>(batches)),
                     "count");
          report.add("core.delivery_imbalance", outcome.delivery_imbalance,
                     "ratio");
          report.add("storage.wal_records",
                     static_cast<double>(outcome.wal_records), "count");
          report.add("storage.lineage_clean", clean, "ratio");
        }
        return perfbench::RunResult{outcome.digest, clean < 1.0 ? 1u : 0u};
      });
}

void run_fleet_elastic(const Options& options, WorkloadResult& result,
                       SpanRecorder& spans) {
  const experiments::ElasticFleetConfig config = elastic_config(options.seed);
  run_fleet<experiments::ElasticFleet>(
      options, result, spans, config, config.base, 1,
      [&](const experiments::ElasticFleet& fleet,
          experiments::ParallelRunner& runner, FleetCounts& counts,
          Report& report, bool first) {
        experiments::InvariantMonitor monitor;
        const experiments::ElasticOutcome outcome =
            fleet.run(runner, {}, &monitor);
        counts.deliveries = static_cast<double>(outcome.deliveries);
        counts.drops = static_cast<double>(outcome.overflow_drops);
        counts.rss_bytes = static_cast<double>(current_rss_bytes());
        const double clean = lineage_clean_ratio(outcome.lineage);
        // scale_elastic's acceptance conditions, minus its second
        // (never-resized) run: the digest gate covers delivery state.
        std::uint64_t violations = monitor.total_violations();
        if (outcome.seq_violations != 0 || outcome.resizes_applied != 2 ||
            outcome.final_shards != 8 || outcome.migrations_done == 0 ||
            clean < 1.0) {
          ++violations;
        }
        if (first && options.trace) {
          report.add("core.publishes_routed",
                     static_cast<double>(outcome.publishes_routed), "count");
          report.add("core.fanout_batches",
                     static_cast<double>(outcome.batches), "count");
          report.add("core.deliveries_per_batch",
                     ratio(counts.deliveries,
                           static_cast<double>(outcome.batches)),
                     "count");
          report.add("storage.wal_records",
                     static_cast<double>(outcome.wal_records), "count");
          report.add("storage.snapshots",
                     static_cast<double>(outcome.snapshots), "count");
          report.add("storage.lineage_clean", clean, "ratio");
          report.add("experiments.migrations_done",
                     static_cast<double>(outcome.migrations_done), "count");
          report.add("experiments.journal_appends",
                     static_cast<double>(outcome.journal_appends), "count");
          report.add("experiments.held", static_cast<double>(outcome.held),
                     "count");
        }
        return perfbench::RunResult{outcome.digest, violations};
      });
}

// --- chaos_composed ---------------------------------------------------------

/// Schedules per pass: at least 100 runs (p90 with ten samples beyond it).
constexpr std::size_t kChaosSchedules = 100;
constexpr std::size_t kChaosSetupRepeats = 201;

/// The default draw: crashes allowed, no rebalance or autoscale faults.
experiments::ChaosSchedule draw_schedule(std::uint64_t schedule_seed) {
  return experiments::draw_chaos(experiments::ChaosDrawConfig{},
                                 schedule_seed);
}

void run_chaos_composed(const Options& options, WorkloadResult& result,
                        SpanRecorder& spans) {
  Report& report = result.report;
  std::vector<std::uint64_t> seeds(kChaosSchedules);
  std::uint64_t state = options.seed;
  for (std::uint64_t& seed : seeds) seed = splitmix64(state);

  std::vector<double> setup_s;
  std::vector<experiments::ChaosSchedule> schedules;
  for (std::size_t r = 0; r < kChaosSetupRepeats; ++r) {
    const auto start = Clock::now();
    std::vector<experiments::ChaosSchedule> drawn;
    drawn.reserve(seeds.size());
    for (const std::uint64_t seed : seeds) drawn.push_back(draw_schedule(seed));
    setup_s.push_back(seconds_since(start));
    schedules = std::move(drawn);
  }

  std::vector<double> run_ms;
  run_ms.reserve(16384);
  double run_s = 0.0;
  std::vector<experiments::ChaosOutcome> first_outcomes;
  const SpanRecorder::Kind draw_kind = spans.kind("experiments.draw_chaos");
  const SpanRecorder::Kind run_kind = spans.kind("experiments.run_chaos");

  // One schedule; the traced side also draws it, inside a span.
  const auto run_schedule = [&](std::size_t i, bool traced) {
    perfbench::RunLedger& ledger = traced ? result.traced : result.untraced;
    SpanRecorder* recorder = traced ? &spans : nullptr;
    ledger.run(i, [&] {
      experiments::ChaosSchedule schedule;
      if (traced) {
        const ScopedSpan span(recorder, draw_kind);
        schedule = draw_schedule(seeds[i]);
      } else {
        schedule = schedules[i];
      }
      const auto start = Clock::now();
      std::optional<experiments::ChaosOutcome> outcome;
      {
        const ScopedSpan span(recorder, run_kind);
        outcome.emplace(experiments::run_chaos(schedule));
      }
      const double elapsed = seconds_since(start);
      if (!traced) {
        run_s += elapsed;
        run_ms.push_back(1e3 * elapsed);
        if (first_outcomes.size() < schedules.size()) {
          first_outcomes.push_back(*outcome);
        }
      }
      return perfbench::RunResult{outcome->digest(),
                                  outcome->violations.size()};
    });
  };

  if (!options.trace) {
    const std::uint64_t events_before = sim::total_events_fired();
    cycle_for(
        options.seconds, schedules.size(),
        [&](std::size_t i) { run_schedule(i, false); },
        [&] { result.untraced.end_pass(); });
    const double events =
        static_cast<double>(sim::total_events_fired() - events_before);
    report.add("setup_s", perfbench::median(setup_s), "s");
    add_run_times(report, run_ms);
    report.add("sim_events_per_s", ratio(events, run_s), "1/s");
    return;
  }

  PassSamples passes;
  PassSamples layer;
  std::size_t traced_passes = 0;
  const auto pass = [&](bool traced) {
    if (traced) spans.reset_totals();
    const std::uint64_t events_before = sim::total_events_fired();
    const alloc_stats::AllocProbe allocs;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < schedules.size(); ++i) {
      if (traced) spans.set_run(traced_passes * schedules.size() + i);
      run_schedule(i, traced);
    }
    (traced ? result.traced : result.untraced).end_pass();
    const double wall = seconds_since(start);
    const double events =
        static_cast<double>(sim::total_events_fired() - events_before);
    if (traced) {
      layer["pass_s"].push_back(wall);
      layer["experiments.run_s"].push_back(
          1e-9 * static_cast<double>(spans.totals(run_kind).total_ns));
      ++traced_passes;
    } else {
      passes["pass_s"].push_back(wall);
      passes["events"].push_back(events);
      passes["allocs_per_event"].push_back(
          ratio(static_cast<double>(allocs.allocations()), events));
    }
  };

  repeat_for(options.seconds, [&](std::size_t pair) {
    pass(pair % 2 == 1);
    pass(pair % 2 == 0);
  });
  std::map<std::string, double> sums;
  std::uint64_t image_checks = 0;
  std::uint64_t image_skips = 0;
  for (const experiments::ChaosOutcome& o : first_outcomes) {
    sums["core.breaker_trips"] += static_cast<double>(o.breaker_trips);
    sums["core.shed"] += static_cast<double>(o.shed);
    sums["core.admission_rejects"] += static_cast<double>(o.admission_rejects);
    sums["net.downlink_drops"] +=
        static_cast<double>(o.link_faults.downlink_drops());
    sums["net.uplink_drops"] += static_cast<double>(o.link_faults.uplink_drops);
    sums["storage.records_logged"] += static_cast<double>(o.records_logged);
    sums["storage.wal_repairs"] += static_cast<double>(o.wal_repairs);
    sums["storage.fsync_failures"] +=
        static_cast<double>(o.storage_faults.fsync_failures);
    sums["experiments.crashes"] += static_cast<double>(o.crashes);
    sums["experiments.failovers"] += static_cast<double>(o.failovers);
    sums["experiments.restarts"] += static_cast<double>(o.restarts);
    image_checks += o.image_checks;
    image_skips += o.image_skips;
  }
  for (const auto& [name, value] : sums) report.add(name, value, "count");
  report.add("experiments.image_check_ratio",
             ratio(static_cast<double>(image_checks),
                   static_cast<double>(image_checks + image_skips)),
             "ratio");
  report.add("experiments.run_s", median_of(layer, "experiments.run_s"), "s");
  report.add("sim.events", median_of(passes, "events"), "count");
  report.add("common.allocs_per_event", median_of(passes, "allocs_per_event"),
             "count");
  report.add("bench.trace_overhead_pct",
             pct(median_of(layer, "pass_s") - median_of(passes, "pass_s"),
                 median_of(passes, "pass_s")),
             "%");
}

/// Peak resident memory of this process image. VmHWM starts over at exec,
/// unlike getrusage's ru_maxrss, which Linux carries across execve from the
/// launching process (a Python parent's footprint would otherwise show up
/// as the floor of every small workload).
double peak_rss_mib() {
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long long kib = -1;
    while (std::fgets(line, sizeof line, status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) break;
    }
    std::fclose(status);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  return static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
}

void print_result(const Options& options, const WorkloadResult& result,
                  const SpanRecorder& spans) {
  std::vector<std::string> failures = result.untraced.failures();
  for (const std::string& f : result.traced.failures()) {
    failures.push_back("traced " + f);
  }
  std::printf("{\"workload\":%s,\"seed\":%llu,\"trace\":%d,",
              json_string(options.workload).c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  std::printf("\"attempted\":%llu,\"failed\":%llu,\"digest\":\"%016llx\",",
              static_cast<unsigned long long>(result.untraced.attempted() +
                                              result.traced.attempted()),
              static_cast<unsigned long long>(result.untraced.failed() +
                                              result.traced.failed()),
              static_cast<unsigned long long>(
                  result.untraced.folded_digest()));
  std::printf("\"spans\":%llu,\"compiler\":%s,\"build_type\":%s,"
              "\"alloc_hooks\":%s,\"failures\":[",
              static_cast<unsigned long long>(spans.spans_closed()),
              json_string(__VERSION__).c_str(),
              json_string(PERFBENCH_BUILD_TYPE).c_str(),
              alloc_stats::hooks_installed() ? "true" : "false");
  for (std::size_t i = 0; i < failures.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ",", json_string(failures[i]).c_str());
  }
  std::printf("],\"metrics\":{");
  const std::vector<Metric>& metrics = result.report.metrics();
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s%s:{\"value\":%.17g,\"unit\":%s}", i == 0 ? "" : ",",
                json_string(metrics[i].name).c_str(), metrics[i].value,
                json_string(metrics[i].unit).c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::int64_t seed = 1;
  double seconds_flag = options.seconds;
  FlagSet flags("repository benchmark harness: one workload, one JSON result");
  flags.add_string("workload", &options.workload,
                   "paper_replay | fleet_sharded | fleet_elastic | "
                   "chaos_composed");
  flags.add_int("seed", &seed, "workload seed", 0, INT64_MAX);
  flags.add_double("seconds", &seconds_flag, "measured time per run");
  flags.add_bool("trace", &options.trace,
                 "per-layer run: paired traced and untraced passes");
  flags.add_string("trace-file", &options.trace_file,
                   "Chrome trace_event output of the kept spans");
  if (!flags.parse(argc - 1, argv + 1)) return 2;
  options.seed = static_cast<std::uint64_t>(seed);
  options.seconds = seconds_flag;
  if (!(options.seconds > 0.0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  if (options.trace && !alloc_stats::hooks_installed()) {
    std::fprintf(stderr, "--trace needs the perfbench_traced binary\n");
    return 2;
  }

  const std::map<std::string,
                 std::function<void(const Options&, WorkloadResult&,
                                    SpanRecorder&)>>
      workloads = {{"paper_replay", run_paper_replay},
                   {"fleet_sharded", run_fleet_sharded},
                   {"fleet_elastic", run_fleet_elastic},
                   {"chaos_composed", run_chaos_composed}};
  const auto it = workloads.find(options.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }

  WorkloadResult result;
  SpanRecorder spans;
  it->second(options, result, spans);
  result.report.add("peak_rss_mb", peak_rss_mib(), "MiB");
  if (options.trace && !options.trace_file.empty() &&
      !spans.write_chrome_trace(options.trace_file)) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_file.c_str());
    return 2;
  }
  print_result(options, result, spans);
  return 0;
}
