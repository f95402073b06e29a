#include "experiments/recovery_runner.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "core/channel.h"
#include "core/proxy.h"
#include "core/read_protocol.h"
#include "core/reliable_channel.h"
#include "device/device.h"
#include "experiments/three_topic.h"
#include "net/link.h"
#include "pubsub/broker.h"
#include "pubsub/publisher.h"
#include "pubsub/subscriber.h"
#include "sim/simulator.h"
#include "storage/fsck.h"
#include "workload/serialization.h"
#include "workload/trace.h"

namespace waif::experiments {

namespace {

constexpr char kTopicPrefix[] = "recovery";

/// A stable pubsub endpoint: the broker holds a Subscriber& for the whole
/// run, but the proxy behind it is destroyed and rebuilt at every crash.
class Relay final : public pubsub::Subscriber {
 public:
  explicit Relay(std::function<void(const pubsub::NotificationPtr&)> fn)
      : fn_(std::move(fn)) {}

  void on_notification(const pubsub::NotificationPtr& notification) override {
    fn_(notification);
  }

 private:
  std::function<void(const pubsub::NotificationPtr&)> fn_;
};

/// Guards the proxy -> channel boundary: an expired notification handed to
/// the transport is a recovery bug, whatever else happens.
class CheckedChannel final : public core::DeviceChannel {
 public:
  CheckedChannel(sim::Simulator& sim, core::DeviceChannel& inner,
                 std::uint64_t* expired_deliveries)
      : sim_(sim), inner_(inner), expired_deliveries_(expired_deliveries) {}

  bool link_up() const override { return inner_.link_up(); }

  bool deliver(const pubsub::NotificationPtr& notification) override {
    if (notification->expired_at(sim_.now())) ++*expired_deliveries_;
    return inner_.deliver(notification);
  }

 private:
  sim::Simulator& sim_;
  core::DeviceChannel& inner_;
  std::uint64_t* expired_deliveries_;
};

class RecoveryHarness {
 public:
  explicit RecoveryHarness(const RecoveryPlan& plan)
      : plan_(plan),
        configs_(three_topic_configs(kTopicPrefix, plan.scenario)),
        // Rank changes stay off (the shared traces disable them), so any
        // duplicate user read is a recovery bug.
        traces_(three_topic_traces(kTopicPrefix, plan.scenario, plan.seed)),
        sim_(),
        broker_(sim_, std::max<std::size_t>(total_arrivals(traces_), 1)),
        link_(sim_),
        device_(sim_, DeviceId{1}),
        relay_([this](const pubsub::NotificationPtr& notification) {
          // Events published while the proxy is down are lost upstream — in
          // a deployment the broker's redelivery would cover this window;
          // here a zero restart_delay closes it entirely.
          if (proxy_ != nullptr) proxy_->on_notification(notification);
        }),
        publisher_(broker_, "workload") {
    if (plan_.storage_fault.enabled()) {
      fault_.emplace(plan_.storage_fault, plan_.storage_fault_seed);
      backend_.set_fault_model(&*fault_);
    }

    if (plan_.reliable_channel) {
      std::uint64_t state = plan_.seed ^ 0x52E11AB1Eull;
      reliable_.emplace(sim_, link_, device_, core::ReliableChannelConfig{},
                        splitmix64(state));
      reliable_->set_delivery_observer(
          [this](const pubsub::NotificationPtr& event) {
            WAIF_CHECK(!event->expired_at(sim_.now()));
          });
      reliable_->set_failure_handler(
          [this](const pubsub::NotificationPtr& event) {
            if (proxy_ == nullptr) return;
            if (core::TopicState* topic = proxy_->topic(event->topic)) {
              topic->requeue_undelivered(event);
            }
          });
      checked_.emplace(sim_, *reliable_, &outcome_.expired_deliveries);
    } else {
      sim_channel_.emplace(link_, device_);
      checked_.emplace(sim_, *sim_channel_, &outcome_.expired_deliveries);
    }

    if (plan_.persist) {
      persistence_.emplace(sim_, backend_, plan_.persistence);
      if (reliable_) persistence_->set_channel(&*reliable_);
      if (plan_.crash_at_record >= 0) {
        const auto target =
            static_cast<std::uint64_t>(plan_.crash_at_record);
        persistence_->set_record_hook([this, target](std::uint64_t count) {
          if (crash_armed_ || count < target) return;
          crash_armed_ = true;
          // Never kill mid-callback: the "process" dies between events.
          sim_.schedule_at(sim_.now(), [this] { do_crash(); });
        });
      }
    }

    build_proxy();
    if (persistence_) persistence_->attach(*proxy_);

    for (const auto& [topic, config] : configs_) {
      device_.set_topic_threshold(topic, config.options.threshold);
      broker_.subscribe(topic, relay_, config.options);
      publisher_.advertise(topic);
    }

    // Mirrors the production wiring order: the proxy reacts to the link
    // first (attach_to_link), then the session flushes deferred syncs.
    link_.on_state_change([this](net::LinkState state) {
      if (proxy_ != nullptr) proxy_->handle_network(state);
      if (state == net::LinkState::kUp) flush_pending_syncs();
    });
    link_.apply_schedule(traces_[0].trace.outages);

    for (const TopicTrace& entry : traces_) {
      const std::string& topic = entry.topic;
      for (const workload::Arrival& arrival : entry.trace.arrivals) {
        sim_.schedule_at(arrival.time, [this, &topic, arrival] {
          publisher_.publish(topic, arrival.rank, arrival.lifetime);
        });
      }
      for (SimTime read_at : entry.trace.reads) {
        sim_.schedule_at(read_at, [this, &topic] { do_read(topic); });
      }
    }
  }

  ~RecoveryHarness() {
    if (persistence_) persistence_->detach();
    proxy_.reset();
  }

  RecoveryOutcome run() {
    sim_.run_until(plan_.scenario.horizon);

    outcome_.read_digest = digest_.value();
    if (persistence_) {
      outcome_.records_logged = persistence_->record_count();
      outcome_.wal_syncs = persistence_->stats().syncs;
      outcome_.snapshots = persistence_->stats().snapshots;
      outcome_.forward_refusals = persistence_->stats().forward_refusals;
    }
    if (fault_) outcome_.storage_faults = fault_->stats();
    if (plan_.persist) {
      outcome_.fsck_recoverable = storage::waif_fsck(backend_).recoverable();
    }
    // Safety: nothing expired ever reaches the channel, crash or no crash.
    WAIF_CHECK(outcome_.expired_deliveries == 0);
    // No duplicate user reads — guaranteed whenever the write-ahead
    // discipline is on (every forward durable before delivery) and in-doubt
    // events are trusted rather than re-sent. Without those, a crash may
    // legitimately re-deliver an event whose forward record was lost, and
    // an already-read event surfaces again; the count reports that cost.
    const bool no_duplicates_guaranteed =
        !plan_.persist || outcome_.crashes == 0 ||
        (plan_.persistence.sync_on_forward &&
         plan_.unacked == storage::RecoverUnacked::kTrustForwarded);
    if (no_duplicates_guaranteed) {
      WAIF_CHECK(outcome_.duplicate_user_reads == 0);
    }
    return outcome_;
  }

 private:
  void build_proxy() {
    proxy_ = std::make_unique<core::Proxy>(sim_, *checked_, "proxy");
    for (const auto& [topic, config] : configs_) {
      proxy_->add_topic(topic, config);
    }
  }

  // --- the device-side session (survives crashes) --------------------------
  // A LastHopSession holds a Proxy& for life, so the harness re-implements
  // its exact semantics over a replaceable proxy pointer.

  void send_read(const std::string& topic,
                 const pubsub::SubscriptionOptions& options) {
    core::ReadRequest request;
    request.request_id = next_request_id_++;
    request.n = options.max;
    request.queue_size = device_.queue_size(topic);
    request.client_events =
        device_.top_ids(topic, options.max, options.threshold);
    constexpr std::size_t kRequestHeaderBytes = 32;
    constexpr std::size_t kBytesPerId = 8;
    link_.record_uplink(kRequestHeaderBytes +
                        kBytesPerId * request.client_events.size());
    proxy_->handle_read(topic, request);
  }

  void flush_pending_syncs() {
    if (proxy_ == nullptr || !link_.is_up()) return;
    const auto pending = std::move(pending_sync_);
    pending_sync_.clear();
    for (const auto& [topic, offline_reads] : pending) {
      constexpr std::size_t kSyncBytes = 16;
      constexpr std::size_t kBytesPerRecord = 12;
      link_.record_uplink(kSyncBytes + kBytesPerRecord * offline_reads.size());
      proxy_->handle_sync(topic, device_.queue_size(topic), offline_reads,
                          next_request_id_++);
    }
  }

  void do_read(const std::string& topic) {
    const core::TopicConfig& config = configs_.at(topic);
    const pubsub::SubscriptionOptions& options = config.options;
    // A crashed proxy behaves like an outage: the READ goes unanswered and
    // the device serves the user from its local queue.
    const bool online =
        proxy_ != nullptr && link_.is_up() && !device_.battery_dead();
    const core::PolicyKind kind = config.policy.kind;
    const bool prefetching = kind == core::PolicyKind::kBufferPrefetch ||
                             kind == core::PolicyKind::kRatePrefetch ||
                             kind == core::PolicyKind::kAdaptive;
    if (online) {
      send_read(topic, options);
    } else if (prefetching && !device_.battery_dead()) {
      pending_sync_[topic].push_back(
          core::ReadRecord{sim_.now(), options.max});
    }
    const auto read =
        device_.read(topic, options.max, options.threshold,
                     /*charge_uplink=*/online);
    ++outcome_.read_operations;
    outcome_.total_read += read.size();

    std::vector<std::uint64_t> ids;
    ids.reserve(read.size());
    for (const pubsub::NotificationPtr& event : read) {
      ids.push_back(event->id.value);
    }
    std::sort(ids.begin(), ids.end());
    digest_.i64(sim_.now());
    digest_.str(topic);
    digest_.u64(ids.size());
    std::unordered_set<std::uint64_t>& seen = ever_read_[topic];
    for (std::uint64_t id : ids) {
      digest_.u64(id);
      if (!seen.insert(id).second) ++outcome_.duplicate_user_reads;
    }
  }

  // --- crash and recovery ---------------------------------------------------

  void do_crash() {
    if (proxy_ == nullptr) return;
    ++outcome_.crashes;
    outcome_.lost_window += persistence_->unsynced_records();
    persistence_->detach();
    proxy_.reset();
    // The channel object models both endpoints: the proxy side dies with
    // the process, the device side (dedup window) survives.
    if (reliable_) reliable_->crash_proxy_side();
    backend_.crash();
    sim_.schedule_at(sim_.now() + plan_.restart_delay, [this] { do_recover(); });
  }

  void do_recover() {
    storage::RecoveryResult recovery =
        storage::ProxyPersistence::recover(backend_, configs_);
    outcome_.records_recovered = recovery.wal_records;
    outcome_.replayed = recovery.replayed;
    outcome_.recovered_from_snapshot = recovery.from_snapshot;
    outcome_.damaged_snapshots += recovery.damaged_snapshots;
    if (recovery.repaired) ++outcome_.wal_repairs;

    persistence_->resume_from(recovery);
    build_proxy();
    // Restore before attach: rebuilding state must not journal itself.
    storage::ProxyPersistence::restore_into(*proxy_, recovery, plan_.unacked);
    if (reliable_ && recovery.state.has_channel) {
      reliable_->restore(recovery.state.channel);
    }
    persistence_->attach(*proxy_);
    proxy_->handle_network(link_.state());
    flush_pending_syncs();
  }

  RecoveryPlan plan_;
  std::map<std::string, core::TopicConfig> configs_;
  std::vector<TopicTrace> traces_;
  sim::Simulator sim_;
  pubsub::Broker broker_;
  net::Link link_;
  device::Device device_;
  Relay relay_;
  pubsub::Publisher publisher_;
  storage::MemBackend backend_;
  std::optional<storage::StorageFaultModel> fault_;
  std::optional<core::SimDeviceChannel> sim_channel_;
  std::optional<core::ReliableDeviceChannel> reliable_;
  std::optional<CheckedChannel> checked_;
  std::optional<storage::ProxyPersistence> persistence_;
  std::unique_ptr<core::Proxy> proxy_;

  std::uint64_t next_request_id_ = 1;
  std::map<std::string, std::vector<core::ReadRecord>> pending_sync_;
  std::map<std::string, std::unordered_set<std::uint64_t>> ever_read_;
  workload::CanonicalDigest digest_;
  bool crash_armed_ = false;
  RecoveryOutcome outcome_;
};

}  // namespace

std::vector<std::string> recovery_topics() {
  return three_topic_names(kTopicPrefix);
}

workload::ScenarioConfig recovery_scenario() {
  workload::ScenarioConfig config;
  config.event_frequency = 24.0;
  config.user_frequency = 4.0;
  config.max = 8;
  config.threshold = 1.0;
  config.expiring_fraction = 0.75;
  config.mean_expiration = 8 * kHour;
  config.outage_fraction = 0.2;
  config.mean_outage = 3 * kHour;
  config.horizon = 3 * kDay;
  return config;
}

RecoveryOutcome run_recovery_plan(const RecoveryPlan& plan) {
  RecoveryHarness harness(plan);
  return harness.run();
}

}  // namespace waif::experiments
