#include "experiments/invariant_monitor.h"

#include <algorithm>
#include <utility>

namespace waif::experiments {

namespace {

/// Cap on stored violations: enough to diagnose, bounded under a run that
/// trips an invariant on every event.
constexpr std::size_t kMaxStored = 64;

const char* breaker_name(core::BreakerState state) {
  switch (state) {
    case core::BreakerState::kClosed:
      return "closed";
    case core::BreakerState::kOpen:
      return "open";
    case core::BreakerState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

/// The legal transition set, straight from ReliableDeviceChannel:
/// trip_breaker (closed/half-open -> open), enter_half_open
/// (open -> half-open), close_breaker (open/half-open -> closed).
bool legal_breaker_transition(core::BreakerState from, core::BreakerState to) {
  using core::BreakerState;
  switch (from) {
    case BreakerState::kClosed:
      return to == BreakerState::kOpen;
    case BreakerState::kOpen:
      return to == BreakerState::kHalfOpen || to == BreakerState::kClosed;
    case BreakerState::kHalfOpen:
      return to == BreakerState::kOpen || to == BreakerState::kClosed;
  }
  return false;
}

}  // namespace

InvariantMonitor::InvariantMonitor() : InvariantMonitor(Expectations{}) {}

InvariantMonitor::InvariantMonitor(Expectations expectations)
    : expectations_(expectations) {}

void InvariantMonitor::record(std::string invariant, std::string detail,
                              SimTime at) {
  ++total_;
  if (violations_.size() < kMaxStored) {
    violations_.push_back({std::move(invariant), std::move(detail), at});
  }
}

void InvariantMonitor::note_breaker(core::BreakerState state, SimTime at) {
  if (!legal_breaker_transition(breaker_, state)) {
    record("breaker-legality",
           std::string("illegal transition ") + breaker_name(breaker_) +
               " -> " + breaker_name(state),
           at);
  }
  breaker_ = state;
}

void InvariantMonitor::reset_breaker(core::BreakerState state) {
  breaker_ = state;
}

void InvariantMonitor::note_channel(std::uint64_t next_seq,
                                    const core::ReliableChannelStats& stats,
                                    SimTime at) {
  auto monotone = [&](std::uint64_t last, std::uint64_t now,
                      const char* name) {
    if (now < last) {
      record("channel-monotone",
             std::string(name) + " went backwards: " + std::to_string(last) +
                 " -> " + std::to_string(now),
             at);
    }
  };
  monotone(last_next_seq_, next_seq, "next_seq");
  monotone(last_stats_.accepted, stats.accepted, "accepted");
  monotone(last_stats_.acked, stats.acked, "acked");
  monotone(last_stats_.transmissions, stats.transmissions, "transmissions");
  monotone(last_stats_.delivered, stats.delivered, "delivered");
  if (stats.acked > stats.accepted) {
    record("channel-monotone",
           "acked " + std::to_string(stats.acked) + " exceeds accepted " +
               std::to_string(stats.accepted),
           at);
  }
  last_next_seq_ = next_seq;
  last_stats_ = stats;
}

void InvariantMonitor::note_queue(const std::string& topic, std::size_t queued,
                                  SimTime at) {
  if (expectations_.topic_budget > 0 && queued > expectations_.topic_budget) {
    record("queue-bound",
           topic + " holds " + std::to_string(queued) + " > budget " +
               std::to_string(expectations_.topic_budget),
           at);
  }
}

void InvariantMonitor::note_proxy_total(std::size_t total, SimTime at) {
  if (expectations_.proxy_budget > 0 && total > expectations_.proxy_budget) {
    record("queue-bound",
           "proxy holds " + std::to_string(total) + " > budget " +
               std::to_string(expectations_.proxy_budget),
           at);
  }
}

void InvariantMonitor::note_admission_rejects(std::uint64_t rejects,
                                              SimTime at) {
  if (!expectations_.admission_armed && rejects > 0) {
    record("admission-legality",
           std::to_string(rejects) + " rejects with admission unarmed", at);
  }
}

void InvariantMonitor::note_shed(std::uint64_t shed, SimTime at) {
  if (expectations_.topic_budget == 0 && expectations_.proxy_budget == 0 &&
      shed > 0) {
    record("unarmed-shed",
           std::to_string(shed) + " sheds with both budgets unarmed", at);
  }
}

void InvariantMonitor::note_shed_journal(std::uint64_t journaled,
                                         std::uint64_t shed, SimTime at) {
  if (journaled != shed) {
    record("shed-journal",
           std::to_string(journaled) + " journaled sheds vs " +
               std::to_string(shed) + " counted",
           at);
  }
}

void InvariantMonitor::note_delivered(std::uint64_t id) {
  delivered_.insert(id);
}

void InvariantMonitor::note_read(const std::string& topic, std::uint64_t id,
                                 SimTime at) {
  if (!delivered_.contains(id)) {
    record("read-without-delivery",
           topic + " read " + std::to_string(id) +
               ", which the transport never delivered",
           at);
  }
}

void InvariantMonitor::note_device_duplicates(std::uint64_t duplicates,
                                              std::uint64_t requeued,
                                              SimTime at) {
  if (duplicates > requeued) {
    record("duplicate-receive",
           std::to_string(duplicates) + " device duplicates vs " +
               std::to_string(requeued) + " requeues",
           at);
  }
}

void InvariantMonitor::note_transfers(const core::ReliableChannelStats& stats,
                                      std::size_t in_flight,
                                      std::size_t backlog, SimTime at) {
  const std::uint64_t settled = stats.acked + stats.expired_abandoned +
                                stats.attempts_exhausted + in_flight + backlog;
  if (settled != stats.accepted) {
    record("transfer-conservation",
           std::to_string(settled) +
               " acked/abandoned/exhausted/in-flight/backlogged vs " +
               std::to_string(stats.accepted) + " accepted",
           at);
  }
}

void InvariantMonitor::note_transmissions(
    const core::ReliableChannelStats& stats, SimTime at) {
  // delivered + suppressed <= transmissions - link_drops, kept unsigned.
  if (stats.delivered + stats.duplicates_suppressed + stats.link_drops >
      stats.transmissions) {
    record("transmission-conservation",
           std::to_string(stats.delivered + stats.duplicates_suppressed) +
               " arrivals vs " + std::to_string(stats.transmissions) +
               " transmissions with " + std::to_string(stats.link_drops) +
               " link drops",
           at);
  }
}

void InvariantMonitor::note_topic_owners(const std::string& topic,
                                         std::size_t owners, SimTime at) {
  if (owners != 1) {
    record("single-owner",
           topic + " has " + std::to_string(owners) + " owners", at);
  }
}

void InvariantMonitor::note_topic_seq(const std::string& topic,
                                      std::uint64_t seq, SimTime at) {
  std::uint64_t& last = topic_seq_[topic];
  if (seq < last) {
    record("topic-seq",
           topic + " seq " + std::to_string(seq) + " after " +
               std::to_string(last),
           at);
  }
  last = std::max(last, seq);
}

void InvariantMonitor::note_routed(std::uint64_t due,
                                   std::uint64_t routed_or_held, SimTime at) {
  if (due != routed_or_held) {
    record("routing-conservation",
           std::to_string(due) + " due vs " + std::to_string(routed_or_held) +
               " routed or held",
           at);
  }
}

void InvariantMonitor::note_resize(std::size_t from, std::size_t to,
                                   SimTime at) {
  if (from == to) return;
  const int dir = to > from ? 1 : -1;
  ++resizes_seen_;
  if (expectations_.max_resizes > 0 &&
      resizes_seen_ > expectations_.max_resizes) {
    record("no-thrash",
           std::to_string(resizes_seen_) + " resizes exceed budget " +
               std::to_string(expectations_.max_resizes),
           at);
  }
  if (expectations_.resize_min_dwell > 0 && last_resize_dir_ != 0 &&
      dir != last_resize_dir_ &&
      at - last_resize_at_ < expectations_.resize_min_dwell) {
    record("no-thrash",
           "direction flip " + std::to_string(from) + " -> " +
               std::to_string(to) + " only " +
               std::to_string(at - last_resize_at_) +
               "us after the previous resize",
           at);
  }
  last_resize_dir_ = dir;
  last_resize_at_ = at;
}

}  // namespace waif::experiments
