#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/check.h"

namespace waif::sim {

namespace {

// Initial geometry: 16 buckets of ~1 simulated second. The first rebuild
// re-estimates the width from the live population.
constexpr std::size_t kInitialBuckets = 16;
constexpr int kInitialShift = 20;
constexpr std::size_t kMinBuckets = 16;
constexpr int kMaxShift = 42;  // ~52 simulated days per bucket
// Rebuild with a fresh width once this many pops in a row had to fall back
// to a full-calendar scan — the signature of a stale bucket width.
constexpr std::uint64_t kFallbackRebuildThreshold = 8;

}  // namespace

void EventHandle::cancel() {
  if (!state_ || state_->cancelled || state_->fired) return;
  state_->cancelled = true;
  if (state_->live) --*state_->live;
}

bool EventHandle::active() const {
  return state_ && !state_->cancelled && !state_->fired;
}

EventQueue::EventQueue()
    : buckets_(kInitialBuckets),
      shift_(kInitialShift),
      cursor_key_(0),
      live_(std::make_shared<std::size_t>(0)),
      state_arena_(std::make_shared<PoolArena>()) {}

EventHandle EventQueue::schedule(SimTime when, Callback fn) {
  WAIF_CHECK(fn != nullptr);
  auto state = std::allocate_shared<EventHandle::State>(
      PoolAllocator<EventHandle::State>(state_arena_));
  state->live = live_;

  const std::uint64_t key = key_of(when);
  if (entries_ == 0 || key < cursor_key_) cursor_key_ = key;
  Bucket& bucket = buckets_[key & (buckets_.size() - 1)];
  bucket.push_back(Entry{when, next_seq_++, std::move(fn), state});
  std::push_heap(bucket.begin(), bucket.end(), Later{});
  ++entries_;
  ++*live_;
  maybe_resize();
  return EventHandle(std::move(state));
}

SimTime EventQueue::next_time() {
  if (empty()) return kNever;
  const std::size_t index = find_min_bucket();
  return buckets_[index].front().time;
}

EventQueue::Fired EventQueue::pop() {
  WAIF_CHECK(!empty());
  const std::size_t index = find_min_bucket();
  Bucket& bucket = buckets_[index];
  std::pop_heap(bucket.begin(), bucket.end(), Later{});
  Entry entry = std::move(bucket.back());
  bucket.pop_back();
  --entries_;
  entry.state->fired = true;
  --*live_;
  // Draining far below capacity leaves long empty stretches between live
  // keys; shrink so the calendar scan stays proportional to the population.
  if (entries_ < buckets_.size() / 8 && buckets_.size() > kMinBuckets) {
    rebuild(std::max(kMinBuckets, std::bit_ceil(entries_ * 2)));
  }
  return Fired{entry.time, std::move(entry.fn)};
}

void EventQueue::clear() {
  for (Bucket& bucket : buckets_) {
    for (Entry& entry : bucket) {
      entry.state->cancelled = true;  // so outstanding handles go inert
    }
    bucket.clear();
  }
  entries_ = 0;
  *live_ = 0;
  cursor_key_ = 0;
}

void EventQueue::skim(Bucket& bucket) {
  while (!bucket.empty() && bucket.front().state->cancelled) {
    std::pop_heap(bucket.begin(), bucket.end(), Later{});
    bucket.pop_back();
    --entries_;
  }
}

std::size_t EventQueue::find_min_bucket() {
  const std::size_t mask = buckets_.size() - 1;
  // One calendar year: each bucket is visited at most once, and within the
  // scanned key window every bucket holds at most one key class, so the
  // first bucket whose (skimmed) front matches the key IS the global
  // minimum — no tie can hide in another bucket.
  std::uint64_t key = cursor_key_;
  for (std::size_t step = 0; step <= mask; ++step, ++key) {
    Bucket& bucket = buckets_[key & mask];
    skim(bucket);
    if (!bucket.empty() && key_of(bucket.front().time) == key) {
      cursor_key_ = key;
      fallback_scans_ = 0;
      return key & mask;
    }
  }

  // Nothing within a year of the cursor: jump straight to the earliest
  // entry across all buckets. Chronic fallbacks mean the bucket width no
  // longer fits the event spacing — re-estimate it.
  std::size_t best = buckets_.size();
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    Bucket& bucket = buckets_[i];
    skim(bucket);
    if (bucket.empty()) continue;
    if (best == buckets_.size() ||
        Later{}(buckets_[best].front(), bucket.front())) {
      best = i;
    }
  }
  WAIF_CHECK(best < buckets_.size());  // live_ > 0 guarantees a survivor
  cursor_key_ = key_of(buckets_[best].front().time);
  if (++fallback_scans_ >= kFallbackRebuildThreshold) {
    rebuild(buckets_.size());
    return find_min_bucket();
  }
  return best;
}

void EventQueue::rebuild(std::size_t bucket_count) {
  std::vector<Entry> entries;
  entries.reserve(entries_);
  for (Bucket& bucket : buckets_) {
    for (Entry& entry : bucket) {
      if (!entry.state->cancelled) entries.push_back(std::move(entry));
    }
    bucket.clear();
  }
  entries_ = entries.size();
  fallback_scans_ = 0;

  // Re-estimate the bucket width from up to 64 strided samples: the spacing
  // that spreads the (outlier-trimmed) span of the live population one
  // event per bucket. Deterministic — and free to vary, because pop order
  // never depends on the geometry.
  if (!entries.empty()) {
    std::vector<std::uint64_t> sample;
    const std::size_t stride = std::max<std::size_t>(1, entries.size() / 64);
    for (std::size_t i = 0; i < entries.size(); i += stride) {
      sample.push_back(biased(entries[i].time));
    }
    std::sort(sample.begin(), sample.end());
    // Trim the top eighth so one far-future sentinel cannot blow the width.
    // (sample is never empty here; the guard spells that out for the
    // compiler's null-dereference analysis.)
    const std::uint64_t low = sample.empty() ? 0 : sample.front();
    const std::uint64_t high = sample[(sample.size() - 1) * 7 / 8];
    const std::uint64_t gap = (high - low) / (entries.size() + 1);
    shift_ = std::min(kMaxShift,
                      gap == 0 ? 0 : static_cast<int>(std::bit_width(gap)) - 1);
  }

  buckets_.assign(bucket_count, Bucket{});
  const std::size_t mask = buckets_.size() - 1;
  cursor_key_ = ~std::uint64_t{0};
  for (Entry& entry : entries) {
    const std::uint64_t key = key_of(entry.time);
    cursor_key_ = std::min(cursor_key_, key);
    Bucket& bucket = buckets_[key & mask];
    bucket.push_back(std::move(entry));
    std::push_heap(bucket.begin(), bucket.end(), Later{});
  }
  if (entries_ == 0) cursor_key_ = 0;
}

void EventQueue::maybe_resize() {
  if (entries_ > buckets_.size() * 2) {
    rebuild(buckets_.size() * 2);
  }
}

}  // namespace waif::sim
