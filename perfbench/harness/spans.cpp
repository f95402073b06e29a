#include "spans.h"

#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

SpanRecorder::SpanRecorder(std::size_t keep_records, Clock clock)
    : clock_(clock), keep_records_(keep_records) {
  records_.reserve(keep_records_);
  stack_.reserve(64);
}

std::int64_t SpanRecorder::steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::Kind SpanRecorder::kind(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<Kind>(i);
  }
  names_.push_back(name);
  totals_.emplace_back();
  return static_cast<Kind>(names_.size() - 1);
}

void SpanRecorder::begin(Kind kind) {
  const std::int64_t now = clock_();
  std::int64_t record = -1;
  if (records_.size() < keep_records_) {
    record = static_cast<std::int64_t>(records_.size());
    Record r;
    r.kind = kind;
    r.parent = stack_.empty() ? -1 : stack_.back().record;
    r.run = run_;
    r.start_ns = now;
    records_.push_back(r);
  }
  stack_.push_back(Open{kind, now, 0, record});
}

void SpanRecorder::end() {
  if (stack_.empty()) throw std::logic_error("SpanRecorder::end without begin");
  const std::int64_t now = clock_();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = now - open.start_ns;
  Totals& totals = totals_[open.kind];
  ++totals.calls;
  totals.total_ns += duration;
  totals.self_ns += duration - open.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (open.record >= 0) {
    records_[static_cast<std::size_t>(open.record)].end_ns = now;
  }
  ++closed_;
}

void SpanRecorder::reset_totals() {
  for (Totals& totals : totals_) totals = Totals{};
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::int64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  std::fputs("[\n", out);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    // Chrome's "X" (complete) events take microsecond ts/dur.
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"run\":%llu}}\n",
                 i == 0 ? "" : ",", names_[r.kind].c_str(),
                 static_cast<double>(r.start_ns - origin) / 1e3,
                 static_cast<double>(r.end_ns - r.start_ns) / 1e3, i,
                 static_cast<long long>(r.parent),
                 static_cast<unsigned long long>(r.run));
  }
  std::fputs("]\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
