// Benchmark-side spans: timed intervals recorded from outside the program,
// around calls into one layer's public functions.
//
// Spans nest strictly (one thread, one stack), so a span's self time is its
// duration minus the time its direct children cover, accumulated online as
// each span closes. Every span is aggregated per name; the first
// `keep_records` spans are also kept in memory with their start, end,
// parent and run id and written once, at exit, as a Chrome trace_event
// file. The cap bounds memory: a traced paper_replay pass closes millions
// of spans, and the aggregates, not the file, are what the metrics use.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  /// Nanoseconds on a monotonic clock.
  using Clock = std::int64_t (*)();
  using Kind = std::uint32_t;

  struct Totals {
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  struct Record {
    Kind kind = 0;
    /// Index of the parent's record, or -1 for a root (or a parent whose
    /// record fell beyond the cap).
    std::int64_t parent = -1;
    std::uint64_t run = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit SpanRecorder(std::size_t keep_records = 100000,
                        Clock clock = &steady_now_ns);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Registers a span name (idempotent) and returns its kind.
  Kind kind(const std::string& name);

  /// Tags every span opened from now on with run id `run`.
  void set_run(std::uint64_t run) { run_ = run; }

  void begin(Kind kind);
  /// Closes the innermost open span.
  void end();

  const Totals& totals(Kind kind) const { return totals_[kind]; }
  /// Clears the per-name totals (records are kept).
  void reset_totals();

  std::size_t open_spans() const { return stack_.size(); }
  const std::vector<Record>& records() const { return records_; }
  std::uint64_t spans_closed() const { return closed_; }

  /// Writes the kept records as a Chrome trace_event JSON array. Returns
  /// false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

  static std::int64_t steady_now_ns();

 private:
  struct Open {
    Kind kind;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int64_t record;  // -1 when not kept
  };

  Clock clock_;
  std::size_t keep_records_;
  std::uint64_t run_ = 0;
  std::uint64_t closed_ = 0;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Open> stack_;
  std::vector<Record> records_;
};

/// Opens a span for the enclosing scope. A null recorder makes it a no-op,
/// so untraced and traced passes share one code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, SpanRecorder::Kind kind)
      : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->begin(kind);
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

}  // namespace perfbench
