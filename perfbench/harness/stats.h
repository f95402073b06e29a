// Summary statistics and the run ledger of the benchmark harness.
#pragma once

#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Quantile q in [0, 1] of `values` by linear interpolation between order
/// statistics (the "type 7" estimator). Requires a non-empty input.
double quantile(std::vector<double> values, double q);

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// The highest percentile of `ladder` that leaves at least `min_beyond`
/// samples above it among `samples` samples, or nullopt when none does.
/// A p90 therefore needs 100 samples, a p99 1000.
std::optional<double> reportable_percentile(std::size_t samples,
                                            const std::vector<double>& ladder,
                                            std::size_t min_beyond = 10);

/// What one measured run of a workload produced.
struct RunResult {
  std::uint64_t digest = 0;
  /// Invariant violations the run reported (a chaos monitor finding, an
  /// unclean WAL lineage, a failed engine-side check).
  std::uint64_t violations = 0;
};

/// Counts attempted and failed runs. A run fails when it throws, reports a
/// violation, or yields a digest other than the one the same run index
/// produced in the first pass (all passes replay identical inputs).
class RunLedger {
 public:
  /// Runs `body` as run `index` of the current pass.
  template <typename Body>
  RunResult run(std::size_t index, Body&& body) {
    ++attempted_;
    try {
      const RunResult result = body();
      settle(index, result);
      return result;
    } catch (const std::exception& error) {
      fail(index, std::string("exception: ") + error.what());
    } catch (...) {
      fail(index, "exception: unknown");
    }
    return RunResult{};
  }

  /// Marks an already attempted run of the current pass as failed (a
  /// cross-check that ran after it, e.g. traced wiring against the
  /// program's own replay). A run counts as failed at most once per pass.
  void fail(std::size_t index, const std::string& why);

  /// Ends a pass: later passes are checked against the first one.
  void end_pass();

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// Failed runs as a percentage of attempted runs (0 when none ran).
  double failed_pct() const;
  /// Digest of the first pass, folded in run-index order.
  std::uint64_t folded_digest() const;
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  void settle(std::size_t index, const RunResult& result);

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t pass_ = 0;
  bool first_pass_done_ = false;
  /// pass_ + 1 of the last pass in which each run index failed.
  std::vector<std::uint64_t> failed_in_pass_;
  std::vector<std::optional<std::uint64_t>> first_digests_;
  std::vector<std::string> failures_;
};

}  // namespace perfbench
