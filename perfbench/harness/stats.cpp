#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of no samples");
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(position));
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(below);
  return values[below] + (values[above] - values[below]) * fraction;
}

std::optional<double> reportable_percentile(std::size_t samples,
                                            const std::vector<double>& ladder,
                                            std::size_t min_beyond) {
  std::optional<double> best;
  for (const double p : ladder) {
    const double beyond = static_cast<double>(samples) * (100.0 - p) / 100.0;
    if (beyond + 1e-9 >= static_cast<double>(min_beyond) &&
        (!best || p > *best)) {
      best = p;
    }
  }
  return best;
}

void RunLedger::settle(std::size_t index, const RunResult& result) {
  if (result.violations > 0) {
    fail(index, std::to_string(result.violations) + " violation(s)");
    return;
  }
  if (!first_pass_done_) {
    if (first_digests_.size() <= index) first_digests_.resize(index + 1);
    first_digests_[index] = result.digest;
    return;
  }
  if (index >= first_digests_.size() || !first_digests_[index] ||
      *first_digests_[index] != result.digest) {
    fail(index, "digest differs from the first pass");
  }
}

void RunLedger::end_pass() {
  first_pass_done_ = first_pass_done_ || !first_digests_.empty();
  ++pass_;
}

void RunLedger::fail(std::size_t index, const std::string& why) {
  if (failed_in_pass_.size() <= index) failed_in_pass_.resize(index + 1, 0);
  if (failed_in_pass_[index] == pass_ + 1) return;
  failed_in_pass_[index] = pass_ + 1;
  ++failed_;
  // Keep the report readable when a whole pass goes wrong.
  if (failures_.size() < 20) {
    failures_.push_back("run " + std::to_string(index) + ": " + why);
  }
}

double RunLedger::failed_pct() const {
  if (attempted_ == 0) return 0.0;
  return 100.0 * static_cast<double>(failed_) / static_cast<double>(attempted_);
}

std::uint64_t RunLedger::folded_digest() const {
  // FNV-1a over the per-run digests; a missing run (it failed in the first
  // pass) folds as its index so the fold still changes.
  std::uint64_t hash = 14695981039346656037ull;
  for (std::size_t i = 0; i < first_digests_.size(); ++i) {
    const std::uint64_t value = first_digests_[i].value_or(i);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

}  // namespace perfbench
