#include "obs/slo.h"

#include <algorithm>
#include <cmath>

namespace dohperf::obs {

namespace {

/// Burn windows in whole base windows, rounded up, at least one.
[[nodiscard]] std::int64_t windows_of(netsim::Duration span,
                                      netsim::Duration base) {
  const std::int64_t b = std::max<std::int64_t>(1, base.count());
  return std::max<std::int64_t>(1, (span.count() + b - 1) / b);
}

}  // namespace

std::uint64_t SloCell::total() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t n : outcomes) sum += n;
  return sum;
}

std::uint64_t SloCell::good() const {
  std::uint64_t sum = 0;
  for (int i = 0; i < kOutcomeCount; ++i) {
    if (is_success(static_cast<Outcome>(i))) sum += outcomes[i];
  }
  return sum;
}

void SloCell::merge(const SloCell& other) {
  for (int i = 0; i < kOutcomeCount; ++i) outcomes[i] += other.outcomes[i];
  slow += other.slow;
}

std::int64_t SloTracker::window_ms() const {
  return std::llround(netsim::to_ms(config_.window));
}

std::int64_t SloTracker::window_index(netsim::Duration offset) const {
  if (offset <= netsim::Duration::zero()) return 0;
  return offset.count() / std::max<std::int64_t>(1, config_.window.count());
}

void SloTracker::record(std::string_view provider, std::string_view country,
                        netsim::Duration campaign_offset, Outcome outcome,
                        double latency_ms, bool has_latency) {
  const std::int64_t w = window_index(campaign_offset);
  const bool slow = has_latency && config_.p99_objective_ms > 0.0 &&
                    latency_ms > config_.p99_objective_ms;
  const auto bump = [&](std::string_view country_key) {
    SloCell& cell = cells_[{provider, country_key}][w];
    ++cell.outcomes[static_cast<int>(outcome)];
    if (slow) ++cell.slow;
  };
  bump(country);
  if (!country.empty()) bump({});  // Provider aggregate.
}

void SloTracker::merge(const SloTracker& other) {
  using Windows = WindowCells<SloCell>;
  cells_.merge(other.cells_, [](Windows& mine, const Windows& theirs) {
    mine.merge(theirs,
               [](SloCell& cell, const SloCell& add) { cell.merge(add); });
  });
}

std::vector<SloAlert> SloTracker::evaluate() const {
  std::vector<SloAlert> alerts;
  // Error budget: the allowed failure fraction. A burn rate of 1.0 spends
  // it exactly over the SLO period; the thresholds page well before that.
  const double budget =
      std::max(1e-12, 1.0 - config_.availability_objective);
  struct Pair {
    std::int64_t short_w, long_w;
    double threshold;
    const char* severity;
  };
  const Pair pairs[2] = {
      {windows_of(config_.fast_short, config_.window),
       windows_of(config_.fast_long, config_.window), config_.fast_burn,
       "page"},
      {windows_of(config_.slow_short, config_.window),
       windows_of(config_.slow_long, config_.window), config_.slow_burn,
       "ticket"},
  };
  for (const Cells::Track* track : cells_.sorted()) {
    const auto [provider, country] = cells_.names(track->ids);
    const WindowCells<SloCell>& windows = track->value;
    if (!country.empty() || windows.empty()) continue;
    const std::int64_t first = windows.front().first;
    const std::int64_t last = windows.back().first;
    const std::int64_t n = last - first + 1;
    // Dense prefix sums over [first, last]; windows outside the range
    // hold zero of both numerator and denominator, so clamping a
    // trailing range at `first` is exact.
    std::vector<std::uint64_t> err_prefix(n + 1, 0), tot_prefix(n + 1, 0);
    auto cell = windows.begin();
    for (std::int64_t i = 0; i < n; ++i) {
      err_prefix[i + 1] = err_prefix[i];
      tot_prefix[i + 1] = tot_prefix[i];
      if (cell->first == first + i) {
        err_prefix[i + 1] += cell->second.errors();
        tot_prefix[i + 1] += cell->second.total();
        ++cell;
      }
    }
    const auto rate = [&](std::int64_t end, std::int64_t span) {
      const std::int64_t lo = std::max<std::int64_t>(0, end - span + 1);
      const std::uint64_t errors = err_prefix[end + 1] - err_prefix[lo];
      const std::uint64_t total = tot_prefix[end + 1] - tot_prefix[lo];
      return total == 0
                 ? 0.0
                 : static_cast<double>(errors) / static_cast<double>(total);
    };
    bool active[2] = {false, false};
    for (std::int64_t i = 0; i < n; ++i) {
      for (int p = 0; p < 2; ++p) {
        const double burn_short = rate(i, pairs[p].short_w) / budget;
        const double burn_long = rate(i, pairs[p].long_w) / budget;
        const bool firing = burn_short >= pairs[p].threshold &&
                            burn_long >= pairs[p].threshold;
        if (firing && !active[p]) {
          alerts.push_back(SloAlert{std::string(provider), pairs[p].severity,
                                    (first + i) * window_ms(), burn_short,
                                    burn_long});
        }
        active[p] = firing;
      }
    }
  }
  return alerts;
}

std::vector<SloBudget> SloTracker::budgets() const {
  std::vector<SloBudget> out;
  const double budget =
      std::max(1e-12, 1.0 - config_.availability_objective);
  for (const Cells::Track* track : cells_.sorted()) {
    const auto [provider, country] = cells_.names(track->ids);
    SloBudget& b = out.emplace_back();
    b.provider = provider;
    b.country = country;
    for (const auto& [w, cell] : track->value) {
      b.total += cell.total();
      b.errors += cell.errors();
      b.slow += cell.slow;
    }
    if (b.total > 0) {
      const double total = static_cast<double>(b.total);
      b.availability = static_cast<double>(b.total - b.errors) / total;
      b.error_budget_consumed =
          static_cast<double>(b.errors) / (total * budget);
      if (config_.p99_objective_ms > 0.0) {
        b.latency_budget_consumed =
            static_cast<double>(b.slow) / (total * 0.01);
      }
    }
  }
  return out;
}

}  // namespace dohperf::obs
