// Ground-truth validation experiments (paper Section 4).
//
// The paper enrolled its own EC2 machines as exit nodes to compare the
// header-based estimators against direct measurements taken at the node.
// We do the same: plant a controlled vantage in a country, measure DoH /
// Do53 through the proxy path (estimator) and directly (truth), and
// compare medians.
#pragma once

#include <string>

#include "measure/dataset.h"
#include "world/world_model.h"

namespace dohperf::measure {

/// Table 1 row: estimated vs ground-truth DoH and DoHR medians (ms).
struct DohValidation {
  std::string iso2;
  double estimated_tdoh_ms = 0.0;
  double truth_tdoh_ms = 0.0;
  double estimated_tdohr_ms = 0.0;
  double truth_tdohr_ms = 0.0;

  [[nodiscard]] double tdoh_error_ms() const {
    return estimated_tdoh_ms - truth_tdoh_ms;
  }
  [[nodiscard]] double tdohr_error_ms() const {
    return estimated_tdohr_ms - truth_tdohr_ms;
  }
};

/// Table 2 row: estimated vs ground-truth Do53 medians (ms).
struct Do53Validation {
  std::string iso2;
  double estimated_ms = 0.0;
  double truth_ms = 0.0;

  [[nodiscard]] double error_ms() const { return estimated_ms - truth_ms; }
};

/// Section 4.4: BrightData-vs-Atlas Do53 consistency in one country.
struct NetworkComparison {
  std::string iso2;
  double brightdata_median_ms = 0.0;
  double atlas_median_ms = 0.0;

  [[nodiscard]] double difference_ms() const {
    return brightdata_median_ms - atlas_median_ms;
  }
};

/// Runs the validation experiments against a world.
class GroundTruthLab {
 public:
  explicit GroundTruthLab(world::WorldModel& world);

  /// Validates the Equation-7/8 estimators from a controlled EC2-like
  /// node in `iso2` against `provider_index` (default: Cloudflare), with
  /// `reps` repetitions per method (paper: 10).
  [[nodiscard]] DohValidation validate_doh(const std::string& iso2,
                                           std::size_t provider_index = 0,
                                           int reps = 10);

  /// Validates the Do53 header readout (not applicable in Super Proxy
  /// countries; throws std::invalid_argument for them, as in the paper).
  [[nodiscard]] Do53Validation validate_do53(const std::string& iso2,
                                             int reps = 10);

  /// Compares BrightData and Atlas Do53 medians in an overlap country.
  [[nodiscard]] NetworkComparison compare_networks(const std::string& iso2,
                                                   int reps = 250);

  /// Builds the controlled EC2-like exit node the validations plant in a
  /// country.
  [[nodiscard]] proxy::ExitNode make_ec2_node(const std::string& iso2);

 private:
  world::WorldModel& world_;
};

}  // namespace dohperf::measure
