// Replaying detected incidents against the §7 mitigation practices.
//
// For every incident the engine decides which mechanisms apply, when they
// become effective, and what fraction of the incident's sampled attack
// packets each would have absorbed. The output quantifies the paper's
// closing argument: fast, programmable, multiplexed defenses beat static
// overprovisioning.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/attribution.h"
#include "analysis/spoof_analysis.h"
#include "detect/incident.h"
#include "mitigate/policy.h"

namespace dm::mitigate {

/// One mechanism applied to one incident.
struct MitigationAction {
  std::uint32_t incident_index = 0;
  ActionKind kind = ActionKind::kRateLimit;
  util::Minute effective_from = 0;  ///< first minute the mechanism bites
  /// Fraction of the incident's post-activation traffic this mechanism
  /// absorbs, in [0, 1].
  double absorption = 0.0;
};

/// Per-incident outcome.
struct IncidentOutcome {
  std::uint32_t incident_index = 0;
  std::uint64_t attack_packets = 0;    ///< total sampled attack packets
  std::uint64_t absorbed_packets = 0;  ///< removed by mitigations
  util::Minute time_to_mitigate = -1;  ///< first effective minute - start; -1 = never
};

/// Aggregate effectiveness report.
struct MitigationReport {
  std::vector<MitigationAction> actions;
  std::vector<IncidentOutcome> outcomes;
  /// Absorbed / total sampled attack packets, per attack type.
  std::array<double, sim::kAttackTypeCount> absorption_by_type{};
  std::array<std::uint64_t, sim::kAttackTypeCount> incidents_by_type{};
  double total_absorption = 0.0;
  double median_time_to_mitigate = 0.0;
  std::uint64_t shutdown_vips = 0;
};

/// The engine. Stateless apart from the policy; evaluation needs the trace
/// (to weigh per-minute traffic and source concentration).
class MitigationEngine {
 public:
  explicit MitigationEngine(MitigationPolicy policy = {}) : policy_(policy) {}

  [[nodiscard]] const MitigationPolicy& policy() const noexcept { return policy_; }

  /// Evaluates all incidents. `blacklist` is the TDS set (for attribution of
  /// TDS incidents); `spoof` (optional) marks incidents whose sources are
  /// spoofed — source blacklists cannot absorb those (§6.1).
  [[nodiscard]] MitigationReport evaluate(
      const netflow::WindowedTrace& trace,
      std::span<const detect::AttackIncident> incidents,
      std::uint32_t sampling = 4096,
      const netflow::PrefixSet* blacklist = nullptr,
      const analysis::SpoofResult* spoof = nullptr) const;

 private:
  MitigationPolicy policy_;
};

}  // namespace dm::mitigate
