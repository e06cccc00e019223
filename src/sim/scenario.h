// Scenario configuration and per-attack-type calibration tables.
//
// The tables encode the paper's reported statistics (§3-§6) as target
// distributions; DESIGN.md §4 lists each calibration target with its source
// in the paper. Everything here is data — the scheduler and traffic
// generator interpret it.
#pragma once

#include <array>
#include <cstdint>

#include "cloud/as_registry.h"
#include "cloud/tds_blacklist.h"
#include "cloud/vip_registry.h"
#include "netflow/flow_record.h"
#include "netflow/spill_policy.h"
#include "sim/attack_type.h"

namespace dm::sim {

/// Special-AS involvement of an attack class (the paper's concentration
/// anecdotes: the Spain AS, the Romanian hosting cloud, the French ISP, the
/// Singaporean spam source).
enum class HubKind : std::uint8_t {
  kNone,
  kSpain,          ///< §6.1/§6.2: one AS in Spain on >35% of attacks
  kRomania,        ///< §6.2: 40% of outbound attack packets to one RO cloud
  kFrance,         ///< §6.2: 23.6% of outbound DNS reflection to one FR ISP
  kSingaporeSpam,  ///< §6.1: 81% of inbound spam packets from one SG cloud
};

/// Calibrated generation parameters for one (attack type, direction).
/// Rates are *true* (unsampled) packet rates; the sampler thins them.
struct AttackParams {
  /// Share of attack sessions of this direction that are this type
  /// (normalized across types by the scheduler; derived from Fig 2).
  double session_share = 0.0;

  /// Per-(VIP, day) attack-count distribution (Fig 3a): probability the
  /// session contains exactly one attack, else 2 + floor(Pareto(alpha)) up
  /// to `repeat_cap` attacks in the day.
  double p_single = 0.5;
  double repeat_alpha = 1.3;
  double repeat_cap = 30.0;

  /// Peak intensity: log-normal by median/sigma, clipped at cap (Fig 7/8).
  double peak_pps_median = 1'000.0;
  double peak_pps_sigma = 1.0;
  double peak_pps_cap = 100'000.0;

  /// Secondary intensity mode (the UDP-flood bimodality of §5.2); used with
  /// probability `mode2_probability`.
  double mode2_probability = 0.0;
  double mode2_pps_median = 0.0;
  double mode2_interarrival_median = 0.0;

  /// Duration in minutes: log-normal median/sigma, clipped (Fig 9).
  double duration_median = 6.0;
  double duration_sigma = 1.2;
  double duration_cap = 600.0;

  /// Median gap between attack starts within a session (Fig 10).
  double interarrival_median = 120.0;
  double interarrival_sigma = 1.0;

  /// Ramp-up minutes to 90% of peak (§5.2).
  double ramp_up_median = 2.0;

  /// Remote endpoint count: log-normal median/sigma, clipped.
  double host_count_median = 10.0;
  double host_count_sigma = 1.0;
  double host_count_cap = 1'000.0;

  /// Fraction of episodes whose sources are spoofed (uniform over the
  /// address space); SYN floods: 0.671 (§6.1).
  double spoofed_fraction = 0.0;

  /// Multi-VIP campaign behaviour (§4.3).
  double campaign_probability = 0.0;
  double campaign_size_median = 3.0;
  double campaign_size_cap = 10.0;

  /// Probability the session is part of a multi-vector bundle (§4.2).
  double multi_vector_probability = 0.0;

  /// AS-class mix of remote endpoints, indexed like cloud::kAllAsClasses.
  std::array<double, 9> origin_class_weights{};

  /// Concentration hub and the fraction of episodes involving it.
  HubKind hub = HubKind::kNone;
  double hub_fraction = 0.0;

  /// Spam on-off pattern (§3.1): median on/off phase lengths in minutes.
  double on_minutes_median = 0.0;
  double off_minutes_median = 0.0;
};

/// The calibrated defaults for one type/direction (see scenario.cpp for the
/// values and the paper sections they come from).
[[nodiscard]] const AttackParams& default_attack_params(AttackType type,
                                                        netflow::Direction dir) noexcept;

/// Everything needed to build and run one simulated study.
struct ScenarioConfig {
  std::uint64_t seed = 42;
  /// Trace length in days (the paper has ~90; benches default to 7 and
  /// record the scaling in EXPERIMENTS.md).
  int days = 7;
  /// NetFlow packet sampling denominator (paper: 4096).
  std::uint32_t sampling = 4096;
  /// Threads the pipeline stages (trace generation, window aggregation,
  /// per-series detection) shard across. 0 = hardware_concurrency;
  /// 1 = serial. Output is byte-identical for every value — shards are
  /// seeded by entity index (Rng::split) and merged in shard order.
  unsigned thread_count = 0;
  /// Out-of-core knob: when spill.directory is set, completed shard slices
  /// are sealed into CRC-framed segment files under it once the pending
  /// resident store crosses the policy threshold, and the Study's record
  /// store streams from mmap'd segments instead of RAM. The decoded trace —
  /// and every downstream exhibit — is byte-identical with spill on or off;
  /// only peak RSS changes. See DESIGN.md §5f.
  netflow::SpillConfig spill;

  cloud::VipRegistryConfig vips;
  cloud::AsRegistryConfig ases;
  cloud::TdsBlacklistConfig tds;

  /// Attack-session arrival rates per (VIP, day). The paper reports 0.08% /
  /// 0.11% of VIPs per day under attack; the default is scaled up ~20x so a
  /// laptop-scale trace still yields distribution-grade attack counts
  /// (documented in EXPERIMENTS.md).
  double inbound_sessions_per_vip_day = 0.022;
  double outbound_sessions_per_vip_day = 0.026;

  /// Global multiplier on benign service traffic rates.
  double benign_scale = 0.12;

  /// Seasonal multiplier on the *inbound flood* session shares (SYN, UDP,
  /// ICMP). §3.1 reports "a significant increase of inbound flood attacks
  /// during Nov and Dec compared to May, possibly to disrupt the e-commerce
  /// sites ... during the busy holiday shopping season"; 1.0 models the May
  /// trace, holiday_season() raises it.
  double inbound_flood_seasonality = 1.0;

  /// Scripted events.
  bool include_case_study = true;      ///< Fig 5 compromise chain
  bool include_spam_eruption = true;   ///< §3.1: one-day spam eruption
  bool include_subnet_scan = true;     ///< §4.3: two hosts scanning 8 subnets
  bool include_dns_server_case = true; ///< §3.1: single VIP's outbound DNS
  bool include_romania_barrage = true; ///< §6.2: 3 VIPs, 40% of outbound pkts
  bool include_serial_attacker = true; ///< §4.1: one VIP, >144 SYN floods/day

  /// Tiny deterministic configuration for unit/integration tests.
  [[nodiscard]] static ScenarioConfig smoke();
  /// Default bench-scale configuration (~1.5k VIPs, 7 days).
  [[nodiscard]] static ScenarioConfig paper_scale();
  /// paper_scale with the Nov/Dec inbound-flood surge of §3.1.
  [[nodiscard]] static ScenarioConfig holiday_season();

  [[nodiscard]] util::Minute total_minutes() const noexcept {
    return static_cast<util::Minute>(days) * util::kMinutesPerDay;
  }
};

}  // namespace dm::sim
