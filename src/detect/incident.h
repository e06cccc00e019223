// Attack incidents: grouping per-minute detections into attack units.
//
// "We group multiple attack windows as a single attack where the last attack
// interval is followed by T inactive windows" (§2.2), with the per-type T of
// Table 1. The incident is the unit every characterization in §4-§6 counts.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "netflow/flow_record.h"
#include "netflow/window_aggregator.h"
#include "sim/attack_type.h"
#include "util/time.h"

namespace dm::detect {

/// One detected attack on/from one VIP.
struct AttackIncident {
  // dmlint: checkpointed
  netflow::IPv4 vip;
  netflow::Direction direction = netflow::Direction::kInbound;
  sim::AttackType type = sim::AttackType::kSynFlood;

  util::Minute start = 0;  ///< first detected minute
  /// Last detected minute + 1, saturated: an incident whose last minute is
  /// the Minute ceiling ends there too, so its duration() is one short.
  util::Minute end = 0;
  std::uint32_t active_minutes = 0;  ///< minutes actually flagged

  std::uint64_t total_sampled_packets = 0;
  std::uint64_t peak_sampled_ppm = 0;     ///< max sampled packets in a minute
  std::uint32_t peak_unique_remotes = 0;  ///< max distinct remotes in a minute

  /// Minutes from start until the per-minute rate first reached 90% of the
  /// incident's peak (§5.2 ramp-up; meaningful for volume attacks).
  util::Minute ramp_up_minutes = 0;

  [[nodiscard]] util::Minute duration() const noexcept { return end - start; }

  /// Estimated true peak rate in packets/second (sampled ppm scaled by the
  /// sampling denominator over 60 s).
  [[nodiscard]] double estimated_peak_pps(std::uint32_t sampling) const noexcept {
    return static_cast<double>(peak_sampled_ppm) *
           static_cast<double>(sampling) / 60.0;
  }
};

/// One flagged minute, as produced by the detection pipeline.
struct MinuteDetection {
  netflow::IPv4 vip;
  netflow::Direction direction = netflow::Direction::kInbound;
  sim::AttackType type = sim::AttackType::kSynFlood;
  util::Minute minute = 0;
  std::uint64_t sampled_packets = 0;
  std::uint32_t unique_remotes = 0;
};

/// Per-type inactive timeouts (minutes). Defaults to Table 1; the
/// TimeoutSelector can derive them from data instead.
struct TimeoutTable {
  std::array<util::Minute, sim::kAttackTypeCount> timeout;

  /// Table 1's published values.
  [[nodiscard]] static TimeoutTable paper();

  [[nodiscard]] util::Minute of(sim::AttackType t) const noexcept {
    return timeout[sim::index_of(t)];
  }
};

/// The incident state machine shared by build_incidents and StreamMonitor.
/// Feed it each (vip, type, direction) key's detections in increasing
/// minute order. A key's incident closes when its next detection follows
/// more than the type's timeout of silent minutes (a gap-split, emitted as
/// it happens), when expire() finds the timeout lapsed, or at flush().
/// Closed incidents are erased, so the builder holds only live ones and
/// its state is bounded by the attacks in progress, not by history.
class IncidentBuilder {
 public:
  /// A live incident plus the minutes its ramp-up may still resolve to.
  struct LiveIncident {
    // dmlint: checkpointed
    AttackIncident incident;
    /// (minute, sampled packets) of the incident's strict running peaks
    /// that are still at or above ⌊0.9 · peak⌋, oldest first. The ramp-up
    /// minute — the first minute at ≥ ⌊0.9 · final peak⌋ — exceeds every
    /// minute before it, so it is always one of these, and pruning against
    /// each new peak leaves it in front.
    std::vector<std::pair<util::Minute, std::uint64_t>> peaks;
  };
  /// (vip, type, direction): the emission order of expire() and flush().
  using Key = std::tuple<std::uint32_t, int, int>;

  explicit IncidentBuilder(const TimeoutTable& timeouts) noexcept
      : timeouts_(timeouts) {}

  /// Adds one detection, first appending the key's previous incident to
  /// `closed` when the silent gap since it exceeds the type's timeout.
  void feed(const MinuteDetection& d, std::vector<AttackIncident>& closed);

  /// Appends to `closed`, in key order, every live incident whose timeout
  /// has lapsed by minute `now`, and erases them. The caller commits
  /// minutes in order — every detection fed after expire(now) is for a
  /// minute >= now — so expiring again at `now` or earlier finds nothing,
  /// and only a later `now` walks the live incidents.
  void expire(util::Minute now, std::vector<AttackIncident>& closed);

  /// Appends every live incident to `closed` in key order and erases them.
  void flush(std::vector<AttackIncident>& closed);

  /// Re-inserts a live incident captured by a checkpoint.
  void adopt(LiveIncident live);

  [[nodiscard]] const std::map<Key, LiveIncident>& live() const noexcept {
    return live_;
  }

 private:
  TimeoutTable timeouts_;
  std::map<Key, LiveIncident> live_;
  /// The last minute expire() walked; not checkpointed, since a restored
  /// builder re-running expiry for that minute finds nothing to close.
  util::Minute expired_at_ = std::numeric_limits<util::Minute>::min();
};

/// Groups minute detections into incidents, ordered by (vip, direction,
/// type, start). Input order is irrelevant: the detections are sorted by
/// (vip, direction, type, minute) and fed through one IncidentBuilder.
[[nodiscard]] std::vector<AttackIncident> build_incidents(
    std::vector<MinuteDetection> detections, const TimeoutTable& timeouts);

/// The inactive-time gap samples (minutes) between consecutive detected
/// minutes of the same (VIP, direction, type) — the raw material of Fig 1
/// and of timeout selection.
[[nodiscard]] std::vector<double> inactive_gaps(
    std::span<const MinuteDetection> detections, sim::AttackType type,
    netflow::Direction direction);

}  // namespace dm::detect
