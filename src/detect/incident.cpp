#include "detect/incident.h"

#include <algorithm>
#include <tuple>

namespace dm::detect {

using netflow::Direction;
using sim::AttackType;

TimeoutTable TimeoutTable::paper() {
  TimeoutTable t{};
  for (AttackType type : sim::kAllAttackTypes) {
    t.timeout[sim::index_of(type)] = sim::inactive_timeout(type);
  }
  return t;
}

namespace {

auto detection_key(const MinuteDetection& d) {
  return std::make_tuple(d.vip.value(), static_cast<int>(d.direction),
                         static_cast<int>(d.type), d.minute);
}

}  // namespace

void IncidentBuilder::feed(const MinuteDetection& d,
                           std::vector<AttackIncident>& closed) {
  auto [it, fresh] = live_.try_emplace(
      Key{d.vip.value(), static_cast<int>(d.type), static_cast<int>(d.direction)});
  LiveIncident& live = it->second;
  AttackIncident& inc = live.incident;
  // The gap counts the silent minutes strictly between the two detections.
  if (!fresh &&
      util::saturating_sub(d.minute, inc.end) > timeouts_.of(d.type)) {
    closed.push_back(inc);
    fresh = true;
  }
  if (fresh) {
    inc = AttackIncident{};
    inc.vip = d.vip;
    inc.direction = d.direction;
    inc.type = d.type;
    inc.start = d.minute;
    live.peaks.clear();
  }
  inc.end = util::saturating_add(d.minute, 1);
  inc.active_minutes += 1;
  inc.total_sampled_packets += d.sampled_packets;
  inc.peak_unique_remotes = std::max(inc.peak_unique_remotes, d.unique_remotes);
  if (live.peaks.empty() || d.sampled_packets > inc.peak_sampled_ppm) {
    inc.peak_sampled_ppm = d.sampled_packets;
    live.peaks.emplace_back(d.minute, d.sampled_packets);
    // Running peaks rise strictly, so those below the new bar are a prefix.
    const auto bar = static_cast<std::uint64_t>(
        0.9 * static_cast<double>(inc.peak_sampled_ppm));
    live.peaks.erase(
        live.peaks.begin(),
        std::find_if(live.peaks.begin(), live.peaks.end(),
                     [bar](const auto& peak) { return peak.second >= bar; }));
    inc.ramp_up_minutes = live.peaks.front().first - inc.start;
  }
}

void IncidentBuilder::expire(util::Minute now,
                             std::vector<AttackIncident>& closed) {
  if (now <= expired_at_) return;
  expired_at_ = now;
  for (auto it = live_.begin(); it != live_.end();) {
    const AttackIncident& inc = it->second.incident;
    if (util::saturating_sub(now, inc.end) > timeouts_.of(inc.type)) {
      closed.push_back(inc);
      it = live_.erase(it);
    } else {
      ++it;
    }
  }
}

void IncidentBuilder::flush(std::vector<AttackIncident>& closed) {
  for (const auto& [key, live] : live_) closed.push_back(live.incident);
  live_.clear();
}

void IncidentBuilder::adopt(LiveIncident live) {
  const AttackIncident& inc = live.incident;
  const Key key{inc.vip.value(), static_cast<int>(inc.type),
                static_cast<int>(inc.direction)};
  live_.insert_or_assign(key, std::move(live));
}

std::vector<AttackIncident> build_incidents(std::vector<MinuteDetection> detections,
                                            const TimeoutTable& timeouts) {
  std::sort(detections.begin(), detections.end(),
            [](const MinuteDetection& a, const MinuteDetection& b) {
              return detection_key(a) < detection_key(b);
            });

  // Sorted input puts one key live at a time; flushing it when the key
  // changes keeps the output in (vip, direction, type, start) order.
  std::vector<AttackIncident> incidents;
  IncidentBuilder builder(timeouts);
  for (std::size_t i = 0; i < detections.size(); ++i) {
    const MinuteDetection& d = detections[i];
    if (i > 0) {
      const MinuteDetection& prev = detections[i - 1];
      if (prev.vip != d.vip || prev.direction != d.direction ||
          prev.type != d.type) {
        builder.flush(incidents);
      }
    }
    builder.feed(d, incidents);
  }
  builder.flush(incidents);
  return incidents;
}

std::vector<double> inactive_gaps(std::span<const MinuteDetection> detections,
                                  AttackType type, Direction direction) {
  std::vector<MinuteDetection> filtered;
  for (const MinuteDetection& d : detections) {
    if (d.type == type && d.direction == direction) filtered.push_back(d);
  }
  std::sort(filtered.begin(), filtered.end(),
            [](const MinuteDetection& a, const MinuteDetection& b) {
              return detection_key(a) < detection_key(b);
            });
  std::vector<double> gaps;
  for (std::size_t i = 1; i < filtered.size(); ++i) {
    const MinuteDetection& prev = filtered[i - 1];
    const MinuteDetection& cur = filtered[i];
    // Within a series minutes ascend; the distance saturates at the ceiling.
    const util::Minute distance =
        util::saturating_sub(cur.minute, prev.minute);
    if (prev.vip == cur.vip && prev.direction == cur.direction &&
        distance > 1) {
      gaps.push_back(static_cast<double>(distance - 1));
    }
  }
  return gaps;
}

}  // namespace dm::detect
