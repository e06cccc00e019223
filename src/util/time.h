// Simulation time: everything in the study is indexed by one-minute windows,
// matching the paper's NetFlow aggregation granularity.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace dm::util {

/// Index of a one-minute window since simulation start (t = 0).
using Minute = std::int64_t;

inline constexpr Minute kMinutesPerHour = 60;
inline constexpr Minute kMinutesPerDay = 24 * kMinutesPerHour;

/// Day index (0-based) containing a minute.
[[nodiscard]] constexpr std::int64_t day_of(Minute m) noexcept {
  return m >= 0 ? m / kMinutesPerDay : (m - kMinutesPerDay + 1) / kMinutesPerDay;
}

/// Minute-of-day in [0, 1440).
[[nodiscard]] constexpr Minute minute_of_day(Minute m) noexcept {
  const Minute r = m % kMinutesPerDay;
  return r < 0 ? r + kMinutesPerDay : r;
}

/// Hour-of-day in [0, 24).
[[nodiscard]] constexpr int hour_of_day(Minute m) noexcept {
  return static_cast<int>(minute_of_day(m) / kMinutesPerHour);
}

/// `a + b`, clamped to the Minute range: arithmetic on decoded minutes
/// next to the floor or the ceiling saturates instead of overflowing.
[[nodiscard]] constexpr Minute saturating_add(Minute a, Minute b) noexcept {
  constexpr Minute kMin = std::numeric_limits<Minute>::min();
  constexpr Minute kMax = std::numeric_limits<Minute>::max();
  if (b > 0 && a > kMax - b) return kMax;
  if (b < 0 && a < kMin - b) return kMin;
  return a + b;
}

/// `a - b`, clamped to the Minute range like saturating_add.
[[nodiscard]] constexpr Minute saturating_sub(Minute a, Minute b) noexcept {
  constexpr Minute kMin = std::numeric_limits<Minute>::min();
  constexpr Minute kMax = std::numeric_limits<Minute>::max();
  if (b < 0 && a > kMax + b) return kMax;
  if (b > 0 && a < kMin + b) return kMin;
  return a - b;
}

/// Formats a minute index as "dD hh:mm" for logs and case-study output.
[[nodiscard]] std::string format_minute(Minute m);

}  // namespace dm::util
