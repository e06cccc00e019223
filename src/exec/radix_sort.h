// Stable LSD radix sort over packed unsigned keys.
//
// The canonical record order leads with densely packed integer fields
// (VIP, direction, minute, remote, arrival index), so the hot sorts in the
// pipeline are keyed by 64- or 128-bit unsigned integers. An LSD radix sort
// over 8-bit digits beats the comparison sort on those keys by a wide
// margin and — because every counting pass is stable — preserves the input
// order of equal keys, which is what the arrival-index tie-break and the
// shard merges rely on.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace dm::exec {

/// Software prefetch hints — no-ops where the builtin is unavailable and
/// semantically no-ops everywhere (hints cannot change results).
inline void prefetch_read(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0);
#else
  (void)p;
#endif
}

inline void prefetch_write(void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 1);
#else
  (void)p;
#endif
}

/// A 128-bit sort key ordered by (hi, lo) — hi is the most significant
/// word. Packs e.g. (vip, direction, minute) into hi and (remote, arrival
/// index) into lo.
struct Key128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend constexpr bool operator==(const Key128&, const Key128&) = default;
  friend constexpr std::strong_ordering operator<=>(const Key128& a,
                                                    const Key128& b) noexcept {
    if (a.hi != b.hi) return a.hi <=> b.hi;
    return a.lo <=> b.lo;
  }
};

namespace detail {

template <typename K>
inline constexpr std::size_t radix_words_v =
    std::is_same_v<K, Key128> ? 2 : 1;

/// w-th 64-bit word of the key, least significant first.
[[nodiscard]] inline std::uint64_t radix_word(const Key128& k,
                                              std::size_t w) noexcept {
  return w == 0 ? k.lo : k.hi;
}

template <typename K>
  requires std::is_unsigned_v<K>
[[nodiscard]] std::uint64_t radix_word(K k, std::size_t /*w*/) noexcept {
  return static_cast<std::uint64_t>(k);
}

}  // namespace detail

/// Sorts `items` by `key(item)` ascending, where the key type is an
/// unsigned integer or Key128. Stable: items with equal keys keep their
/// input order. Counting passes whose digit is constant across all items
/// are skipped, so keys that only vary in a few bytes (the common case for
/// a shard that owns a narrow VIP range) cost proportionally less.
template <typename T, typename KeyFn>
void radix_sort(std::vector<T>& items, KeyFn&& key) {
  using K = std::decay_t<decltype(key(items[0]))>;
  constexpr std::size_t kWords = detail::radix_words_v<K>;
  constexpr std::size_t kDigits = kWords * 8;
  const std::size_t n = items.size();
  if (n < 2) return;
  // Bucket counters are 32-bit; the pipeline's record-index space shares
  // the same bound (VipMinuteStats stores uint32 record ranges).
  assert(n <= UINT32_MAX);

  // Small inputs: the histogram passes dominate; fall back to a stable
  // comparison sort over the same keys.
  if (n < 64) {
    std::stable_sort(items.begin(), items.end(),
                     [&](const T& a, const T& b) { return key(a) < key(b); });
    return;
  }

  std::vector<K> keys;
  keys.reserve(n);
  for (const T& item : items) keys.push_back(key(item));

  // One pre-pass builds the histograms of every digit position at once.
  std::vector<std::array<std::uint32_t, 256>> counts(kDigits);
  for (auto& c : counts) c.fill(0);
  for (const K& k : keys) {
    for (std::size_t w = 0; w < kWords; ++w) {
      const std::uint64_t word = detail::radix_word(k, w);
      for (std::size_t b = 0; b < 8; ++b) {
        ++counts[w * 8 + b][(word >> (b * 8)) & 0xff];
      }
    }
  }

  std::vector<T> scratch_items(n);
  std::vector<K> scratch_keys(n);
  T* src_items = items.data();
  T* dst_items = scratch_items.data();
  K* src_keys = keys.data();
  K* dst_keys = scratch_keys.data();

  for (std::size_t d = 0; d < kDigits; ++d) {
    auto& count = counts[d];
    const std::size_t word = d / 8;
    const std::size_t shift = (d % 8) * 8;
    // A digit all items share sorts nothing — skip the pass.
    if (std::any_of(count.begin(), count.end(),
                    [n](std::uint32_t c) { return c == n; })) {
      continue;
    }
    std::uint32_t offset = 0;
    for (std::uint32_t& c : count) {
      const std::uint32_t next = offset + c;
      c = offset;
      offset = next;
    }
    // The scatter writes fan out over up to 256 destination streams — too
    // many for the hardware prefetchers to track. Peeking a fixed distance
    // ahead in the (sequential) key read and prefetching that item's
    // destination slot hides most of the write-allocate misses.
    constexpr std::size_t kScatterPrefetch = 16;
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kScatterPrefetch < n) {
        const std::size_t ahead =
            (detail::radix_word(src_keys[i + kScatterPrefetch], word) >>
             shift) & 0xff;
        prefetch_write(dst_items + count[ahead]);
        prefetch_write(dst_keys + count[ahead]);
      }
      const std::size_t bucket =
          (detail::radix_word(src_keys[i], word) >> shift) & 0xff;
      const std::uint32_t dst = count[bucket]++;
      dst_items[dst] = std::move(src_items[i]);
      dst_keys[dst] = src_keys[i];
    }
    std::swap(src_items, dst_items);
    std::swap(src_keys, dst_keys);
  }

  if (src_items != items.data()) {
    std::move(scratch_items.begin(), scratch_items.end(), items.begin());
  }
}

}  // namespace dm::exec
