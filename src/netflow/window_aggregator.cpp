#include "netflow/window_aggregator.h"

#include <algorithm>
#include <span>
#include <tuple>
#include <utility>

#include "exec/parallel.h"
#include "exec/radix_sort.h"
#include "util/malloc_tune.h"

namespace dm::netflow {

std::optional<Direction> classify(const FlowRecord& record,
                                  const PrefixSet& cloud_space) noexcept {
  const bool src_cloud = cloud_space.contains(record.src_ip);
  const bool dst_cloud = cloud_space.contains(record.dst_ip);
  if (src_cloud == dst_cloud) return std::nullopt;
  return dst_cloud ? Direction::kInbound : Direction::kOutbound;
}

void DistinctRemotes::grow() {
  std::vector<std::uint64_t> old =
      std::exchange(slots_, std::vector<std::uint64_t>(
                                std::max<std::size_t>(4, 2 * slots_.size())));
  const std::size_t mask = slots_.size() - 1;
  for (const std::uint64_t slot : old) {
    if (slot == 0) continue;
    std::size_t i = slot_of(static_cast<std::uint32_t>(slot >> 32)) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

std::vector<std::pair<std::uint32_t, unsigned>> DistinctRemotes::sorted() const {
  std::vector<std::pair<std::uint32_t, unsigned>> out;
  out.reserve(size_);
  for (const std::uint64_t slot : slots_) {
    if (slot != 0) {
      out.emplace_back(static_cast<std::uint32_t>(slot >> 32),
                       static_cast<unsigned>(slot));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

WindowedTrace::WindowedTrace(RecordStore store,
                             std::vector<VipMinuteStats> windows,
                             std::uint64_t unclassified_records)
    : store_(std::move(store)),
      windows_(std::move(windows)),
      unclassified_(unclassified_records) {
  // windows_ is sorted by VIP, so adjacent dedup yields the distinct-VIP
  // list; computed once here because analysis passes ask repeatedly.
  for (const auto& w : windows_) {
    if (vips_.empty() || vips_.back() != w.vip) vips_.push_back(w.vip);
  }
}

WindowedTrace::WindowedTrace(ColumnarRecords columns,
                             std::vector<VipMinuteStats> windows,
                             std::uint64_t unclassified_records)
    : WindowedTrace(RecordStore(std::move(columns)), std::move(windows),
                    unclassified_records) {}

WindowedTrace::RecordRange WindowedTrace::records_of(
    const VipMinuteStats& window) const {
  return store_.range(window.first_record, window.last_record);
}

std::span<const VipMinuteStats> WindowedTrace::series(IPv4 vip,
                                                      Direction dir) const noexcept {
  const auto key_less = [](const VipMinuteStats& w,
                           std::pair<IPv4, Direction> key) {
    if (w.vip != key.first) return w.vip < key.first;
    return static_cast<int>(w.direction) < static_cast<int>(key.second);
  };
  const auto key_greater = [](std::pair<IPv4, Direction> key,
                              const VipMinuteStats& w) {
    if (w.vip != key.first) return key.first < w.vip;
    return static_cast<int>(key.second) < static_cast<int>(w.direction);
  };
  const auto lo = std::lower_bound(windows_.begin(), windows_.end(),
                                   std::make_pair(vip, dir), key_less);
  const auto hi = std::upper_bound(lo, windows_.end(), std::make_pair(vip, dir),
                                   key_greater);
  return {lo, hi};
}

namespace {

/// One-entry longest-prefix-membership memo. classify() pays two
/// PrefixSet::contains() walks per record, but the generator emits episode
/// bursts whose cloud-side endpoint is constant for long stretches, so the
/// per-side repeat rate is high. Verdicts are a pure function of the IP, so
/// memoization cannot change any output — it only skips redundant walks.
class MembershipMemo {
 public:
  /// `set` may be null only if contains() is never called.
  explicit MembershipMemo(const PrefixSet* set) noexcept : set_(set) {}

  [[nodiscard]] bool contains(IPv4 ip) noexcept {
    if (!valid_ || ip != ip_) {
      ip_ = ip;
      valid_ = true;
      verdict_ = set_->contains(ip);
    }
    return verdict_;
  }

 private:
  const PrefixSet* set_;
  IPv4 ip_;
  bool verdict_ = false;
  bool valid_ = false;
};

/// classify() with per-side memos — bitwise-identical verdicts.
std::optional<Direction> classify_memo(const FlowRecord& record,
                                       MembershipMemo& src_cloud,
                                       MembershipMemo& dst_cloud) noexcept {
  const bool src_in = src_cloud.contains(record.src_ip);
  const bool dst_in = dst_cloud.contains(record.dst_ip);
  if (src_in == dst_in) return std::nullopt;
  return dst_in ? Direction::kInbound : Direction::kOutbound;
}

/// A window's place in the canonical order: (vip << 1 | direction, then the
/// minute with its sign bit flipped, so unsigned order is signed order).
/// Shard cuts are drawn in this order.
struct WindowKey {
  std::uint64_t series;
  std::uint64_t minute;

  friend auto operator<=>(const WindowKey&, const WindowKey&) = default;
};

WindowKey window_key(const FlowRecord& r, Direction dir) noexcept {
  const OrientedFlow f{&r, dir};
  return {(static_cast<std::uint64_t>(f.vip().value()) << 1) |
              static_cast<std::uint64_t>(dir),
          static_cast<std::uint64_t>(r.minute) ^ (std::uint64_t{1} << 63)};
}

/// The full canonical record order for aggregate_shard's comparison-sort
/// fallback (minutes outside [0, 2^31)): the window key, then
/// k2 = (remote ip, arrival index). The arrival-index tie-break makes the
/// order a strict total order.
struct SortKey {
  WindowKey window;
  std::uint64_t k2;

  friend bool operator<(const SortKey& a, const SortKey& b) noexcept {
    return std::tie(a.window, a.k2) < std::tie(b.window, b.k2);
  }
};

SortKey key_of(const FlowRecord& r, Direction dir, std::size_t index) noexcept {
  const OrientedFlow f{&r, dir};
  return SortKey{window_key(r, dir),
                 (static_cast<std::uint64_t>(f.remote_ip().value()) << 32) |
                     static_cast<std::uint64_t>(index)};
}

/// Single-pass window builder over a just-encoded canonical slice,
/// consuming SoA decode blocks (DecodedBlock) instead of one record at a
/// time. A window boundary can only occur at a run start — runs have
/// constant (vip, direction, minute) by construction — so the boundary
/// check runs once per run, flagged by the block's run_mask, not once per
/// record. Remote IPs arrive sorted within a window, so distinct counts
/// fall out of adjacent comparisons exactly as in a record-wise builder
/// (the reference in the differential tests). first/last_record index the
/// view's own records.
std::vector<VipMinuteStats> build_windows_blocks(const ColumnarView& view,
                                                 const PrefixSet* blacklist) {
  std::vector<VipMinuteStats> windows;
  // Every window starts at a run boundary, and nearly every run opens a
  // window (adjacent equal-key runs only arise from mid-run shard cuts), so
  // the run count is a tight capacity bound — reserving it avoids doubling
  // reallocs of a vector of ~184-byte structs.
  windows.reserve(view.runs);
  VipMinuteStats* current = nullptr;
  // Remotes arrive sorted within a window, so a remote's records are
  // adjacent: a class is fresh for it unless an earlier record of the same
  // remote in this window already counted it.
  std::uint32_t last_remote = 0;
  unsigned seen = 0;  // classes counted for last_remote; 0 = none yet
  // Blacklist membership is a pure function of the remote IP, and remotes
  // repeat in adjacent records (sorted within a window) — memoize the walk.
  MembershipMemo blacklisted(blacklist);

  ColumnarRecords::BlockCursor cursor;
  cursor.reset(view, view.records);
  DecodedBlock block;
  while (cursor.next(block)) {
    std::size_t i = 0;
    while (i < block.count) {
      // The block decomposes into run segments — maximal stretches with no
      // run start strictly after their first record. (vip, direction,
      // minute) are constant per run, so the window-boundary test runs once
      // per segment and last_record advances once per segment, not once per
      // record.
      const std::uint64_t later_starts =
          i + 1 < 64 ? block.run_mask & ~((std::uint64_t{2} << i) - 1) : 0;
      const std::size_t seg_end =
          later_starts != 0
              ? static_cast<std::size_t>(std::countr_zero(later_starts))
              : block.count;
      if (((block.run_mask >> i) & 1) != 0 &&
          (current == nullptr || current->vip.value() != block.vip[i] ||
           current->direction != static_cast<Direction>(block.direction[i]) ||
           current->minute != block.minute[i])) {
        // Construct in place: a stack temp would zero-init and then copy
        // all ~184 bytes a second time on push_back.
        current = &windows.emplace_back();
        current->vip = IPv4(block.vip[i]);
        current->minute = block.minute[i];
        current->direction = static_cast<Direction>(block.direction[i]);
        current->first_record = static_cast<std::uint32_t>(block.base_index + i);
        current->last_record = current->first_record;
        seen = 0;
      }
      current->last_record =
          static_cast<std::uint32_t>(block.base_index + seg_end);

      for (; i < seg_end; ++i) {
        const std::uint32_t remote = block.remote[i];
        const unsigned classes = accumulate(
            *current,
            {static_cast<Protocol>(block.protocol[i]),
             static_cast<TcpFlags>(block.tcp_flags[i]), block.src_port[i],
             block.dst_port[i], block.packets[i], block.bytes[i],
             blacklist != nullptr && blacklisted.contains(IPv4(remote))});
        if (seen == 0 || remote != last_remote) {
          last_remote = remote;
          seen = 0;
        }
        count_distinct(*current, classes & ~seen);
        seen |= classes;
      }
    }
  }

  return windows;
}

/// Gather distance for the permuted read in the encode loop: far enough to
/// cover DRAM latency at ~1 record decoded per few ns, near enough to stay
/// inside the already-sorted locality window.
constexpr std::size_t kGatherPrefetch = 8;

/// Cuts for at most `shards` key-range shards: quantiles of the window keys
/// of a deterministic stride sample (64 per shard) of the classifiable
/// records, strictly ascending. Shard s holds the keys in
/// [cuts[s - 1], cuts[s]). Every cut and the smallest sampled key are keys
/// of real records, so no shard is empty; a cut may fall between any two
/// windows but never inside one.
std::vector<WindowKey> shard_cuts(std::span<const FlowRecord> records,
                                  const PrefixSet& cloud_space,
                                  std::size_t shards) {
  const std::size_t stride =
      std::max<std::size_t>(1, records.size() / (shards * 64));
  std::vector<WindowKey> sample;
  for (std::size_t i = 0; i < records.size(); i += stride) {
    if (const auto dir = classify(records[i], cloud_space)) {
      sample.push_back(window_key(records[i], *dir));
    }
  }
  std::vector<WindowKey> cuts;
  if (sample.empty()) return cuts;
  std::sort(sample.begin(), sample.end());
  for (std::size_t s = 1; s < shards; ++s) {
    const WindowKey& cut = sample[s * sample.size() / shards];
    if (sample.front() < cut && (cuts.empty() || cuts.back() < cut)) {
      cuts.push_back(cut);
    }
  }
  return cuts;
}

}  // namespace

std::size_t shard_count_for(const exec::ThreadPool* pool, bool spill) noexcept {
  const std::size_t per_worker = spill ? 256 : 64;
  const std::size_t workers =
      pool == nullptr ? 0 : static_cast<std::size_t>(pool->thread_count());
  return per_worker * std::max<std::size_t>(workers, 1);
}

WindowedTrace merge_shards(
    exec::ThreadPool* pool, std::size_t n, std::size_t shards,
    const std::function<ShardWindows(std::size_t, std::size_t)>& run_shard,
    const SpillConfig* spill) {
  std::optional<SpillWriter> writer;
  if (spill != nullptr && spill->enabled()) writer.emplace(*spill);
  const std::size_t workers =
      pool == nullptr ? 0 : static_cast<std::size_t>(pool->thread_count());
  const std::size_t wave =
      writer ? 2 * std::max<std::size_t>(workers, 1) : shards;

  // Slices are taken in range order as their wave lands. Spilled columns
  // go straight to the writer, so at most one wave of encoded shards is
  // resident; resident ones are held for one concatenation.
  std::vector<std::vector<VipMinuteStats>> windows;
  std::vector<std::uint32_t> record_base;
  std::vector<ColumnarRecords> columns;
  std::size_t records = 0;
  std::uint64_t unclassified = 0;
  exec::parallel_map_waves_n<ShardWindows>(
      pool, n, shards, wave, run_shard, [&](std::size_t, ShardWindows&& s) {
        record_base.push_back(static_cast<std::uint32_t>(records));
        records += s.columns.size();
        unclassified += s.unclassified;
        windows.push_back(std::move(s.windows));
        if (writer) {
          writer->append(std::move(s.columns));
          if (windows.size() % 64 == 0) util::release_free_heap();
        } else {
          columns.push_back(std::move(s.columns));
        }
      });

  // Windows, then columns, each concatenated on the pool into exactly
  // sized buffers, its slices freed by the tasks that copy them; the heap
  // is trimmed after each, so the pages of freed slices do not stack under
  // the next copy.
  std::vector<std::size_t> window_base(windows.size() + 1, 0);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    window_base[i + 1] = window_base[i] + windows[i].size();
  }
  std::vector<VipMinuteStats> merged;
  exec::resize_first_touch(pool, merged, window_base.back());
  exec::parallel_for(pool, windows.size(), [&](std::size_t i) {
    VipMinuteStats* out = merged.data() + window_base[i];
    for (const VipMinuteStats& w : windows[i]) {
      *out = w;
      out->first_record += record_base[i];
      out->last_record += record_base[i];
      ++out;
    }
    windows[i] = std::vector<VipMinuteStats>();
  });
  util::release_free_heap();
  if (writer) {
    return WindowedTrace(std::move(*writer).finish(), std::move(merged),
                         unclassified);
  }
  ColumnarRecords all = ColumnarRecords::concat(pool, columns);
  util::release_free_heap();
  return WindowedTrace(std::move(all), std::move(merged), unclassified);
}

WindowedTrace aggregate_windows(std::vector<FlowRecord> records,
                                const PrefixSet& cloud_space,
                                const PrefixSet* blacklist,
                                exec::ThreadPool* pool,
                                const SpillConfig* spill) {
  util::tune_malloc_for_streaming();
  const std::size_t n = records.size();
  const std::vector<WindowKey> cuts = shard_cuts(
      records, cloud_space,
      shard_count_for(pool, spill != nullptr && spill->enabled()));
  const std::size_t shards = cuts.size() + 1;

  // Phase 1: orient every record (prefix lookups memoized per side) and
  // find its shard; count each chunk's records per shard. Unclassifiable
  // records ride in shard 0, whose aggregate_shard drops and counts them.
  const std::size_t chunks = exec::chunk_count_for(pool, n);
  std::vector<std::uint32_t> shard_of(n);
  std::vector<std::size_t> next(chunks * shards);
  exec::parallel_for_chunks(
      pool, n, [&](std::size_t lo, std::size_t hi, std::size_t c) {
        MembershipMemo src_cloud(&cloud_space);
        MembershipMemo dst_cloud(&cloud_space);
        std::size_t* const count = &next[c * shards];
        // A series arrives in long runs of ascending minutes, so each
        // direction's last shard usually still holds the key.
        std::uint32_t last[2] = {0, 0};
        for (std::size_t i = lo; i < hi; ++i) {
          std::uint32_t s = 0;
          if (const auto dir = classify_memo(records[i], src_cloud, dst_cloud)) {
            const WindowKey key = window_key(records[i], *dir);
            std::uint32_t& memo = last[static_cast<std::size_t>(*dir)];
            if ((memo > 0 && key < cuts[memo - 1]) ||
                (memo < cuts.size() && !(key < cuts[memo]))) {
              memo = static_cast<std::uint32_t>(
                  std::upper_bound(cuts.begin(), cuts.end(), key) -
                  cuts.begin());
            }
            s = memo;
          }
          shard_of[i] = s;
          ++count[s];
        }
      });

  // Phase 2: stable counting scatter. Each chunk writes its records for a
  // shard behind those of every earlier chunk, in index order, so a shard
  // keeps arrival order — the tie-break aggregate_shard's radix relies on.
  std::vector<std::size_t> sizes(shards);
  for (std::size_t c = 0; c < chunks; ++c) {
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t count = next[c * shards + s];
      next[c * shards + s] = sizes[s];
      sizes[s] += count;
    }
  }
  std::vector<std::vector<FlowRecord>> inputs(shards);
  exec::parallel_for(pool, shards,
                     [&](std::size_t s) { inputs[s].resize(sizes[s]); });
  exec::parallel_for_chunks(
      pool, n, [&](std::size_t lo, std::size_t hi, std::size_t c) {
        std::size_t* const at = &next[c * shards];
        for (std::size_t i = lo; i < hi; ++i) {
          const std::uint32_t s = shard_of[i];
          inputs[s][at[s]++] = records[i];
        }
      });
  records = std::vector<FlowRecord>();
  shard_of = std::vector<std::uint32_t>();

  // Phase 3: every shard through the shared core, merged in key order.
  return merge_shards(
      pool, shards, shards,
      [&](std::size_t s, std::size_t) {
        return aggregate_shard(std::move(inputs[s]), cloud_space, blacklist);
      },
      spill);
}

ShardWindows aggregate_shard(std::vector<FlowRecord> records,
                             const PrefixSet& cloud_space,
                             const PrefixSet* blacklist) {
  ShardWindows out;

  // Classify, compact, and build the packed sort words in one serial pass;
  // compaction is stable, so kept records retain arrival order — the
  // tie-break the canonical sort uses. The per-side memos skip redundant
  // prefix walks across episode bursts. Fusing the key build here saves a
  // second full sweep over the record array; the speculative hi/remote
  // words are simply abandoned if a record turns out not packable (the
  // SortKey fallback below rebuilds from records — identical ordering).
  constexpr std::size_t kMaxRankedVips = 32;
  constexpr util::Minute kMaxPackedMinute = util::Minute{1} << 26;
  bool packable = true;
  std::size_t keep = 0;
  std::vector<Direction> directions;
  directions.reserve(records.size());
  std::vector<std::uint64_t> hi(records.size());
  std::vector<std::uint32_t> remote(records.size());
  std::uint32_t vips[kMaxRankedVips];
  std::size_t vip_count = 0;
  std::uint32_t last_vip = 0;
  util::Minute max_minute = 0;
  MembershipMemo src_cloud(&cloud_space);
  MembershipMemo dst_cloud(&cloud_space);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto dir = classify_memo(records[i], src_cloud, dst_cloud);
    if (!dir) {
      ++out.unclassified;
      continue;
    }
    packable &= records[i].minute >= 0 &&
                records[i].minute < (util::Minute{1} << 31);
    // Unclassified records are rare, so keep usually equals i — skip the
    // 40-byte self-assignment in that case.
    if (keep != i) records[keep] = records[i];
    directions.push_back(*dir);
    const OrientedFlow f{&records[keep], *dir};
    const std::uint32_t vip = f.vip().value();
    hi[keep] = (static_cast<std::uint64_t>(vip) << 32) |
               (static_cast<std::uint64_t>(*dir) << 31) |
               static_cast<std::uint64_t>(
                   static_cast<std::uint32_t>(records[keep].minute));
    remote[keep] = f.remote_ip().value();
    max_minute = std::max(max_minute, records[keep].minute);
    // Arrival order keeps each VIP constant for long stretches, so the
    // repeat check skips nearly every ranked-set probe.
    if (vip_count <= kMaxRankedVips && !(keep > 0 && vip == last_vip)) {
      auto* const end = vips + vip_count;
      const auto* at = std::lower_bound(vips, end, vip);
      if (at == end || *at != vip) {
        if (vip_count == kMaxRankedVips) {
          ++vip_count;  // overflow marker: too many VIPs to rank
        } else {
          const auto slot = static_cast<std::size_t>(at - vips);
          for (std::size_t j = vip_count; j > slot; --j) vips[j] = vips[j - 1];
          vips[slot] = vip;
          ++vip_count;
        }
      }
    }
    last_vip = vip;
    ++keep;
  }
  records.resize(keep);

  // Canonical sort, computed as a permutation only — the sorted
  // array-of-structs copy is gone; the encode loop below reads through the
  // permutation. Generator minutes always fit 31 bits, so (vip, dir,
  // minute) packs into 64 bits, the remote into 32, and two stable LSD
  // radix passes — by remote, then by the packed high word — produce
  // exactly the order the old single 128-bit-key sort did: stable LSD at
  // word granularity is lexicographic (hi, remote, arrival), and the
  // arrival-index tie-break costs nothing because the permutation starts in
  // arrival order. Splitting the words halves the key traffic the sort
  // moves.
  //
  // A shard usually qualifies for a tighter high word: it owns a narrow
  // VIP slice (few distinct VIPs) and realistic horizons stay far under
  // 2^26 minutes (~127 years), so
  //   (vip rank : 5 | direction : 1 | minute : 26)
  // fits 32 bits and is a monotone reencoding of the full high word — rank
  // order equals VIP address order by construction. Both radix phases then
  // sort u32 keys instead of one sorting a u64, which cuts the scatter
  // traffic by a third and lets the histogram skip the minute bytes a
  // short horizon leaves constant. Shards with too many VIPs or ingested
  // out-of-range minutes keep the u64 high word (identical ordering —
  // every packed key is a monotone reencoding of SortKey in its range).
  std::vector<std::uint32_t> order(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  if (packable) {
    if (vip_count <= kMaxRankedVips && max_minute < kMaxPackedMinute) {
      std::vector<std::uint32_t> hi32(keep);
      std::uint32_t memo_vip = vip_count > 0 ? vips[0] : 0;
      std::uint32_t memo_rank = 0;
      for (std::size_t i = 0; i < keep; ++i) {
        const auto vip = static_cast<std::uint32_t>(hi[i] >> 32);
        if (vip != memo_vip) {
          memo_vip = vip;
          memo_rank = static_cast<std::uint32_t>(
              std::lower_bound(vips, vips + vip_count, vip) - vips);
        }
        const std::uint32_t rank = memo_rank;
        hi32[i] = (rank << 27) |
                  (static_cast<std::uint32_t>(hi[i] >> 31) & 1u) << 26 |
                  static_cast<std::uint32_t>(hi[i] & (kMaxPackedMinute - 1));
      }
      exec::radix_sort(order, [&](std::uint32_t i) { return remote[i]; });
      exec::radix_sort(order, [&](std::uint32_t i) { return hi32[i]; });
    } else {
      exec::radix_sort(order, [&](std::uint32_t i) { return remote[i]; });
      exec::radix_sort(order, [&](std::uint32_t i) { return hi[i]; });
    }
  } else {
    std::vector<SortKey> keys(keep);
    for (std::size_t i = 0; i < keep; ++i) {
      keys[i] = key_of(records[i], directions[i], i);
    }
    std::sort(keys.begin(), keys.end());
    for (std::size_t i = 0; i < keep; ++i) {
      order[i] = static_cast<std::uint32_t>(keys[i].k2 & 0xffffffffULL);
    }
  }

  // Gather-encode through the permutation: the randomly ordered reads
  // stream straight into the columnar encoder, software-prefetched a few
  // records ahead to hide the permuted-access latency. Only the compressed
  // form leaves the shard.
  for (std::size_t i = 0; i < keep; ++i) {
    if (i + kGatherPrefetch < keep) {
      exec::prefetch_read(&records[order[i + kGatherPrefetch]]);
    }
    const std::size_t src = order[i];
    out.columns.push_back(records[src], directions[src]);
  }
  out.columns.shrink_to_fit();
  // Free the arrival-order copies before the window build.
  records = std::vector<FlowRecord>();
  directions = std::vector<Direction>();
  order = std::vector<std::uint32_t>();

  // Feature extraction consumes the shard's own encoded slice in SoA
  // blocks — the decode kernel, not the raw arrays, is the hot path.
  out.windows = build_windows_blocks(out.columns.view(), blacklist);
  // Shard outputs accumulate until the caller's merge; hold exact sizes,
  // not push_back growth overshoot.
  out.windows.shrink_to_fit();
  return out;
}

}  // namespace dm::netflow
