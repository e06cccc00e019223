#include "fault/fault.h"

#include <algorithm>
#include <numeric>
#include <tuple>

#include "netflow/frame.h"
#include "netflow/segment_store.h"
#include "netflow/trace_io.h"

namespace dm::fault {

using netflow::FlowRecord;
using netflow::kFrameHeaderBytes;
using netflow::kSegmentHeaderBytes;

namespace {

// Rng::split stream indices, one per fault family. Fixed constants keep a
// family's draws identical whether or not other families are enabled.
constexpr std::uint64_t kPickStream = 0;      // block target selection
constexpr std::uint64_t kCorruptStream = 1;   // in-block bit flips
constexpr std::uint64_t kTruncateStream = 2;  // in-block byte removal
constexpr std::uint64_t kFlipStream = 3;      // free bit flips
constexpr std::uint64_t kLossStream = 16;     // minute loss bursts
constexpr std::uint64_t kStuckStream = 17;    // stuck-clock timestamps
constexpr std::uint64_t kReorderStream = 18;  // bounded reordering
constexpr std::uint64_t kDupStream = 19;      // record duplication
constexpr std::uint64_t kSegFlipStream = 32;      // segment body bit flips
constexpr std::uint64_t kSegHeaderStream = 33;    // segment header flip
constexpr std::uint64_t kSegTruncateStream = 34;  // segment tail chop
constexpr std::uint64_t kCkptFlipStream = 48;      // checkpoint payload flips
constexpr std::uint64_t kCkptHeaderStream = 49;    // checkpoint header flip
constexpr std::uint64_t kCkptTruncateStream = 50;  // checkpoint tail chop
constexpr std::uint64_t kCkptTornStream = 51;      // torn-write prefix

}  // namespace

ByteDamage FaultInjector::corrupt(std::vector<std::uint8_t>& bytes,
                                  const BytePlan& plan) const {
  ByteDamage damage;
  const auto layout = netflow::trace_layout(bytes);

  // Choose distinct targets for corruption and truncation from one
  // shuffled index list so the two families never hit the same block. The
  // final block is reserved for tail truncation when that is requested.
  std::vector<std::uint32_t> candidates(layout.size());
  std::iota(candidates.begin(), candidates.end(), 0u);
  if (plan.truncate_tail && !candidates.empty()) candidates.pop_back();
  util::Rng pick_rng = base_.split(kPickStream);
  pick_rng.shuffle(candidates);

  const auto corrupt_count = static_cast<std::ptrdiff_t>(
      std::min(plan.corrupt_blocks, candidates.size()));
  const auto truncate_count = static_cast<std::ptrdiff_t>(std::min(
      plan.truncate_blocks,
      candidates.size() - static_cast<std::size_t>(corrupt_count)));
  damage.corrupted_blocks.assign(candidates.begin(),
                                 candidates.begin() + corrupt_count);
  damage.truncated_blocks.assign(
      candidates.begin() + corrupt_count,
      candidates.begin() + corrupt_count + truncate_count);
  std::sort(damage.corrupted_blocks.begin(), damage.corrupted_blocks.end());
  std::sort(damage.truncated_blocks.begin(), damage.truncated_blocks.end());

  // In-block bit flips happen while the clean layout's offsets are still
  // valid (nothing has shifted yet).
  util::Rng corrupt_rng = base_.split(kCorruptStream);
  for (const std::uint32_t index : damage.corrupted_blocks) {
    const netflow::BlockSpan& block = layout[index];
    const std::uint64_t offset =
        block.payload_offset + corrupt_rng.below(block.payload_size);
    bytes[offset] ^= static_cast<std::uint8_t>(1u << corrupt_rng.below(8));
  }

  // Tail truncation resizes only — no offsets shift.
  if (plan.truncate_tail && !layout.empty()) {
    const netflow::BlockSpan& last = layout.back();
    util::Rng tail_rng = base_.split(kTruncateStream).split(~0ull);
    const std::uint64_t cut =
        last.offset + 1 + tail_rng.below(last.size - 1);
    damage.bytes_removed += bytes.size() - cut;
    damage.tail_truncated = true;
    bytes.resize(cut);
  }

  // Mid-file truncation: draw each cut against the clean layout, then
  // apply highest-offset first so earlier cuts stay valid.
  util::Rng truncate_rng = base_.split(kTruncateStream);
  struct Cut {
    std::uint64_t start = 0;
    std::uint64_t length = 0;
  };
  std::vector<Cut> cuts;
  cuts.reserve(damage.truncated_blocks.size());
  for (const std::uint32_t index : damage.truncated_blocks) {
    const netflow::BlockSpan& block = layout[index];
    const std::uint64_t rel = truncate_rng.below(block.payload_size);
    const std::uint64_t length =
        1 + truncate_rng.below(block.payload_size - rel);
    cuts.push_back({block.payload_offset + rel, length});
  }
  std::sort(cuts.begin(), cuts.end(), [](const Cut& a, const Cut& b) {
    return std::tie(a.start, a.length) > std::tie(b.start, b.length);
  });
  for (const Cut& cut : cuts) {
    bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(cut.start),
                bytes.begin() + static_cast<std::ptrdiff_t>(cut.start + cut.length));
    damage.bytes_removed += cut.length;
  }

  // Free-roaming bit flips act on the final buffer; offsets are post-edit.
  util::Rng flip_rng = base_.split(kFlipStream);
  for (std::size_t i = 0; i < plan.bit_flips && !bytes.empty(); ++i) {
    const std::uint64_t offset = flip_rng.below(bytes.size());
    bytes[offset] ^= static_cast<std::uint8_t>(1u << flip_rng.below(8));
    damage.flipped_offsets.push_back(offset);
  }
  return damage;
}

SegmentDamage FaultInjector::corrupt_segment(std::vector<std::uint8_t>& bytes,
                                             const SegmentPlan& plan,
                                             std::uint64_t file_index) const {
  SegmentDamage damage;
  if (bytes.size() <= kSegmentHeaderBytes) return damage;

  // Tail truncation first: flips then act on the surviving prefix, so the
  // ledger's flipped offsets always point at bytes that exist on disk.
  if (plan.truncate_tail) {
    util::Rng rng = base_.split(kSegTruncateStream).split(file_index);
    const std::uint64_t body = bytes.size() - kSegmentHeaderBytes;
    const std::size_t cut =
        kSegmentHeaderBytes + static_cast<std::size_t>(rng.below(body));
    damage.bytes_removed = bytes.size() - cut;
    bytes.resize(cut);
  }

  // Body bit flips: offsets land past the header, so the header CRC stays
  // intact and the damage is attributable to the body CRC alone.
  if (bytes.size() > kSegmentHeaderBytes) {
    util::Rng rng = base_.split(kSegFlipStream).split(file_index);
    const std::uint64_t body = bytes.size() - kSegmentHeaderBytes;
    for (std::size_t i = 0; i < plan.bit_flips; ++i) {
      const std::uint64_t offset = kSegmentHeaderBytes + rng.below(body);
      bytes[offset] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      damage.flipped_offsets.push_back(offset);
    }
  }

  // Header flip last: independent of body damage by construction.
  if (plan.corrupt_header) {
    util::Rng rng = base_.split(kSegHeaderStream).split(file_index);
    const std::uint64_t offset = rng.below(kSegmentHeaderBytes);
    bytes[offset] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    damage.header_corrupted = true;
  }
  return damage;
}

CheckpointDamage FaultInjector::corrupt_checkpoint(
    std::vector<std::uint8_t>& bytes, const CheckpointPlan& plan,
    std::uint64_t file_index) const {
  CheckpointDamage damage;
  if (bytes.size() <= kFrameHeaderBytes) return damage;

  // Torn prefix replaces the whole file: no other family can act after it
  // (a torn write leaves nothing else to damage), so it goes first and
  // returns early.
  if (plan.torn_prefix) {
    util::Rng rng = base_.split(kCkptTornStream).split(file_index);
    const std::size_t keep =
        static_cast<std::size_t>(rng.below(kFrameHeaderBytes));
    damage.bytes_removed = bytes.size() - keep;
    damage.torn = true;
    bytes.resize(keep);
    return damage;
  }

  // Tail truncation before flips, mirroring corrupt_segment: flip offsets
  // in the ledger always point at bytes that survive on disk.
  if (plan.truncate_tail) {
    util::Rng rng = base_.split(kCkptTruncateStream).split(file_index);
    const std::uint64_t payload = bytes.size() - kFrameHeaderBytes;
    const std::size_t cut =
        kFrameHeaderBytes + static_cast<std::size_t>(rng.below(payload));
    damage.bytes_removed = bytes.size() - cut;
    bytes.resize(cut);
  }

  // Payload bit flips: offsets land past the header so the damage is
  // attributable to the payload CRC alone.
  if (bytes.size() > kFrameHeaderBytes && plan.bit_flips > 0) {
    util::Rng rng = base_.split(kCkptFlipStream).split(file_index);
    const std::uint64_t payload = bytes.size() - kFrameHeaderBytes;
    for (std::size_t i = 0; i < plan.bit_flips; ++i) {
      const std::uint64_t offset = kFrameHeaderBytes + rng.below(payload);
      bytes[offset] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      damage.flipped_offsets.push_back(offset);
    }
  }

  // Header flip last: independent of payload damage by construction.
  if (plan.corrupt_header) {
    util::Rng rng = base_.split(kCkptHeaderStream).split(file_index);
    const std::uint64_t offset = rng.below(kFrameHeaderBytes);
    bytes[offset] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    damage.header_corrupted = true;
  }
  return damage;
}

void KillSwitch::poll(std::uint64_t step) {
  const std::uint64_t seen = ++counts_[step];
  if (!fired_ && occurrence_ != 0 && step == step_ && seen == occurrence_) {
    fired_ = true;
    throw InjectedCrash("injected crash at step " + std::to_string(step) +
                        " occurrence " + std::to_string(seen));
  }
}

std::uint64_t KillSwitch::count(std::uint64_t step) const noexcept {
  const auto it = counts_.find(step);
  return it == counts_.end() ? 0 : it->second;
}

std::vector<FlowRecord> FaultInjector::degrade(
    std::span<const FlowRecord> feed, const RecordPlan& plan,
    RecordDamage* damage) const {
  RecordDamage local;
  RecordDamage& dmg = damage != nullptr ? *damage : local;
  dmg = RecordDamage{};
  std::vector<FlowRecord> work(feed.begin(), feed.end());

  // 1. Loss bursts: whole-minute collector outages.
  if (plan.loss_bursts > 0 && !work.empty()) {
    util::Rng rng = base_.split(kLossStream);
    util::Minute lo = work.front().minute;
    util::Minute hi = lo;
    for (const FlowRecord& r : work) {
      lo = std::min(lo, r.minute);
      hi = std::max(hi, r.minute);
    }
    const util::Minute burst_len = std::max<util::Minute>(1, plan.loss_burst_minutes);
    for (std::size_t b = 0; b < plan.loss_bursts; ++b) {
      const util::Minute start =
          lo + static_cast<util::Minute>(
                   rng.below(static_cast<std::uint64_t>(hi - lo + 1)));
      dmg.lost_ranges.emplace_back(start, start + burst_len);
    }
    const auto lost = [&](const FlowRecord& r) {
      for (const auto& [from, to] : dmg.lost_ranges) {
        if (r.minute >= from && r.minute < to) return true;
      }
      return false;
    };
    const std::size_t before = work.size();
    std::erase_if(work, lost);
    dmg.dropped = before - work.size();
  }

  // 2. Stuck clocks: a record repeats its predecessor's (possibly already
  // stuck) timestamp, so consecutive draws freeze the clock at one minute.
  if (plan.stuck_clock_prob > 0.0 && work.size() > 1) {
    util::Rng rng = base_.split(kStuckStream);
    for (std::size_t i = 1; i < work.size(); ++i) {
      if (!rng.chance(plan.stuck_clock_prob)) continue;
      if (work[i].minute != work[i - 1].minute) {
        work[i].minute = work[i - 1].minute;
        ++dmg.stuck;
      }
    }
  }

  // 3. Bounded reorder: sort by (input index + delay) with delays in
  // [0, window]; the classic construction bounds displacement by the
  // window in both directions.
  if (plan.reorder_window > 0 && work.size() > 1) {
    util::Rng rng = base_.split(kReorderStream);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> keys(work.size());
    for (std::size_t i = 0; i < work.size(); ++i) {
      keys[i] = {i + rng.below(plan.reorder_window + 1), i};
    }
    std::sort(keys.begin(), keys.end());  // ties break on input index
    std::vector<FlowRecord> shuffled;
    shuffled.reserve(work.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i].second != i) ++dmg.displaced;
      shuffled.push_back(work[keys[i].second]);
    }
    work = std::move(shuffled);
  }

  // 4. Duplication: the copy lands immediately after the original.
  if (plan.duplicate_prob > 0.0) {
    util::Rng rng = base_.split(kDupStream);
    std::vector<FlowRecord> out;
    out.reserve(work.size() + work.size() / 8);
    for (const FlowRecord& r : work) {
      out.push_back(r);
      if (rng.chance(plan.duplicate_prob)) {
        out.push_back(r);
        ++dmg.duplicated;
      }
    }
    work = std::move(out);
  }
  return work;
}

}  // namespace dm::fault
