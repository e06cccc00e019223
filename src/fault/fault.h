// Deterministic fault injection for degraded-feed testing.
//
// The paper's methodology runs over collector feeds that in production are
// lossy, reordered, duplicated, and occasionally corrupt (§3 leans on
// NetFlow's 1:4096 sampling being tolerable under imperfect capture). This
// library makes every such failure mode a first-class, reproducible input:
// a FaultInjector seeded with one 64-bit value applies a declarative plan
// to serialized trace bytes (bit flips, targeted block corruption,
// mid-block truncation) or to a live record feed (duplication, bounded
// reordering, whole-minute loss bursts, stuck-clock timestamps), and
// reports exactly what damage it did. All randomness derives from the seed
// via counter-based util::Rng::split, so a plan replays identically across
// runs, platforms, and thread counts — usable in tests, benches, and the
// CLI alike.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "netflow/flow_record.h"
#include "util/rng.h"
#include "util/time.h"

namespace dm::fault {

/// Byte-level corruption plan for a serialized .dmnf trace.
struct BytePlan {
  /// Random single-bit flips anywhere in the file (header included).
  std::size_t bit_flips = 0;
  /// Flip one payload bit in each of this many distinct blocks — the
  /// CRC-detectable "one flipped bit abandons the trace" case.
  std::size_t corrupt_blocks = 0;
  /// Delete a byte span from inside each of this many distinct blocks
  /// (distinct from corrupt_blocks targets), shifting the rest of the file
  /// up — the mid-file truncation a dying collector produces.
  std::size_t truncate_blocks = 0;
  /// Chop the file at a random point inside the final block, losing the
  /// tail and the end marker.
  bool truncate_tail = false;
};

/// Ground truth of the byte damage a plan produced.
struct ByteDamage {
  // dmlint: must-use
  std::vector<std::uint64_t> flipped_offsets;   ///< post-edit file offsets
  std::vector<std::uint32_t> corrupted_blocks;  ///< indices into the clean layout
  std::vector<std::uint32_t> truncated_blocks;  ///< indices into the clean layout
  std::uint64_t bytes_removed = 0;
  bool tail_truncated = false;
};

/// Corruption plan for one spill-tier segment file (.dmseg). Segments are
/// CRC-framed whole-file units (no block structure to parse), so the plan
/// is byte-oriented: body bit flips exercise the body-CRC path, a header
/// flip the header-CRC path, and tail truncation the size check.
struct SegmentPlan {
  std::size_t bit_flips = 0;    ///< random single-bit flips in the body
  bool corrupt_header = false;  ///< flip one bit inside the 56-byte header
  bool truncate_tail = false;   ///< chop the file at a random body offset
};

/// Ground truth of the segment damage a plan produced.
struct SegmentDamage {
  // dmlint: must-use
  std::vector<std::uint64_t> flipped_offsets;  ///< absolute file offsets
  std::uint64_t bytes_removed = 0;
  bool header_corrupted = false;
  [[nodiscard]] bool any() const noexcept {
    return header_corrupted || bytes_removed > 0 || !flipped_offsets.empty();
  }
};

/// Corruption plan for one framed file (netflow/frame.h): a DMCK monitor
/// checkpoint or a DMSV supervisor book. A frame is a 6-byte header (magic
/// + version) followed by a varint-sized CRC-protected payload, so the
/// interesting failure surfaces are: payload damage (CRC path), header
/// damage (magic/version path), tail loss (size path), and the torn-write
/// prefix a crash mid-`write(2)` leaves when the file was not written
/// through the temp + fsync + rename protocol.
struct CheckpointPlan {
  std::size_t bit_flips = 0;    ///< random single-bit flips past the header
  bool corrupt_header = false;  ///< flip one bit inside the 6-byte header
  bool truncate_tail = false;   ///< chop the file at a random payload offset
  /// Replace the file with a short random prefix (shorter than the header),
  /// simulating the visible result of a torn non-atomic write.
  bool torn_prefix = false;
};

/// Ground truth of the checkpoint damage a plan produced.
struct CheckpointDamage {
  // dmlint: must-use
  std::vector<std::uint64_t> flipped_offsets;  ///< absolute file offsets
  std::uint64_t bytes_removed = 0;
  bool header_corrupted = false;
  bool torn = false;
  [[nodiscard]] bool any() const noexcept {
    return torn || header_corrupted || bytes_removed > 0 ||
           !flipped_offsets.empty();
  }
};

/// Record-level degradation plan for a live feed.
struct RecordPlan {
  /// Probability a record is emitted twice (the copy lands immediately
  /// after the original's final position).
  double duplicate_prob = 0.0;
  /// Bounded reordering: each record may be displaced by at most this many
  /// positions from its input order (0 = in order).
  std::size_t reorder_window = 0;
  /// Number of whole-minute loss bursts (collector outages) to cut.
  std::size_t loss_bursts = 0;
  /// Length of each loss burst in minutes.
  util::Minute loss_burst_minutes = 1;
  /// Probability a record repeats the previous record's timestamp instead
  /// of its own (a collector whose clock stopped advancing).
  double stuck_clock_prob = 0.0;
};

/// Ground truth of the feed degradation a plan produced.
struct RecordDamage {
  // dmlint: must-use
  std::uint64_t duplicated = 0;
  std::uint64_t displaced = 0;  ///< records whose output position changed
  std::uint64_t dropped = 0;
  std::uint64_t stuck = 0;
  /// Minute intervals [from, to) removed by loss bursts, in burst order
  /// (intervals may overlap when bursts collide).
  std::vector<std::pair<util::Minute, util::Minute>> lost_ranges;
};

/// Seed-deterministic injector. Each fault family draws from its own
/// Rng::split stream of the seed, so enabling one family never perturbs
/// another's draws and any single failure mode is reproducible in
/// isolation.
class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed) noexcept : base_(seed) {}

  /// Applies `plan` to serialized trace bytes in place. The buffer must be
  /// a well-formed trace (block targeting parses the clean layout first).
  [[nodiscard]] ByteDamage corrupt(std::vector<std::uint8_t>& bytes,
                     const BytePlan& plan) const;

  /// Applies `plan` to one segment file's bytes in place. `file_index`
  /// salts every random stream, so each file of a segment set takes
  /// distinct damage that is still individually reproducible from
  /// (seed, plan, index) — corrupting file 3 never changes what file 7
  /// would have suffered.
  [[nodiscard]] SegmentDamage corrupt_segment(std::vector<std::uint8_t>& bytes,
                                const SegmentPlan& plan,
                                std::uint64_t file_index) const;

  /// Applies `plan` to one framed file's bytes in place, with the same
  /// (seed, plan, file_index) reproducibility contract as corrupt_segment:
  /// each file of a checkpoint generation takes distinct, individually
  /// replayable damage. Files no longer than the 6-byte frame header are
  /// returned untouched (already torn).
  [[nodiscard]] CheckpointDamage corrupt_checkpoint(std::vector<std::uint8_t>& bytes,
                                      const CheckpointPlan& plan,
                                      std::uint64_t file_index) const;

  /// Returns a degraded copy of `feed`; `damage` (optional) receives the
  /// ground truth. Stages apply in order: loss bursts, stuck clocks,
  /// bounded reorder, duplication.
  [[nodiscard]] std::vector<netflow::FlowRecord> degrade(
      std::span<const netflow::FlowRecord> feed, const RecordPlan& plan,
      RecordDamage* damage = nullptr) const;

 private:
  util::Rng base_;
};

/// Thrown by KillSwitch::poll at the armed kill-point. A crash-injection
/// harness catches it at the same boundary where a real process death would
/// end execution: everything already flushed to disk stays, everything in
/// memory is lost (the harness abandons the crashed object).
class InjectedCrash : public std::runtime_error {
 public:
  explicit InjectedCrash(const std::string& what)
      : std::runtime_error(what) {}
};

/// Deterministic kill-point: arm it with a (step, occurrence) pair and pass
/// it to crash-safe multi-step protocols (the serve checkpoint rotator polls
/// it after every rotation step). poll(step) counts how many times each step
/// completed and throws InjectedCrash when the armed step reaches the armed
/// occurrence — so "crash right after the 3rd shard file rename" is a
/// reproducible test input, not a race. Fires at most once.
class KillSwitch {
 public:
  /// `occurrence` is 1-based: occurrence 1 kills at the first poll of
  /// `step`. occurrence 0 never fires (a disarmed switch).
  KillSwitch(std::uint64_t step, std::uint64_t occurrence) noexcept
      : step_(step), occurrence_(occurrence) {}

  /// Records one completion of `step`; throws InjectedCrash when this is
  /// the armed occurrence of the armed step.
  void poll(std::uint64_t step);

  [[nodiscard]] bool fired() const noexcept { return fired_; }
  /// Completions of `step` seen so far (including the fatal one).
  [[nodiscard]] std::uint64_t count(std::uint64_t step) const noexcept;

 private:
  std::uint64_t step_ = 0;
  std::uint64_t occurrence_ = 0;
  bool fired_ = false;
  std::map<std::uint64_t, std::uint64_t> counts_;
};

}  // namespace dm::fault
