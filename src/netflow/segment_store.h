// Spill tier for the columnar trace: immutable, CRC-framed, memory-mapped
// segment files plus the SpillWriter that seals them, and RecordStore — the
// one reader of encoded records, which iterates a spilled trace exactly like
// a resident one.
//
// Segment file format (little-endian, one encoded store per file):
//
//   header (56 bytes)
//     u32  magic 'DMSG'        u16 version = 1      u16 flags = 0
//     u64  records  runs  checkpoints  header_bytes  payload_bytes
//     u32  body_crc32          u32 header_crc32 (over bytes [0, 52))
//   body (starts at offset 56, which is 8-aligned)
//     run_starts    u32[runs]          (then zero-pad to 8)
//     payload_offs  u64[runs]
//     checkpoints   ColumnarCheckpoint[checkpoints]   (4 × u64 each)
//     headers       u8[header_bytes]
//     payload       u8[payload_bytes]
//
// The body is the resident ColumnarRecords representation laid out verbatim,
// so a mapped segment is decoded by the same Cursor that walks the resident
// vectors — the spill tier reuses the varint/run-length codec and the seek
// index instead of defining a second format. Every segment is self-contained
// (its first run header is encoded relative to (0, 0)), which is what makes
// the decoded concatenation of segments byte-identical to the resident
// store the same shards would have produced, and what lets salvage drop a
// damaged segment without poisoning its successors.
//
// mmap lifetime: segments are mapped on demand, one at a time per cursor —
// a streaming pass holds exactly one mapping and drops it on segment
// advance. The store itself keeps its most recently mapped segment, so the
// ranges of consecutive windows in one segment share one mapping instead of
// mapping the file per range. File-backed RSS is therefore bounded by
// ((live cursors + 1) × segment size) regardless of trace size. Both CRCs
// are verified once at open()/salvage(); cursors trust files after that.
//
// Salvage contract (the dmnf `verify` path, PR 4): salvage() inspects every
// *.dmseg in name order and returns the store over the valid ones plus a
// ledger entry per file — damaged segments lose only their own records, and
// the recovered store re-bases record indices over the survivors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "netflow/columnar_records.h"
#include "netflow/spill_policy.h"

namespace dm::netflow {

/// Fixed segment header size; the body starts here, 8-aligned.
inline constexpr std::size_t kSegmentHeaderBytes = 56;

/// The segment header's variable fields — the decode geometry a reader must
/// restore before it can interpret the body.
struct SegmentMeta {
  // dmlint: checkpointed
  std::uint64_t records = 0;       ///< decoded record count
  std::uint64_t runs = 0;          ///< run_starts / payload_offs entries
  std::uint64_t checkpoints = 0;   ///< checkpoint entries
  std::uint64_t header_bytes = 0;  ///< run-header stream length
  std::uint64_t payload_bytes = 0; ///< payload stream length
};

/// Writes `store`'s encoded arrays to `path` in the segment format above.
/// Throws dm::Error on I/O failure. Exposed for the round-trip tests;
/// normal writes go through SpillWriter.
void write_segment_file(const std::string& path, const ColumnarRecords& store);

/// Per-file verdict of a structural segment inspection.
enum class SegmentFileStatus : std::uint8_t {
  kOk,
  kBadHeader,    ///< magic/version/header-CRC/geometry/size mismatch
  kTruncated,    ///< file shorter than the header's geometry implies
  kBodyCorrupt,  ///< structure fine, body CRC mismatch
};

/// One mapped segment file. Obtained from SegmentStore::map_segment(); the
/// mapping lives exactly as long as the last shared_ptr to it (cursors drop
/// theirs when they advance past the segment, the store when it maps
/// another — which is what keeps streaming RSS flat).
class MappedSegment {
 public:
  /// Outcome of try_map(): `segment` is null unless status == kOk.
  /// `header_records` is trustworthy whenever the header CRC passed (so a
  /// truncated file still reports how many records it lost).
  struct MapAttempt {
    std::shared_ptr<const MappedSegment> segment;
    SegmentFileStatus status = SegmentFileStatus::kOk;
    std::string detail;
    std::uint64_t file_bytes = 0;
    std::uint64_t header_records = 0;
  };

  MappedSegment(const MappedSegment&) = delete;
  MappedSegment& operator=(const MappedSegment&) = delete;
  ~MappedSegment();

  /// Maps `path` and validates the structural header (magic, version,
  /// header CRC, exact file size). Does NOT check the body CRC — that is a
  /// full-file read, paid once at SegmentStore::open()/salvage().
  /// Throws dm::FormatError on any mismatch.
  [[nodiscard]] static std::shared_ptr<const MappedSegment> map(
      const std::string& path);

  /// Non-throwing variant of map() reporting the per-file verdict — the
  /// salvage scanner's entry point.
  [[nodiscard]] static MapAttempt try_map(const std::string& path);

  [[nodiscard]] const SegmentMeta& meta() const noexcept { return meta_; }
  [[nodiscard]] const ColumnarView& view() const noexcept { return view_; }
  [[nodiscard]] std::uint64_t file_bytes() const noexcept {
    return file_bytes_;
  }
  /// True when the body bytes hash to the header's body CRC.
  [[nodiscard]] bool body_crc_ok() const noexcept;

 private:
  MappedSegment() = default;

  const std::uint8_t* base_ = nullptr;  ///< mmap base (whole file)
  std::size_t file_bytes_ = 0;
  SegmentMeta meta_;
  ColumnarView view_;
  std::uint32_t body_crc_ = 0;  ///< stored body CRC from the header
};

/// An ordered set of segment files forming one logical record store.
class SegmentStore {
 public:
  struct Segment {
    std::string path;
    std::uint64_t first_record = 0;  ///< global index of this segment's record 0
    std::uint64_t records = 0;
    std::uint64_t file_bytes = 0;
  };

  using FileStatus = SegmentFileStatus;

  /// One ledger line per *.dmseg file inspected, in file-name order.
  struct LedgerEntry {
    std::string path;
    FileStatus status = FileStatus::kOk;
    std::uint64_t file_bytes = 0;  ///< on-disk size
    std::uint64_t records = 0;     ///< header's record count (0 if unreadable)
    std::string detail;            ///< reason when status != kOk
  };

  /// Damage ledger from salvage(): exact per-file outcomes plus totals.
  struct SalvageReport {
    // dmlint: must-use
    std::vector<LedgerEntry> entries;
    std::uint64_t segments_recovered = 0;
    std::uint64_t segments_damaged = 0;
    std::uint64_t records_recovered = 0;
    std::uint64_t records_lost = 0;  ///< from damaged headers when readable
    [[nodiscard]] bool clean() const noexcept { return segments_damaged == 0; }
  };

  SegmentStore() = default;
  // The mapping slot is a cache: a move hands over the segment table and
  // leaves both stores' slots empty.
  SegmentStore(SegmentStore&& other) noexcept;
  SegmentStore& operator=(SegmentStore&& other) noexcept;

  /// Opens every *.dmseg under `directory` (file-name order), verifying both
  /// CRCs of every file. Throws dm::FormatError on the first damaged file.
  [[nodiscard]] static SegmentStore open(const std::string& directory);

  /// Degraded-mode open: keeps every valid segment, records every damaged
  /// one in the ledger, never throws on damage. Record indices re-base over
  /// the surviving segments.
  [[nodiscard]] static std::pair<SegmentStore, SalvageReport> salvage(
      const std::string& directory);

  [[nodiscard]] std::size_t segment_count() const noexcept {
    return segments_.size();
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(total_records_);
  }
  [[nodiscard]] const std::vector<Segment>& segments() const noexcept {
    return segments_;
  }
  /// Sum of on-disk segment sizes — the spilled analogue of
  /// ColumnarRecords::encoded_bytes().
  [[nodiscard]] std::uint64_t file_bytes() const noexcept;

  /// Segment `i`'s mapping (structural validation only — see
  /// MappedSegment::map). Reuses the store's most recent mapping when it is
  /// segment `i`, else maps the file and keeps that mapping instead.
  /// Thread-safe.
  [[nodiscard]] std::shared_ptr<const MappedSegment> map_segment(
      std::size_t i) const;

  /// Index of the segment containing global `record_index` (< size()).
  [[nodiscard]] std::size_t segment_containing(
      std::size_t record_index) const noexcept;

 private:
  friend class SpillWriter;

  std::vector<Segment> segments_;
  std::uint64_t total_records_ = 0;

  mutable std::mutex map_mu_;
  // dmlint: guarded-by(map_mu_)
  mutable std::shared_ptr<const MappedSegment> recent_map_;
  // dmlint: guarded-by(map_mu_)
  mutable std::size_t recent_map_index_ = 0;  ///< segment recent_map_ maps
};

/// The one reader of encoded records: either a resident ColumnarRecords or
/// a spilled SegmentStore, behind one Range API — WindowedTrace::records_of
/// and its consumers (the mitigation engine, the analysis exhibits) iterate
/// the same way in both modes.
class RecordStore {
 public:
  class Cursor;
  class Range;

  RecordStore() = default;
  explicit RecordStore(ColumnarRecords resident)
      : resident_(std::move(resident)) {}
  explicit RecordStore(SegmentStore segments)
      : segments_(std::move(segments)), spilled_(true) {}

  [[nodiscard]] bool spilled() const noexcept { return spilled_; }
  [[nodiscard]] std::size_t size() const noexcept {
    return spilled_ ? segments_.size() : resident_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Encoded footprint: resident bytes in RAM mode, on-disk bytes in spill
  /// mode — the bench's bytes/record numerator either way.
  [[nodiscard]] std::uint64_t encoded_bytes() const noexcept {
    return spilled_ ? segments_.file_bytes() : resident_.encoded_bytes();
  }

  [[nodiscard]] const ColumnarRecords& resident() const noexcept {
    return resident_;
  }
  [[nodiscard]] const SegmentStore& segments() const noexcept {
    return segments_;
  }

  /// Decoded view of records [first, last) (clamped to size()). Not
  /// noexcept: mapping a segment can fail (mmap exhaustion).
  [[nodiscard]] Range range(std::size_t first, std::size_t last) const;
  [[nodiscard]] Range all() const;

  /// Streaming decoder across segment boundaries over
  /// ColumnarRecords::Cursor; holds at most one segment mapping and
  /// releases it on advance (and on exhaustion).
  class Cursor {
   public:
    Cursor() = default;

    bool next() {
      if (inner_.next()) return true;
      return advance_segment();
    }

    [[nodiscard]] const FlowRecord& record() const noexcept {
      return inner_.record();
    }
    [[nodiscard]] Direction direction() const noexcept {
      return inner_.direction();
    }
    /// Global index (into the whole store) of the record `record()` holds.
    [[nodiscard]] std::size_t index() const noexcept {
      return base_ + inner_.index();
    }

   private:
    friend class RecordStore;

    bool advance_segment();

    ColumnarRecords::Cursor inner_;
    const SegmentStore* store_ = nullptr;  ///< null in resident mode
    std::shared_ptr<const MappedSegment> mapped_;
    std::size_t next_segment_ = 0;  ///< next segment index to map
    std::size_t base_ = 0;   ///< global index of the inner view's record 0
    std::size_t limit_ = 0;  ///< global one-past-last record to decode
  };

  /// Iterable decoded view; `for (const FlowRecord& r : range)` works as
  /// over a std::span<const FlowRecord>. The iterator is a single-pass
  /// input iterator (each begin() starts a fresh pass) that also exposes
  /// the record's direction() and global index().
  class Range {
   public:
    class iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using value_type = FlowRecord;
      using difference_type = std::ptrdiff_t;
      using pointer = const FlowRecord*;
      using reference = const FlowRecord&;

      iterator() = default;

      [[nodiscard]] reference operator*() const noexcept {
        return cursor_.record();
      }
      [[nodiscard]] pointer operator->() const noexcept {
        return &cursor_.record();
      }
      [[nodiscard]] Direction direction() const noexcept {
        return cursor_.direction();
      }
      [[nodiscard]] std::size_t index() const noexcept {
        return cursor_.index();
      }

      iterator& operator++() {
        at_end_ = !cursor_.next();
        return *this;
      }
      iterator operator++(int) {
        iterator copy = *this;
        ++*this;
        return copy;
      }

      friend bool operator==(const iterator& a, const iterator& b) noexcept {
        if (a.at_end_ || b.at_end_) return a.at_end_ == b.at_end_;
        return a.cursor_.index() == b.cursor_.index();
      }

     private:
      friend class Range;
      explicit iterator(const Cursor& cursor) : cursor_(cursor) {
        at_end_ = !cursor_.next();
      }

      Cursor cursor_;
      bool at_end_ = true;
    };

    Range() = default;

    [[nodiscard]] iterator begin() const noexcept { return iterator(first_); }
    [[nodiscard]] iterator end() const noexcept { return iterator(); }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

   private:
    friend class RecordStore;
    Range(const Cursor& first, std::size_t size) : first_(first), size_(size) {}

    Cursor first_;  ///< unprimed cursor at the range start
    std::size_t size_ = 0;
  };

 private:
  /// Cursor positioned before global `record_index`, decoding to size().
  [[nodiscard]] Cursor cursor_at(std::size_t record_index) const;

  ColumnarRecords resident_;
  SegmentStore segments_;  ///< empty unless spilled_
  bool spilled_ = false;
};

/// Accumulates shard stores in index order and seals the pending store into
/// a segment file once its encoded bytes reach
/// clamp(ram_budget_bytes / 2, 1 MiB, 64 MiB) (see spill_policy.h).
/// finish() returns a resident RecordStore when nothing was sealed (zero
/// spill waves), else the spilled one — callers never branch on which
/// regime a run landed in.
class SpillWriter {
 public:
  /// Creates the spill directory and removes any stale *.dmseg files in it.
  explicit SpillWriter(const SpillConfig& config);

  /// Appends one completed shard (same re-encoding rules as
  /// ColumnarRecords::append) and seals the pending store to disk once it
  /// reaches the seal threshold.
  void append(ColumnarRecords&& shard);

  [[nodiscard]] RecordStore finish() &&;

 private:
  void seal();

  std::string directory_;
  std::uint64_t seal_bytes_;  ///< encoded bytes at which pending_ seals
  ColumnarRecords pending_;
  SegmentStore store_;
};

}  // namespace dm::netflow
