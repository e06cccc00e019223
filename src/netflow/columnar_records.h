// Columnar compressed storage for the aggregated trace's oriented records.
//
// The canonical record order — (vip, direction, minute, remote, arrival
// index) — makes the kept-record stream extremely regular: (vip, direction,
// minute) is constant across each window's run of records and remote IPs
// ascend within a run. ColumnarRecords exploits that:
//
//   headers_        one entry per run: zigzag-varint delta of the packed
//                   (vip << 1 | direction) key and of the minute, each
//                   relative to the previous run (wraparound arithmetic, so
//                   any ingested minute round-trips exactly).
//   payload_        per record: the remote IP (absolute varint at the run
//                   start, zigzag delta inside the run) followed by varint
//                   src_port, dst_port, protocol, tcp_flags, packets, bytes.
//   run_starts_     record index of each run's first record (run lengths are
//                   implicit); payload_offs_ holds each run's payload byte
//                   offset. Together they give O(log runs) seek to any
//                   window's first_record.
//   checkpoints_    absolute (key, minute, header offset) every
//                   kCheckpointRuns runs, so a seek decodes at most that
//                   many run headers before streaming.
//
// At paper scale this keeps ~21M records in ~0.3 GiB where the
// array-of-structs form (40-byte FlowRecord + 1-byte Direction per record)
// needed ~0.85 GiB, and decoding is a zero-allocation forward scan over
// dense bytes. See DESIGN.md §5c for the full layout rationale.
//
// Stores are built shard-locally and concatenated in shard order, all at
// once by concat() or one at a time by append(); both lay out the same
// bytes, and the *decoded* sequence is byte-identical for any thread count
// (the internal buffer layout may differ — e.g. checkpoint spacing — which
// is why equivalence is defined on decoded records, windows, and exhibit
// outputs, all locked down by tests).
//
// This file is the codec: the encoder, the borrowed view, seek(), and the
// two decoders (Cursor, BlockCursor). Decoded-record ranges over a whole
// trace — resident or spilled — are RecordStore's (segment_store.h).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "netflow/flow_record.h"
#include "netflow/varint.h"

namespace dm::exec {
class ThreadPool;
}

namespace dm::netflow {

/// Absolute decode state captured every kCheckpointRuns runs so a seek
/// decodes a bounded number of run headers. Fixed-width POD — segment files
/// store checkpoint arrays verbatim (see segment_store.h).
struct ColumnarCheckpoint {
  std::uint64_t run = 0;          ///< run this checkpoint describes
  std::uint64_t next_header = 0;  ///< headers offset just past its header
  std::uint64_t key = 0;          ///< absolute (vip << 1) | direction
  std::uint64_t minute = 0;       ///< absolute minute (wraparound u64)
};

static_assert(sizeof(ColumnarCheckpoint) == 32,
              "segment files store checkpoints verbatim");

/// Non-owning view over one encoded store: the five arrays plus the record
/// count. A Cursor decodes through a view, so the same streaming decoder
/// serves both the resident vectors (ColumnarRecords::view()) and the
/// memory-mapped segment files of the spill tier. Pointers are borrowed —
/// valid only while the backing store is alive and unmodified.
struct ColumnarView {
  const std::uint8_t* headers = nullptr;
  const std::uint8_t* payload = nullptr;
  const std::uint32_t* run_starts = nullptr;
  const std::uint64_t* payload_offs = nullptr;
  const ColumnarCheckpoint* checkpoints = nullptr;
  std::size_t runs = 0;
  std::size_t checkpoint_count = 0;
  std::size_t records = 0;
  // Encoded byte extents. The BlockCursor's SWAR kernels read 8-byte words,
  // so they need to know where each buffer ends to budget kSwarRecordSlack
  // and fall back to the scalar decoder near the tail. Zero extents are
  // safe (every decode takes the scalar path) but defeat the fast path.
  std::size_t header_bytes = 0;
  std::size_t payload_bytes = 0;
};

/// One SoA batch of up to kCapacity decoded records — the unit the block
/// decode pipeline hands to aggregation and detection. The run-constant
/// columns (vip, direction, minute) are expanded per row so consumers index
/// them uniformly; run_mask marks which rows begin a run so window builders
/// can skip per-row boundary checks. Blocks are caller-owned scratch,
/// reused across next() calls (~2.3 KiB, L1-resident); every field of rows
/// [0, count) is overwritten by each fill, so reuse leaks nothing across
/// calls.
struct DecodedBlock {
  static constexpr std::size_t kCapacity = 64;

  std::uint32_t vip[kCapacity];
  std::uint8_t direction[kCapacity];  ///< Direction as its underlying value
  util::Minute minute[kCapacity];
  std::uint32_t remote[kCapacity];
  std::uint16_t src_port[kCapacity];
  std::uint16_t dst_port[kCapacity];
  std::uint8_t protocol[kCapacity];   ///< Protocol as its underlying value
  std::uint8_t tcp_flags[kCapacity];  ///< TcpFlags as its underlying value
  std::uint32_t packets[kCapacity];
  std::uint64_t bytes[kCapacity];

  std::size_t count = 0;       ///< rows decoded by the last next()
  std::size_t base_index = 0;  ///< view-global record index of row 0
  std::uint64_t run_mask = 0;  ///< bit i set iff row i is its run's first record
};

class ColumnarRecords {
 public:
  class Cursor;
  class BlockCursor;

  ColumnarRecords() = default;

  /// Appends one oriented record. Consecutive records sharing
  /// (vip, direction, minute) extend the current run; the canonical sort
  /// makes runs long and remote deltas small, but any sequence — sorted or
  /// not — round-trips exactly.
  void push_back(const FlowRecord& record, Direction direction);

  /// Appends another store's records after this one's, one store at a
  /// time (SpillWriter's step). Indices and offsets are rebased in bulk;
  /// only the first run header of `other` is re-encoded. `other` is left
  /// empty.
  void append(ColumnarRecords&& other);

  /// Concatenates `parts` in order into one store with exactly sized
  /// buffers — the resident shard merge. Its bytes and encoder state equal
  /// those of appending the parts one by one to an empty store: prefix sums
  /// over the parts place each one, and the same rebase as append() copies
  /// it into place. `pool` (may be null = serial) faults in the buffers'
  /// pages and runs the copies; each part is freed by the task that copied
  /// it, so every part is left empty.
  [[nodiscard]] static ColumnarRecords concat(exec::ThreadPool* pool,
                                              std::span<ColumnarRecords> parts);

  void shrink_to_fit();

  /// Current buffer sizes: what concat() sums to size its buffers exactly,
  /// and what a segment file records.
  struct BufferSizes {
    std::uint64_t header_bytes = 0;
    std::uint64_t payload_bytes = 0;
    std::size_t runs = 0;
    std::size_t checkpoints = 0;
  };
  [[nodiscard]] BufferSizes buffer_sizes() const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t run_count() const noexcept {
    return run_starts_.size();
  }

  /// Resident bytes of the encoded representation (payload + run headers +
  /// seek index) — the bench's encoded-bytes/record numerator.
  [[nodiscard]] std::uint64_t encoded_bytes() const noexcept;

  /// Borrowed view of the encoded arrays — invalidated by any mutation
  /// (push_back/append/shrink_to_fit) exactly like vector iterators.
  [[nodiscard]] ColumnarView view() const noexcept {
    return ColumnarView{headers_.data(),      payload_.data(),
                        run_starts_.data(),   payload_offs_.data(),
                        checkpoints_.data(),  run_starts_.size(),
                        checkpoints_.size(),  size_,
                        headers_.size(),      payload_.size()};
  }

  /// Cursor positioned before `record_index` of `view` (pass view.records
  /// for an exhausted cursor) — the one seek, for resident stores and
  /// mapped segments alike. Seek cost: two binary searches plus at most
  /// kCheckpointRuns - 1 header decodes (a checkpoint captures the decode
  /// state just *past* its own run's header, so only the runs after it, up
  /// to the next checkpoint, are re-decoded; append() preserves the <= 64
  /// run spacing) plus a skip-decode of earlier records in the same run —
  /// O(1) when the index is a run start, as every window's first_record is.
  [[nodiscard]] static Cursor seek(const ColumnarView& view,
                                   std::size_t record_index) noexcept;

  /// Streaming decoder. next() materializes one record at a time into
  /// internal storage — no allocation, the references stay valid until the
  /// following next(). RecordStore's cursor decodes through it, and it is
  /// BlockCursor's differential oracle.
  class Cursor {
   public:
    Cursor() = default;

    /// Decodes the next record; false once the range is exhausted (the
    /// cursor then stays exhausted).
    bool next() noexcept;

    [[nodiscard]] const FlowRecord& record() const noexcept { return record_; }
    [[nodiscard]] Direction direction() const noexcept { return direction_; }
    /// Index (into the whole store) of the record `record()` holds.
    [[nodiscard]] std::size_t index() const noexcept { return next_index_ - 1; }

    /// Rewinds onto `view` at its first record, decoding at most `limit`
    /// records. Every store's first run header is encoded relative to
    /// (0, 0), so this needs no checkpoint walk — it is how spill-tier
    /// cursors hop across segment views.
    void reset(const ColumnarView& view, std::size_t limit) noexcept {
      view_ = view;
      next_index_ = 0;
      limit_ = limit < view.records ? limit : view.records;
      run_ = static_cast<std::size_t>(-1);  // ++run_ in next() lands on 0
      run_end_ = 0;
      header_pos_ = 0;
      payload_pos_ = 0;
      key_ = 0;
      minute_ = 0;
      remote_ = 0;
    }

    /// Tightens the decode limit to at most `limit` (view-local index).
    void clip(std::size_t limit) noexcept {
      if (limit < limit_) limit_ = limit;
    }

   private:
    friend class ColumnarRecords;

    ColumnarView view_;
    std::size_t next_index_ = 0;  ///< record decoded by the next next()
    std::size_t limit_ = 0;       ///< one past the last record to decode
    std::size_t run_ = 0;         ///< run containing next_index_
    std::size_t run_end_ = 0;     ///< first record index past run_
    std::size_t header_pos_ = 0;  ///< headers_ offset of run_ + 1's header
    std::size_t payload_pos_ = 0;
    std::uint64_t key_ = 0;       ///< (vip << 1) | direction of run_
    std::uint64_t minute_ = 0;    ///< run_'s minute, wraparound u64
    std::uint32_t remote_ = 0;
    FlowRecord record_;
    Direction direction_ = Direction::kInbound;
  };

  /// Batch streaming decoder: fills a caller-owned DecodedBlock with up to
  /// DecodedBlock::kCapacity records per next() call. Decodes the same
  /// state machine as Cursor — run headers on run boundaries, absolute
  /// remote at run starts, zigzag deltas inside — but amortizes it per run
  /// segment and decodes payload fields with the SWAR varint kernel while
  /// at least kSwarRecordSlack encoded bytes remain (scalar tail
  /// otherwise). Cursor is the differential oracle: for any view and limit
  /// the concatenated blocks are byte-identical to the Cursor stream.
  ///
  /// BlockCursor has no seek: it enters a store only through reset(), at
  /// the store's first record — build_windows_blocks decodes whole shard
  /// stores front to back. Seeks are Cursor's (seek()).
  class BlockCursor {
   public:
    BlockCursor() = default;

    /// Rewinds onto `view` at its first record, decoding at most `limit`
    /// records — same contract as Cursor::reset().
    void reset(const ColumnarView& view, std::size_t limit) noexcept {
      view_ = view;
      next_index_ = 0;
      limit_ = limit < view.records ? limit : view.records;
      run_ = static_cast<std::size_t>(-1);
      run_end_ = 0;
      header_pos_ = 0;
      payload_pos_ = 0;
      key_ = 0;
      minute_ = 0;
      remote_ = 0;
    }

    /// Fills `out` with the next block; false (with out.count == 0) once
    /// the bound range is exhausted.
    bool next(DecodedBlock& out) noexcept;

   private:
    ColumnarView view_;
    std::size_t next_index_ = 0;
    std::size_t limit_ = 0;
    std::size_t run_ = 0;
    std::size_t run_end_ = 0;
    std::size_t header_pos_ = 0;
    std::size_t payload_pos_ = 0;
    std::uint64_t key_ = 0;
    std::uint64_t minute_ = 0;
    std::uint32_t remote_ = 0;
  };

 private:
  /// Checkpoint spacing: bounds both the seek's header-decode walk and the
  /// index overhead (32 bytes per 64 runs ≈ half a byte per run).
  static constexpr std::size_t kCheckpointRuns = 64;

  using Checkpoint = ColumnarCheckpoint;

  /// Where a store's bytes land when it is appended behind a `front` store:
  /// its offset in each buffer, and its first run header, which is encoded
  /// relative to (0, 0), re-encoded relative to the front's last run.
  struct Placement {
    BufferSizes at;           ///< the front's buffer sizes
    BufferSizes end;          ///< the buffer sizes once this store is in
    std::size_t records = 0;  ///< the front's record count
    std::uint8_t first_header[2 * kMaxVarintBytes] = {};
    std::size_t first_header_bytes = 0;  ///< re-encoded length
    std::size_t old_header_bytes = 0;    ///< length of the header it replaces
  };

  void begin_run(std::uint64_t key, std::uint64_t minute);

  /// Places this non-empty store behind `front`'s records and last run,
  /// with `at` as the buffer sizes in front of it. Throws when the records
  /// would overflow the 32-bit index space.
  [[nodiscard]] Placement place_behind(const ColumnarRecords& front,
                                       const BufferSizes& at) const;
  /// The one rebase: copies this store into `dest`'s buffers, already sized
  /// to hold it, at `p`, shifting record indices, payload offsets and
  /// checkpoint runs and header offsets. Tasks copying different stores
  /// into one `dest` touch disjoint bytes.
  void copy_into(ColumnarRecords& dest, const Placement& p) const noexcept;
  /// Resizes the five buffers to `sizes`; see exec::resize_first_touch.
  void resize_buffers(exec::ThreadPool* pool, const BufferSizes& sizes);
  /// Takes `back`'s record count and encoder state as this store's next
  /// records and run, once its bytes have been placed behind this store's.
  void extend_by(const ColumnarRecords& back) noexcept;

  std::vector<std::uint8_t> headers_;
  std::vector<std::uint8_t> payload_;
  std::vector<std::uint32_t> run_starts_;
  std::vector<std::uint64_t> payload_offs_;
  std::vector<Checkpoint> checkpoints_;
  std::size_t size_ = 0;
  // Encoder state: the previous run's key/minute and previous record's
  // remote, so push_back writes deltas without re-decoding.
  std::uint64_t last_key_ = 0;
  std::uint64_t last_minute_ = 0;
  std::uint32_t last_remote_ = 0;
};

inline bool ColumnarRecords::Cursor::next() noexcept {
  if (next_index_ >= limit_) return false;
  if (next_index_ >= run_end_) {
    ++run_;
    const std::uint8_t* h = view_.headers + header_pos_;
    key_ = undelta64(key_, get_varint(h));
    minute_ = undelta64(minute_, get_varint(h));
    header_pos_ = static_cast<std::size_t>(h - view_.headers);
    run_end_ = run_ + 1 < view_.runs ? view_.run_starts[run_ + 1]
                                     : view_.records;
  }
  const std::uint8_t* p = view_.payload + payload_pos_;
  if (next_index_ == view_.run_starts[run_]) {
    remote_ = static_cast<std::uint32_t>(get_varint(p));
  } else {
    remote_ = undelta32(remote_, static_cast<std::uint32_t>(get_varint(p)));
  }
  direction_ = static_cast<Direction>(key_ & 1);
  const IPv4 vip(static_cast<std::uint32_t>(key_ >> 1));
  record_.minute = static_cast<util::Minute>(minute_);
  if (direction_ == Direction::kInbound) {
    record_.src_ip = IPv4(remote_);
    record_.dst_ip = vip;
  } else {
    record_.src_ip = vip;
    record_.dst_ip = IPv4(remote_);
  }
  record_.src_port = static_cast<std::uint16_t>(get_varint(p));
  record_.dst_port = static_cast<std::uint16_t>(get_varint(p));
  record_.protocol = static_cast<Protocol>(get_varint(p));
  record_.tcp_flags = static_cast<TcpFlags>(get_varint(p));
  record_.packets = static_cast<std::uint32_t>(get_varint(p));
  record_.bytes = get_varint(p);
  payload_pos_ = static_cast<std::size_t>(p - view_.payload);
  ++next_index_;
  return true;
}

inline bool ColumnarRecords::BlockCursor::next(DecodedBlock& out) noexcept {
  out.count = 0;
  out.base_index = next_index_;
  out.run_mask = 0;
  if (next_index_ >= limit_) return false;
  const std::size_t want =
      std::min(+DecodedBlock::kCapacity, limit_ - next_index_);
  const std::uint8_t* const payload_end = view_.payload + view_.payload_bytes;
  const std::uint8_t* const header_end = view_.headers + view_.header_bytes;
  std::size_t row = 0;
  while (row < want) {
    if (next_index_ >= run_end_) {
      ++run_;
      const std::uint8_t* h = view_.headers + header_pos_;
      // Two varints: slack is one worst-case varint plus the final word read.
      if (header_end - h >=
          static_cast<std::ptrdiff_t>(kMaxVarintBytes + 8)) {
        key_ = undelta64(key_, get_varint_swar(h));
        minute_ = undelta64(minute_, get_varint_swar(h));
      } else {
        key_ = undelta64(key_, get_varint(h));
        minute_ = undelta64(minute_, get_varint(h));
      }
      header_pos_ = static_cast<std::size_t>(h - view_.headers);
      run_end_ = run_ + 1 < view_.runs ? view_.run_starts[run_ + 1]
                                       : view_.records;
    }
    std::size_t take = std::min(run_end_, limit_) - next_index_;
    if (take > want - row) take = want - row;
    const auto vip = static_cast<std::uint32_t>(key_ >> 1);
    const auto dir = static_cast<std::uint8_t>(key_ & 1);
    const auto minute = static_cast<util::Minute>(minute_);
    for (std::size_t k = 0; k < take; ++k) {
      out.vip[row + k] = vip;
      out.direction[row + k] = dir;
      out.minute[row + k] = minute;
    }
    const bool at_run_start =
        next_index_ == view_.run_starts[run_];
    if (at_run_start) out.run_mask |= std::uint64_t{1} << row;
    const std::uint8_t* p = view_.payload + payload_pos_;
    for (std::size_t k = 0; k < take; ++k) {
      const std::size_t i = row + k;
      const bool abs_remote = at_run_start && k == 0;
      if (payload_end - p >= static_cast<std::ptrdiff_t>(kSwarRecordSlack)) {
        const auto raw = static_cast<std::uint32_t>(get_varint_swar(p));
        remote_ = abs_remote ? raw : undelta32(remote_, raw);
        out.remote[i] = remote_;
        out.src_port[i] = static_cast<std::uint16_t>(get_varint_swar(p));
        out.dst_port[i] = static_cast<std::uint16_t>(get_varint_swar(p));
        out.protocol[i] = static_cast<std::uint8_t>(get_varint_swar(p));
        out.tcp_flags[i] = static_cast<std::uint8_t>(get_varint_swar(p));
        out.packets[i] = static_cast<std::uint32_t>(get_varint_swar(p));
        out.bytes[i] = get_varint_swar(p);
      } else {
        const auto raw = static_cast<std::uint32_t>(get_varint(p));
        remote_ = abs_remote ? raw : undelta32(remote_, raw);
        out.remote[i] = remote_;
        out.src_port[i] = static_cast<std::uint16_t>(get_varint(p));
        out.dst_port[i] = static_cast<std::uint16_t>(get_varint(p));
        out.protocol[i] = static_cast<std::uint8_t>(get_varint(p));
        out.tcp_flags[i] = static_cast<std::uint8_t>(get_varint(p));
        out.packets[i] = static_cast<std::uint32_t>(get_varint(p));
        out.bytes[i] = get_varint(p);
      }
    }
    payload_pos_ = static_cast<std::size_t>(p - view_.payload);
    next_index_ += take;
    row += take;
  }
  out.count = row;
  return true;
}

}  // namespace dm::netflow
