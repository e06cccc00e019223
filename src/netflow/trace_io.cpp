#include "netflow/trace_io.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <memory>
#include <new>
#include <optional>
#include <ostream>
#include <streambuf>

#include "exec/parallel.h"
#include "netflow/varint.h"
#include "util/error.h"

namespace dm::netflow {
namespace {

constexpr std::size_t kBlockRecords = 4096;
// A record packs 9 varint fields; the payload leads with one base-minute
// varint. These bounds reject an implausible block header before a payload
// byte is allocated or read, and make it cheap to reject when
// resynchronizing over damage.
constexpr std::uint64_t kMinRecordPayloadBytes = 9;
constexpr std::uint64_t kMaxRecordPayloadBytes = 9 * kMaxVarintBytes;

/// Payload-size bounds of a block of `count` records, or nothing when the
/// count itself is implausible. The strict reader, salvage and
/// trace_layout all read block headers through this one check.
std::optional<SizeBounds> block_bounds(std::uint64_t count) noexcept {
  if (count > kBlockRecords) return std::nullopt;
  return SizeBounds{1 + kMinRecordPayloadBytes * count,
                    kMaxVarintBytes + kMaxRecordPayloadBytes * count};
}

/// Decodes one CRC-verified block payload into the `count` records at
/// `out`, which the caller has sized. Returns why the payload does not decode
/// (kMalformedPayload or kTrailingBytes), or nothing when it does; `out`
/// may then hold a partial block.
std::optional<FrameError::Kind> decode_payload(
    std::span<const std::uint8_t> payload, std::uint64_t count,
    FlowRecord* out) {
  CheckedCursor cursor{payload, "trace"};
  try {
    const auto base = static_cast<std::uint64_t>(unzigzag64(cursor.varint()));
    for (std::uint64_t i = 0; i < count; ++i) {
      FlowRecord r;
      r.minute = static_cast<util::Minute>(undelta64(base, cursor.varint()));
      r.src_ip = IPv4(static_cast<std::uint32_t>(cursor.varint()));
      r.dst_ip = IPv4(static_cast<std::uint32_t>(cursor.varint()));
      r.src_port = static_cast<std::uint16_t>(cursor.varint());
      r.dst_port = static_cast<std::uint16_t>(cursor.varint());
      r.protocol = static_cast<Protocol>(cursor.varint());
      r.tcp_flags = static_cast<TcpFlags>(cursor.varint());
      r.packets = static_cast<std::uint32_t>(cursor.varint());
      r.bytes = cursor.varint();
      out[i] = r;
    }
  } catch (const FormatError&) {
    // A varint ran off the payload. The cursor throws rather than returning
    // a flag because a per-field check measured slower in this loop, and a
    // CRC-valid payload fails here only if its writer did.
    return FrameError::Kind::kMalformedPayload;
  }
  if (!cursor.exhausted()) return FrameError::Kind::kTrailingBytes;
  return std::nullopt;
}

/// Reads the block at `pos` of a buffered trace — a record-count varint,
/// then a body within block_bounds — and appends its records to `out`.
/// Never throws, so the salvage scanner can probe byte by byte. A zero
/// count is the end marker: no error and no payload. On any error `out` is
/// left as it was, and a failed count varint reports like a failed size
/// varint (size_read false).
SpanBody read_block(std::span<const std::uint8_t> buf, std::size_t pos,
                    std::uint64_t& count, std::vector<FlowRecord>& out) {
  SpanBody block;
  if (!try_get_varint(buf, pos, count)) {
    block.error = FrameError::Kind::kTruncated;
    return block;
  }
  if (count == 0) {
    block.end = pos;
    return block;
  }
  const std::optional<SizeBounds> bounds = block_bounds(count);
  if (!bounds) {
    block.error = FrameError::Kind::kOversized;
    return block;
  }
  block = read_frame_body(buf, pos, *bounds);
  if (!block.error) {
    // Sized only once the CRC passed: salvage probes byte by byte over
    // damage, and nearly every probe fails before this.
    const std::size_t before = out.size();
    out.resize(before + count);
    block.error = decode_payload(block.payload, count, out.data() + before);
    if (block.error) out.resize(before);
  }
  return block;
}

FrameError located(const FrameError& e, std::uint64_t block,
                   std::uint64_t offset) {
  return FrameError(e.kind(), std::string(e.what()) + " (block " +
                                  std::to_string(block) + " at byte " +
                                  std::to_string(offset) + ")");
}

/// An istream source over bytes already in memory. The get area is never
/// written through; std::streambuf only takes char*.
class SpanSource : public std::streambuf {
 public:
  explicit SpanSource(std::span<const std::uint8_t> bytes) {
    char* first =
        const_cast<char*>(reinterpret_cast<const char*>(bytes.data()));
    setg(first, first, first + bytes.size());
  }
};

/// One block that walk_blocks walked past.
struct WalkedBlock {
  std::size_t offset = 0;  ///< first byte of its record-count varint
  std::size_t body = 0;    ///< first byte of its payload-size varint
  std::uint64_t count = 0;
  std::uint64_t first = 0;  ///< records in the walked blocks before it
};

/// The blocks at the front of a buffered trace, up to the end marker.
struct BlockWalk {
  std::vector<WalkedBlock> blocks;
  std::uint64_t records = 0;  ///< records in `blocks`
  /// Where the walk stopped: the end marker, or the first header it could
  /// not walk past.
  std::size_t stop = 0;
  bool end_marker = false;  ///< whether `stop` is the end marker
};

/// The one walk over a buffered trace's block headers: under block_bounds
/// and the size bounds, with no CRC check, up to the end marker or the
/// first header it cannot walk past. Every walked block lies inside
/// `bytes`, so `records` never exceeds the bytes over the smallest record:
/// a result sized by it is bounded by the input.
BlockWalk walk_blocks(std::span<const std::uint8_t> bytes) {
  BlockWalk walk;
  std::size_t pos = 0;
  for (;;) {
    walk.stop = pos;
    std::uint64_t count = 0;
    if (!try_get_varint(bytes, pos, count)) break;
    if (count == 0) {
      walk.end_marker = true;
      break;
    }
    const std::optional<SizeBounds> bounds = block_bounds(count);
    const std::size_t body = pos;
    std::uint64_t size = 0;
    if (!bounds || !try_get_varint(bytes, pos, size) || size < bounds->min ||
        size > bounds->max || bytes.size() - pos < size + kFrameCrcBytes) {
      break;
    }
    pos += static_cast<std::size_t>(size) + kFrameCrcBytes;
    walk.blocks.push_back({walk.stop, body, count, walk.records});
    walk.records += count;
  }
  return walk;
}

/// Below this many blocks read_all decodes on the calling thread: starting
/// workers would cost more than they save.
constexpr std::size_t kInlineBlocks = 32;

/// Everything left in a stream, in one malloc'd buffer.
class StreamBytes {
 public:
  /// Reads with large reads into a buffer that doubles as it fills. It
  /// grows by realloc, which remaps the pages of a large block instead of
  /// copying them, and no byte is zero-filled before a read overwrites it.
  /// A file stream reports only its small internal buffer through
  /// in_avail(), so nothing is sized by it.
  explicit StreamBytes(std::istream& in) {
    constexpr std::size_t kFirstRead = std::size_t{1} << 20;
    while (in) {
      const std::size_t capacity = std::max(kFirstRead, 2 * size_);
      void* grown = std::realloc(data_.get(), capacity);
      if (grown == nullptr) throw std::bad_alloc();
      (void)data_.release();
      data_.reset(static_cast<std::uint8_t*>(grown));
      in.read(reinterpret_cast<char*>(data_.get() + size_),
              static_cast<std::streamsize>(capacity - size_));
      size_ += static_cast<std::size_t>(in.gcount());
    }
  }

  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return {data_.get(), size_};
  }

 private:
  struct Free {
    void operator()(std::uint8_t* p) const noexcept { std::free(p); }
  };
  std::unique_ptr<std::uint8_t, Free> data_;
  std::size_t size_ = 0;
};

}  // namespace

TraceWriter::TraceWriter(std::ostream& out, std::uint32_t sampling_denominator)
    : out_(out) {
  put_frame_header(frame_, kTraceMagic, kTraceVersion);
  frame_.resize(kTraceHeaderBytes);
  store_le(frame_.data() + kFrameHeaderBytes, sampling_denominator);
  out_.write(reinterpret_cast<const char*>(frame_.data()),
             static_cast<std::streamsize>(frame_.size()));
  pending_.reserve(kBlockRecords);
}

TraceWriter::~TraceWriter() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; an explicit finish() surfaces errors.
  }
}

void TraceWriter::write(const FlowRecord& record) {
  pending_.push_back(record);
  ++count_;
  if (pending_.size() >= kBlockRecords) flush_block();
}

void TraceWriter::write_all(std::span<const FlowRecord> records) {
  for (const auto& r : records) write(r);
}

void TraceWriter::flush_block() {
  if (pending_.empty()) return;
  std::vector<std::uint8_t> payload;
  payload.reserve(pending_.size() * 16);
  const util::Minute base = pending_.front().minute;
  put_varint(payload, zigzag64(base));
  for (const FlowRecord& r : pending_) {
    put_varint(payload, delta64(static_cast<std::uint64_t>(r.minute),
                                static_cast<std::uint64_t>(base)));
    put_varint(payload, r.src_ip.value());
    put_varint(payload, r.dst_ip.value());
    put_varint(payload, r.src_port);
    put_varint(payload, r.dst_port);
    put_varint(payload, static_cast<std::uint8_t>(r.protocol));
    put_varint(payload, static_cast<std::uint8_t>(r.tcp_flags));
    put_varint(payload, r.packets);
    put_varint(payload, r.bytes);
  }
  frame_.clear();
  put_varint(frame_, pending_.size());
  put_frame_body(frame_, payload);
  out_.write(reinterpret_cast<const char*>(frame_.data()),
             static_cast<std::streamsize>(frame_.size()));
  if (!out_) throw FormatError("trace: write failure");
  pending_.clear();
}

void TraceWriter::finish() {
  if (finished_) return;
  flush_block();
  out_.put(0);  // end marker: a zero record count
  out_.flush();
  finished_ = true;
  if (!out_) throw FormatError("trace: write failure at finish");
}

std::uint64_t IngestReport::bytes_lost() const noexcept {
  std::uint64_t total = 0;
  for (const auto& range : lost_ranges) total += range.bytes;
  return total;
}

bool IngestReport::clean() const noexcept {
  return header_valid && end_marker_seen && blocks_skipped == 0 &&
         lost_ranges.empty() &&
         crc_mismatches + truncations + varint_errors + decode_errors == 0;
}

TraceReader::TraceReader(std::istream& in, ReadMode mode)
    : in_(in), mode_(mode) {
  if (mode_ == ReadMode::kSalvage) {
    salvage_all();
    return;
  }
  read_frame_header(in_, kTraceMagic, kTraceVersion, "trace");
  std::uint8_t sampling[4];
  in_.read(reinterpret_cast<char*>(sampling), sizeof sampling);
  if (!in_) {
    throw FrameError(FrameError::Kind::kTruncated, "trace: truncated header");
  }
  sampling_ = load_le<std::uint32_t>(sampling);
  if (sampling_ == 0) {
    throw FrameError(FrameError::Kind::kMalformedPayload,
                     "trace: zero sampling denominator");
  }
  offset_ = kTraceHeaderBytes;
}

bool TraceReader::load_block() {
  if (eof_) return false;
  const std::uint64_t block_offset = offset_;
  try {
    std::uint64_t count = 0;
    const std::size_t count_bytes = read_varint(in_, count, "trace");
    if (count_bytes == 0) {
      throw FrameError(FrameError::Kind::kTruncated,
                       "trace: missing end marker");
    }
    offset_ += count_bytes;
    if (count == 0) {
      eof_ = true;
      report_.end_marker_seen = true;
      return false;
    }
    const std::optional<SizeBounds> bounds = block_bounds(count);
    if (!bounds) {
      throw FrameError(FrameError::Kind::kOversized,
                       "trace: implausible record count " +
                           std::to_string(count));
    }
    offset_ += read_frame_body(in_, payload_, *bounds, "trace");
    // Blocks are full but for the last, so this rarely changes the size and
    // value-initializes nothing after the first block.
    block_.resize(count);
    if (const auto bad = decode_payload(payload_, count, block_.data())) {
      block_.clear();  // next() must not serve a partly decoded block
      throw FrameError(*bad, std::string("trace: ") + describe(*bad));
    }
    report_.records_recovered += count;
  } catch (const FrameError& e) {
    throw located(e, block_index_, block_offset);
  }
  cursor_ = 0;
  ++block_index_;
  ++report_.blocks_decoded;
  report_.bytes_scanned = offset_;
  return true;
}

void TraceReader::salvage_all() {
  const StreamBytes rest(in_);
  const std::span<const std::uint8_t> bytes = rest.bytes();
  report_.bytes_scanned = bytes.size();

  std::size_t pos = 0;
  report_.header_valid = false;
  if (bytes.size() >= kTraceHeaderBytes &&
      !check_frame_header(bytes, kTraceMagic, kTraceVersion)) {
    const auto sampling =
        load_le<std::uint32_t>(bytes.data() + kFrameHeaderBytes);
    if (sampling != 0) {
      report_.header_valid = true;
      sampling_ = sampling;
      pos = kTraceHeaderBytes;
    }
  }

  // Sized for the intact front of the trace: all of a clean one.
  block_.reserve(walk_blocks(bytes.subspan(pos)).records);

  // Scan: decode blocks where possible; on damage, probe byte-by-byte for
  // the next position where a whole block (header, plausible sizes, CRC,
  // payload) decodes, and account the gap as one lost range.
  bool in_damage = false;
  std::size_t damage_start = 0;
  const auto tally = [&](const SpanBody& block) {
    switch (*block.error) {
      case FrameError::Kind::kTruncated:
        // Only a payload or CRC cut off by the end of the buffer is a
        // truncation; a header varint that runs off it is header damage.
        ++(block.size_read ? report_.truncations : report_.varint_errors);
        break;
      case FrameError::Kind::kCrcMismatch: ++report_.crc_mismatches; break;
      case FrameError::Kind::kMalformedPayload:
      case FrameError::Kind::kTrailingBytes: ++report_.decode_errors; break;
      default: ++report_.varint_errors; break;  // an implausible count or size
    }
  };
  const auto close_damage = [&](std::size_t end) {
    if (!in_damage) return;
    report_.lost_ranges.push_back({damage_start, end - damage_start});
    ++report_.blocks_skipped;
    in_damage = false;
  };

  while (pos < bytes.size()) {
    std::uint64_t count = 0;
    const SpanBody block = read_block(bytes, pos, count, block_);
    if (!block.error && count == 0 && block.end != bytes.size()) {
      // A zero count mid-file is either corruption or an end marker with
      // trailing garbage; keep scanning so blocks after it are recovered.
      if (!in_damage) {
        in_damage = true;
        damage_start = pos;
        ++report_.varint_errors;
      }
      ++pos;
      continue;
    }
    if (!block.error) {
      close_damage(pos);
      pos = block.end;
      if (count == 0) {
        report_.end_marker_seen = true;
        break;
      }
      ++report_.blocks_decoded;
      continue;
    }
    if (!in_damage) {
      in_damage = true;
      damage_start = pos;
      tally(block);
    }
    ++pos;
  }
  close_damage(bytes.size());
  report_.records_recovered = block_.size();
  cursor_ = 0;
  eof_ = true;  // everything already decoded into block_
}

bool TraceReader::next(FlowRecord& out) {
  while (cursor_ >= block_.size()) {
    if (!load_block()) return false;
  }
  out = block_[cursor_++];
  return true;
}

std::vector<FlowRecord> TraceReader::read_all() {
  std::vector<FlowRecord> all;
  if (eof_) {
    // Salvage decoded everything up front; a strict reader saw the end.
    if (cursor_ == 0) {
      all = std::move(block_);
    } else {
      all.assign(block_.begin() + static_cast<std::ptrdiff_t>(cursor_),
                 block_.end());
    }
    block_.clear();
    cursor_ = 0;
    return all;
  }

  // The rest of the stream in one buffer and its block headers walked
  // once, so the result is sized once and every block's records have their
  // place in it, behind the rest of the current block. Then every block is
  // CRC-checked and decoded into its place on the pool.
  const StreamBytes rest(in_);
  const std::span<const std::uint8_t> bytes = rest.bytes();
  const BlockWalk walk = walk_blocks(bytes);
  const std::vector<WalkedBlock>& blocks = walk.blocks;
  exec::ThreadPool pool(blocks.size() < kInlineBlocks
                            ? 0
                            : exec::ThreadPool::hardware_threads() - 1);
  const std::size_t head = block_.size() - cursor_;
  exec::resize_first_touch(&pool, all,
                           head + static_cast<std::size_t>(walk.records));
  std::copy(block_.begin() + static_cast<std::ptrdiff_t>(cursor_),
            block_.end(), all.begin());
  block_.clear();
  cursor_ = 0;
  FlowRecord* const placed = all.data() + head;
  const std::vector<std::size_t> first_failed =
      exec::parallel_map_chunks<std::size_t>(
          &pool, blocks.size(), [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
              const WalkedBlock& b = blocks[i];
              const SpanBody body =
                  read_frame_body(bytes, b.body, *block_bounds(b.count));
              if (body.error ||
                  decode_payload(body.payload, b.count, placed + b.first)) {
                return i;
              }
            }
            return blocks.size();
          });
  const std::size_t failed =
      first_failed.empty()
          ? blocks.size()
          : *std::min_element(first_failed.begin(), first_failed.end());

  // The report counts the blocks in front of the first failure, as next()
  // would have; they end where the replay starts.
  const std::size_t end =
      failed < blocks.size() ? blocks[failed].offset : walk.stop;
  if (failed > 0) report_.bytes_scanned = offset_ + end;
  report_.blocks_decoded += failed;
  report_.records_recovered +=
      failed < blocks.size() ? blocks[failed].first : walk.records;
  if (failed < blocks.size() || !walk.end_marker) {
    // Replay the first block that failed, or else the header the walk
    // stopped at, through the stream reader, which words and locates every
    // error: block index, absolute offset, both CRCs, the size wanted. It
    // checks the same bounds, so it throws.
    SpanSource source(bytes.subspan(end));
    std::istream replay(&source);
    TraceReader(replay, block_index_ + failed, offset_ + end).load_block();
    throw FrameError(FrameError::Kind::kMalformedPayload,
                     "trace: damaged block");
  }
  eof_ = true;
  report_.end_marker_seen = true;
  return all;
}

void write_trace_file(const std::string& path, std::span<const FlowRecord> records,
                      std::uint32_t sampling_denominator) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw FormatError("trace: cannot open for writing: " + path);
  TraceWriter writer(out, sampling_denominator);
  writer.write_all(records);
  writer.finish();
}

std::vector<FlowRecord> read_trace_file(const std::string& path,
                                        std::uint32_t* sampling) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw FormatError("trace: cannot open for reading: " + path);
  TraceReader reader(in);
  if (sampling != nullptr) *sampling = reader.sampling_denominator();
  return reader.read_all();
}

SalvageResult salvage_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw FormatError("trace: cannot open for reading: " + path);
  TraceReader reader(in, ReadMode::kSalvage);
  SalvageResult result;
  result.records = reader.read_all();
  result.sampling = reader.sampling_denominator();
  result.report = reader.report();
  return result;
}

std::vector<BlockSpan> trace_layout(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kTraceHeaderBytes) {
    throw FrameError(FrameError::Kind::kTruncated, "trace: truncated header");
  }
  if (const auto bad = check_frame_header(bytes, kTraceMagic, kTraceVersion)) {
    throw FrameError(*bad, std::string("trace: ") + describe(*bad));
  }

  std::vector<BlockSpan> layout;
  std::vector<FlowRecord> scratch;
  std::size_t pos = kTraceHeaderBytes;
  std::uint64_t record_index = 0;
  for (;;) {
    std::uint64_t count = 0;
    scratch.clear();
    const SpanBody block = read_block(bytes, pos, count, scratch);
    if (block.error) {
      throw located(FrameError(*block.error,
                               std::string("trace: ") + describe(*block.error)),
                    layout.size(), pos);
    }
    if (count == 0) {
      if (block.end != bytes.size()) {
        throw FrameError(FrameError::Kind::kTrailingBytes,
                         "trace: trailing bytes after end marker");
      }
      return layout;
    }
    BlockSpan span;
    span.offset = pos;
    span.size = block.end - pos;
    span.payload_offset =
        static_cast<std::uint64_t>(block.payload.data() - bytes.data());
    span.payload_size = block.payload.size();
    span.record_count = count;
    span.first_record = record_index;
    layout.push_back(span);
    record_index += count;
    pos = block.end;
  }
}

}  // namespace dm::netflow
