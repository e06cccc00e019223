#include "netflow/segment_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>

#include "netflow/frame.h"
#include "util/error.h"

namespace dm::netflow {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kMagic = 0x47534D44u;  // "DMSG" read little-endian
constexpr std::uint16_t kVersion = 1;
/// Geometry sanity cap: no single section of a real segment approaches 1 TiB
/// (segments seal at tens of MiB), so any header field past this is damage,
/// and the cap keeps the expected-size arithmetic below overflow-free.
constexpr std::uint64_t kMaxSectionBytes = 1ull << 40;
/// Seal-threshold bounds: segments smaller than the floor waste seek index
/// and syscalls for no RSS benefit; the cap bounds one segment's mapping.
constexpr std::uint64_t kMinSealBytes = 1ull << 20;
constexpr std::uint64_t kMaxSealBytes = 64ull << 20;

/// Section offsets within the body (relative to file offset
/// kSegmentHeaderBytes, which is 8-aligned — so payload_offs/checkpoints stay
/// 8-aligned in the mapping).
struct Geometry {
  std::uint64_t off_payload_offs = 0;
  std::uint64_t off_checkpoints = 0;
  std::uint64_t off_headers = 0;
  std::uint64_t off_payload = 0;
  std::uint64_t body_bytes = 0;
};

Geometry geometry_of(const SegmentMeta& m) {
  Geometry g;
  g.off_payload_offs = (m.runs * sizeof(std::uint32_t) + 7) & ~std::uint64_t{7};
  g.off_checkpoints = g.off_payload_offs + m.runs * sizeof(std::uint64_t);
  g.off_headers = g.off_checkpoints + m.checkpoints * sizeof(ColumnarCheckpoint);
  g.off_payload = g.off_headers + m.header_bytes;
  g.body_bytes = g.off_payload + m.payload_bytes;
  return g;
}

/// Structural plausibility of a decoded header. Damage that survives the
/// header CRC is astronomically unlikely, but the checks are cheap and keep
/// the size arithmetic overflow-free.
bool plausible(const SegmentMeta& m) {
  if (m.records > (1ull << 32) || m.runs > m.records) return false;
  if (m.checkpoints > m.runs) return false;
  if (m.runs > 0 && m.checkpoints == 0) return false;  // seek needs cp 0
  if (m.header_bytes > kMaxSectionBytes) return false;
  if (m.payload_bytes > kMaxSectionBytes) return false;
  return true;
}

std::vector<std::string> list_segment_files(const std::string& directory) {
  if (!fs::is_directory(directory)) {
    throw FormatError("segment store: no such directory: " + directory);
  }
  std::vector<std::string> paths;
  for (const fs::directory_entry& entry : fs::directory_iterator(directory)) {
    if (entry.path().extension() == ".dmseg") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace

void write_segment_file(const std::string& path,
                        const ColumnarRecords& store) {
  const ColumnarView v = store.view();
  const ColumnarRecords::BufferSizes sizes = store.buffer_sizes();
  SegmentMeta meta;
  // dmlint: covers(meta, SegmentMeta)
  meta.records = v.records;
  meta.runs = sizes.runs;
  meta.checkpoints = sizes.checkpoints;
  meta.header_bytes = sizes.header_bytes;
  meta.payload_bytes = sizes.payload_bytes;
  // dmlint: covers-end(meta)

  const Geometry g = geometry_of(meta);
  std::vector<std::uint8_t> body(static_cast<std::size_t>(g.body_bytes), 0);
  const auto copy_section = [&](std::uint64_t off, const void* src,
                                std::uint64_t bytes) {
    if (bytes > 0) std::memcpy(body.data() + off, src, bytes);
  };
  copy_section(0, v.run_starts, meta.runs * sizeof(std::uint32_t));
  copy_section(g.off_payload_offs, v.payload_offs,
               meta.runs * sizeof(std::uint64_t));
  copy_section(g.off_checkpoints, v.checkpoints,
               meta.checkpoints * sizeof(ColumnarCheckpoint));
  copy_section(g.off_headers, v.headers, meta.header_bytes);
  copy_section(g.off_payload, v.payload, meta.payload_bytes);

  std::uint8_t header[kSegmentHeaderBytes] = {};
  store_le(header + 0, kMagic);
  store_le(header + 4, kVersion);
  store_le(header + 6, std::uint16_t{0});  // flags
  store_le(header + 8, meta.records);
  store_le(header + 16, meta.runs);
  store_le(header + 24, meta.checkpoints);
  store_le(header + 32, meta.header_bytes);
  store_le(header + 40, meta.payload_bytes);
  store_le(header + 48, crc32({body.data(), body.size()}));
  store_le(header + 52, crc32({header, 52}));

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("segment store: cannot create " + path);
  out.write(reinterpret_cast<const char*>(header), kSegmentHeaderBytes);
  out.write(reinterpret_cast<const char*>(body.data()),
            static_cast<std::streamsize>(body.size()));
  out.flush();
  if (!out) throw Error("segment store: short write to " + path);
}

MappedSegment::~MappedSegment() {
  if (base_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(base_), file_bytes_);
  }
}

MappedSegment::MapAttempt MappedSegment::try_map(const std::string& path) {
  MapAttempt out;
  const auto fail = [&](SegmentFileStatus status, std::string detail) {
    out.status = status;
    out.detail = std::move(detail);
    out.segment.reset();
    return out;
  };

  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return fail(SegmentFileStatus::kBadHeader,
                "cannot open: " + std::string(std::strerror(errno)));
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return fail(SegmentFileStatus::kBadHeader, "cannot stat file");
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  out.file_bytes = size;
  if (size < kSegmentHeaderBytes) {
    ::close(fd);
    return fail(SegmentFileStatus::kTruncated,
                "file shorter than the 56-byte segment header");
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (base == MAP_FAILED) {
    return fail(SegmentFileStatus::kBadHeader,
                "mmap failed: " + std::string(std::strerror(errno)));
  }

  // Hand ownership to the (private-constructor) object immediately so every
  // early return below unmaps.
  std::shared_ptr<MappedSegment> seg(new MappedSegment());
  seg->base_ = static_cast<const std::uint8_t*>(base);
  seg->file_bytes_ = size;

  const std::uint8_t* h = seg->base_;
  if (const auto bad = check_frame_header({h, size}, kMagic, kVersion)) {
    return fail(SegmentFileStatus::kBadHeader, describe(*bad));
  }
  const std::uint32_t stored_header_crc = load_le<std::uint32_t>(h + 52);
  const std::uint32_t actual_header_crc = crc32({h, 52});
  if (stored_header_crc != actual_header_crc) {
    return fail(SegmentFileStatus::kBadHeader, "header CRC mismatch");
  }

  SegmentMeta meta;
  // dmlint: covers(meta, SegmentMeta)
  meta.records = load_le<std::uint64_t>(h + 8);
  meta.runs = load_le<std::uint64_t>(h + 16);
  meta.checkpoints = load_le<std::uint64_t>(h + 24);
  meta.header_bytes = load_le<std::uint64_t>(h + 32);
  meta.payload_bytes = load_le<std::uint64_t>(h + 40);
  // dmlint: covers-end(meta)
  out.header_records = meta.records;
  if (!plausible(meta)) {
    return fail(SegmentFileStatus::kBadHeader, "implausible segment geometry");
  }
  const Geometry g = geometry_of(meta);
  const std::uint64_t expected = kSegmentHeaderBytes + g.body_bytes;
  if (size < expected) {
    return fail(SegmentFileStatus::kTruncated,
                "file is " + std::to_string(size) + " bytes, header implies " +
                    std::to_string(expected));
  }
  if (size > expected) {
    return fail(SegmentFileStatus::kBadHeader,
                "trailing bytes past the segment body");
  }

  seg->meta_ = meta;
  seg->body_crc_ = load_le<std::uint32_t>(h + 48);
  const std::uint8_t* body = seg->base_ + kSegmentHeaderBytes;
  seg->view_ = ColumnarView{
      body + g.off_headers,
      body + g.off_payload,
      reinterpret_cast<const std::uint32_t*>(body),
      reinterpret_cast<const std::uint64_t*>(body + g.off_payload_offs),
      reinterpret_cast<const ColumnarCheckpoint*>(body + g.off_checkpoints),
      static_cast<std::size_t>(meta.runs),
      static_cast<std::size_t>(meta.checkpoints),
      static_cast<std::size_t>(meta.records),
      static_cast<std::size_t>(meta.header_bytes),
      static_cast<std::size_t>(meta.payload_bytes)};
  out.segment = std::move(seg);
  return out;
}

std::shared_ptr<const MappedSegment> MappedSegment::map(
    const std::string& path) {
  MapAttempt attempt = try_map(path);
  if (attempt.status != SegmentFileStatus::kOk) {
    throw FormatError("segment " + path + ": " + attempt.detail);
  }
  return std::move(attempt.segment);
}

bool MappedSegment::body_crc_ok() const noexcept {
  return crc32({base_ + kSegmentHeaderBytes,
                file_bytes_ - kSegmentHeaderBytes}) == body_crc_;
}

SegmentStore SegmentStore::open(const std::string& directory) {
  SegmentStore store;
  for (const std::string& path : list_segment_files(directory)) {
    const std::shared_ptr<const MappedSegment> seg = MappedSegment::map(path);
    if (!seg->body_crc_ok()) {
      throw FormatError("segment " + path + ": body CRC mismatch");
    }
    store.segments_.push_back(Segment{path, store.total_records_,
                                      seg->meta().records, seg->file_bytes()});
    store.total_records_ += seg->meta().records;
  }
  return store;
}

SegmentStore::SegmentStore(SegmentStore&& other) noexcept {
  *this = std::move(other);
}

SegmentStore& SegmentStore::operator=(SegmentStore&& other) noexcept {
  if (this == &other) return *this;
  const std::scoped_lock lock(map_mu_, other.map_mu_);
  segments_ = std::exchange(other.segments_, {});
  total_records_ = std::exchange(other.total_records_, 0);
  recent_map_.reset();
  other.recent_map_.reset();
  return *this;
}

std::pair<SegmentStore, SegmentStore::SalvageReport> SegmentStore::salvage(
    const std::string& directory) {
  SegmentStore store;
  SalvageReport report;
  for (const std::string& path : list_segment_files(directory)) {
    MappedSegment::MapAttempt attempt = MappedSegment::try_map(path);
    LedgerEntry entry;
    entry.path = path;
    entry.status = attempt.status;
    entry.file_bytes = attempt.file_bytes;
    entry.records = attempt.header_records;
    entry.detail = attempt.detail;
    if (attempt.status == SegmentFileStatus::kOk &&
        !attempt.segment->body_crc_ok()) {
      entry.status = SegmentFileStatus::kBodyCorrupt;
      entry.detail = "body CRC mismatch";
      attempt.segment.reset();
    }
    if (entry.status == SegmentFileStatus::kOk) {
      report.segments_recovered += 1;
      report.records_recovered += entry.records;
      store.segments_.push_back(Segment{path, store.total_records_,
                                        entry.records, entry.file_bytes});
      store.total_records_ += entry.records;
    } else {
      report.segments_damaged += 1;
      report.records_lost += entry.records;
    }
    report.entries.push_back(std::move(entry));
  }
  return {std::move(store), std::move(report)};
}

std::uint64_t SegmentStore::file_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const Segment& s : segments_) total += s.file_bytes;
  return total;
}

std::shared_ptr<const MappedSegment> SegmentStore::map_segment(
    std::size_t i) const {
  const std::lock_guard<std::mutex> lock(map_mu_);
  if (recent_map_ == nullptr || recent_map_index_ != i) {
    recent_map_.reset();  // unmap (unless a cursor holds it) before mapping
    recent_map_ = MappedSegment::map(segments_[i].path);
    recent_map_index_ = i;
  }
  return recent_map_;
}

std::size_t SegmentStore::segment_containing(
    std::size_t record_index) const noexcept {
  const auto it = std::upper_bound(
      segments_.begin(), segments_.end(), record_index,
      [](std::size_t r, const Segment& s) { return r < s.first_record; });
  return static_cast<std::size_t>(it - segments_.begin()) - 1;
}

RecordStore::Cursor RecordStore::cursor_at(std::size_t record_index) const {
  Cursor c;
  c.limit_ = size();
  if (!spilled_) {
    c.inner_ = ColumnarRecords::seek(resident_.view(), record_index);
    return c;
  }
  c.store_ = &segments_;
  if (record_index >= c.limit_) {
    c.next_segment_ = segments_.segment_count();
    c.base_ = c.limit_;
    return c;
  }
  const std::size_t s = segments_.segment_containing(record_index);
  const SegmentStore::Segment& seg = segments_.segments()[s];
  c.next_segment_ = s + 1;
  c.base_ = static_cast<std::size_t>(seg.first_record);
  c.mapped_ = segments_.map_segment(s);
  c.inner_ = ColumnarRecords::seek(c.mapped_->view(), record_index - c.base_);
  return c;
}

bool RecordStore::Cursor::advance_segment() {
  mapped_.reset();
  if (store_ == nullptr) return false;
  const std::vector<SegmentStore::Segment>& segs = store_->segments();
  while (next_segment_ < segs.size() &&
         segs[next_segment_].first_record < limit_) {
    const SegmentStore::Segment& seg = segs[next_segment_];
    base_ = static_cast<std::size_t>(seg.first_record);
    mapped_ = store_->map_segment(next_segment_);
    ++next_segment_;
    inner_.reset(mapped_->view(), limit_ - base_);
    if (inner_.next()) return true;
    mapped_.reset();
  }
  return false;
}

RecordStore::Range RecordStore::range(std::size_t first,
                                      std::size_t last) const {
  if (last > size()) last = size();
  if (first > last) first = last;
  Cursor c = cursor_at(first);
  c.limit_ = last;
  if (last >= c.base_) c.inner_.clip(last - c.base_);
  return Range(c, last - first);
}

RecordStore::Range RecordStore::all() const { return range(0, size()); }

SpillWriter::SpillWriter(const SpillConfig& config)
    : directory_(config.directory),
      seal_bytes_(std::clamp(config.ram_budget_bytes / 2, kMinSealBytes,
                             kMaxSealBytes)) {
  if (!config.enabled()) {
    throw Error("SpillWriter: spill directory not configured");
  }
  fs::create_directories(directory_);
  // Stale segments from an earlier run in the same directory would be
  // picked up by open()/salvage(); start from a clean slate.
  for (const fs::directory_entry& entry : fs::directory_iterator(directory_)) {
    if (entry.path().extension() == ".dmseg") fs::remove(entry.path());
  }
}

void SpillWriter::append(ColumnarRecords&& shard) {
  // The window index space is 32-bit pipeline-wide; spilling moves bytes
  // out of RAM but not indices out of u32.
  if (store_.total_records_ + pending_.size() + shard.size() >
      std::uint64_t{UINT32_MAX} + 1) {
    throw Error("SpillWriter: record count exceeds 2^32");
  }
  pending_.append(std::move(shard));
  if (!pending_.empty() && pending_.encoded_bytes() >= seal_bytes_) seal();
}

void SpillWriter::seal() {
  char name[32];
  std::snprintf(name, sizeof name, "seg-%06zu.dmseg",
                store_.segments_.size());
  const std::string path = (fs::path(directory_) / name).string();
  write_segment_file(path, pending_);
  store_.segments_.push_back(SegmentStore::Segment{
      path, store_.total_records_, pending_.size(), fs::file_size(path)});
  store_.total_records_ += pending_.size();
  pending_ = ColumnarRecords();
}

RecordStore SpillWriter::finish() && {
  if (store_.segment_count() == 0) {
    // Zero spill waves: the whole trace fit under the seal threshold.
    pending_.shrink_to_fit();
    return RecordStore(std::move(pending_));
  }
  if (!pending_.empty()) seal();
  return RecordStore(std::move(store_));
}

}  // namespace dm::netflow
