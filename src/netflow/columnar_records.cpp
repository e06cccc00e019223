#include "netflow/columnar_records.h"

#include <algorithm>
#include <utility>

#include "exec/parallel.h"
#include "util/error.h"

namespace dm::netflow {

void ColumnarRecords::begin_run(std::uint64_t key, std::uint64_t minute) {
  std::uint8_t buf[2 * kMaxVarintBytes];
  std::uint8_t* p = put_varint_raw(buf, delta64(key, last_key_));
  p = put_varint_raw(p, delta64(minute, last_minute_));
  headers_.insert(headers_.end(), buf, p);

  const std::size_t run = run_starts_.size();
  if (checkpoints_.empty() ||
      run - static_cast<std::size_t>(checkpoints_.back().run) >=
          kCheckpointRuns) {
    checkpoints_.push_back(Checkpoint{run, headers_.size(), key, minute});
  }
  run_starts_.push_back(static_cast<std::uint32_t>(size_));
  payload_offs_.push_back(payload_.size());
  last_key_ = key;
  last_minute_ = minute;
}

void ColumnarRecords::push_back(const FlowRecord& record, Direction direction) {
  // run_starts_ (and the window index space) is 32-bit; the whole pipeline
  // shares that bound.
  if (size_ > UINT32_MAX) throw Error("ColumnarRecords: record count exceeds 2^32");

  const bool inbound = direction == Direction::kInbound;
  const std::uint32_t vip = (inbound ? record.dst_ip : record.src_ip).value();
  const std::uint32_t remote =
      (inbound ? record.src_ip : record.dst_ip).value();
  const std::uint64_t key = (static_cast<std::uint64_t>(vip) << 1) |
                            static_cast<std::uint64_t>(direction);
  const auto minute = static_cast<std::uint64_t>(record.minute);

  // Stage the record's seven varints (~16 bytes typical) in a stack buffer
  // and splice them in with one capacity check instead of one per byte.
  std::uint8_t buf[7 * kMaxVarintBytes];
  std::uint8_t* p;
  if (size_ == 0 || key != last_key_ || minute != last_minute_) {
    begin_run(key, minute);
    p = put_varint_raw(buf, remote);
  } else {
    p = put_varint_raw(buf, delta32(remote, last_remote_));
  }
  last_remote_ = remote;

  p = put_varint_raw(p, record.src_port);
  p = put_varint_raw(p, record.dst_port);
  p = put_varint_raw(p, static_cast<std::uint8_t>(record.protocol));
  p = put_varint_raw(p, static_cast<std::uint8_t>(record.tcp_flags));
  p = put_varint_raw(p, record.packets);
  p = put_varint_raw(p, record.bytes);
  payload_.insert(payload_.end(), buf, p);
  ++size_;
}

ColumnarRecords::Placement ColumnarRecords::place_behind(
    const ColumnarRecords& front, const BufferSizes& at) const {
  if (front.size_ + size_ > static_cast<std::size_t>(UINT32_MAX) + 1) {
    throw Error("ColumnarRecords: record count exceeds 2^32");
  }
  Placement p;
  p.at = at;
  p.records = front.size_;
  // Every store's first run header is encoded relative to (0, 0); it is
  // re-encoded relative to the front's last run, and the rest is copied
  // verbatim (later headers are deltas between this store's own runs).
  const std::uint8_t* h = headers_.data();
  const std::uint64_t first_key = undelta64(0, get_varint(h));
  const std::uint64_t first_minute = undelta64(0, get_varint(h));
  p.old_header_bytes = static_cast<std::size_t>(h - headers_.data());
  std::uint8_t* out =
      put_varint_raw(p.first_header, delta64(first_key, front.last_key_));
  out = put_varint_raw(out, delta64(first_minute, front.last_minute_));
  p.first_header_bytes = static_cast<std::size_t>(out - p.first_header);
  p.end = BufferSizes{
      at.header_bytes + headers_.size() + p.first_header_bytes -
          p.old_header_bytes,
      at.payload_bytes + payload_.size(), at.runs + run_starts_.size(),
      at.checkpoints + checkpoints_.size()};
  return p;
}

void ColumnarRecords::copy_into(ColumnarRecords& dest,
                                const Placement& p) const noexcept {
  std::uint8_t* const headers = std::copy_n(
      p.first_header, p.first_header_bytes,
      dest.headers_.data() + static_cast<std::size_t>(p.at.header_bytes));
  std::copy(headers_.begin() + static_cast<std::ptrdiff_t>(p.old_header_bytes),
            headers_.end(), headers);
  const std::uint64_t payload_base = p.at.payload_bytes;
  std::copy(payload_.begin(), payload_.end(),
            dest.payload_.data() + static_cast<std::size_t>(payload_base));

  const auto record_base = static_cast<std::uint32_t>(p.records);
  std::transform(run_starts_.begin(), run_starts_.end(),
                 dest.run_starts_.data() + p.at.runs,
                 [record_base](std::uint32_t rs) { return rs + record_base; });
  std::transform(payload_offs_.begin(), payload_offs_.end(),
                 dest.payload_offs_.data() + p.at.runs,
                 [payload_base](std::uint64_t off) { return off + payload_base; });

  // Header offsets shift by the bytes in front of this store's headers,
  // adjusted for the first header's re-encoded length.
  const std::uint64_t run_base = p.at.runs;
  const std::uint64_t header_shift =
      p.at.header_bytes + p.first_header_bytes - p.old_header_bytes;
  std::transform(checkpoints_.begin(), checkpoints_.end(),
                 dest.checkpoints_.data() + p.at.checkpoints,
                 [run_base, header_shift](const Checkpoint& cp) {
                   return Checkpoint{cp.run + run_base,
                                     cp.next_header + header_shift, cp.key,
                                     cp.minute};
                 });
}

void ColumnarRecords::resize_buffers(exec::ThreadPool* pool,
                                     const BufferSizes& sizes) {
  exec::resize_first_touch(pool, headers_,
                           static_cast<std::size_t>(sizes.header_bytes));
  exec::resize_first_touch(pool, payload_,
                           static_cast<std::size_t>(sizes.payload_bytes));
  exec::resize_first_touch(pool, run_starts_, sizes.runs);
  exec::resize_first_touch(pool, payload_offs_, sizes.runs);
  exec::resize_first_touch(pool, checkpoints_, sizes.checkpoints);
}

void ColumnarRecords::extend_by(const ColumnarRecords& back) noexcept {
  size_ += back.size_;
  last_key_ = back.last_key_;
  last_minute_ = back.last_minute_;
  last_remote_ = back.last_remote_;
}

void ColumnarRecords::append(ColumnarRecords&& other) {
  if (other.size_ == 0) return;
  // Steal the whole store when this one is empty AND holds no buffer; an
  // empty destination with capacity keeps it and goes through the generic
  // path (which is also correct for an empty destination — the encoder
  // state starts at zero, so the re-encoded first header is
  // byte-identical).
  if (size_ == 0 && payload_.capacity() == 0) {
    *this = std::move(other);
    other = ColumnarRecords();
    return;
  }
  const Placement p = other.place_behind(*this, buffer_sizes());
  resize_buffers(nullptr, p.end);
  other.copy_into(*this, p);
  extend_by(other);
  other = ColumnarRecords();
}

ColumnarRecords ColumnarRecords::concat(exec::ThreadPool* pool,
                                        std::span<ColumnarRecords> parts) {
  // One pass in order places every part; `out` advances its record count
  // and encoder state, and `end` its buffer sizes, as appends would.
  ColumnarRecords out;
  std::vector<Placement> placements(parts.size());
  BufferSizes end;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i].empty()) continue;
    placements[i] = parts[i].place_behind(out, end);
    end = placements[i].end;
    out.extend_by(parts[i]);
  }
  out.resize_buffers(pool, end);
  exec::parallel_for(pool, parts.size(), [&](std::size_t i) {
    if (!parts[i].empty()) parts[i].copy_into(out, placements[i]);
    parts[i] = ColumnarRecords();
  });
  return out;
}

ColumnarRecords::BufferSizes ColumnarRecords::buffer_sizes() const noexcept {
  return BufferSizes{headers_.size(), payload_.size(), run_starts_.size(),
                     checkpoints_.size()};
}

void ColumnarRecords::shrink_to_fit() {
  headers_.shrink_to_fit();
  payload_.shrink_to_fit();
  run_starts_.shrink_to_fit();
  payload_offs_.shrink_to_fit();
  checkpoints_.shrink_to_fit();
}

std::uint64_t ColumnarRecords::encoded_bytes() const noexcept {
  return static_cast<std::uint64_t>(headers_.size()) + payload_.size() +
         run_starts_.size() * sizeof(std::uint32_t) +
         payload_offs_.size() * sizeof(std::uint64_t) +
         checkpoints_.size() * sizeof(Checkpoint);
}

ColumnarRecords::Cursor ColumnarRecords::seek(
    const ColumnarView& view, std::size_t record_index) noexcept {
  Cursor c;
  c.view_ = view;
  c.limit_ = view.records;
  if (record_index >= view.records) {
    c.next_index_ = view.records;
    return c;
  }

  // The run containing record_index...
  const std::uint32_t* const rs_begin = view.run_starts;
  const std::uint32_t* const rs_end = view.run_starts + view.runs;
  const std::uint32_t* run_it = std::upper_bound(
      rs_begin, rs_end, static_cast<std::uint32_t>(record_index));
  const auto run = static_cast<std::size_t>(run_it - rs_begin) - 1;

  // ...its absolute header state, reached from the nearest checkpoint at or
  // before it (checkpoint 0 covers run 0, so the search never underflows).
  const ColumnarCheckpoint* cp_it = std::upper_bound(
      view.checkpoints, view.checkpoints + view.checkpoint_count, run,
      [](std::size_t r, const ColumnarCheckpoint& cp) { return r < cp.run; });
  const ColumnarCheckpoint& cp = *(cp_it - 1);
  c.key_ = cp.key;
  c.minute_ = cp.minute;
  c.header_pos_ = static_cast<std::size_t>(cp.next_header);
  const std::uint8_t* h = view.headers + c.header_pos_;
  for (auto r = static_cast<std::size_t>(cp.run); r < run; ++r) {
    c.key_ = undelta64(c.key_, get_varint(h));
    c.minute_ = undelta64(c.minute_, get_varint(h));
  }
  c.header_pos_ = static_cast<std::size_t>(h - view.headers);

  c.run_ = run;
  c.run_end_ = run + 1 < view.runs ? view.run_starts[run + 1] : view.records;
  c.payload_pos_ = static_cast<std::size_t>(view.payload_offs[run]);
  c.next_index_ = view.run_starts[run];
  // Skip-decode to the requested record when it sits mid-run.
  while (c.next_index_ < record_index) c.next();
  return c;
}

}  // namespace dm::netflow
