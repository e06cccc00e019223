#include "serve/supervisor.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "exec/parallel.h"
#include "netflow/frame.h"
#include "netflow/varint.h"
#include "sim/attack_type.h"
#include "util/table.h"

namespace dm::serve {

namespace {

// A supervisor book is one frame (netflow/frame.h), like a DMCK monitor
// checkpoint, under its own magic so a book is never mistaken for a monitor
// state (or vice versa) inside a generation directory.
constexpr std::uint32_t kBookMagic = 0x56534d44;  // "DMSV" little-endian
constexpr std::uint16_t kBookVersion = 1;

constexpr const char* kBookFile = "supervisor.dmsv";

/// Shed-phase stream index (fault families use 0..51, the writer 64).
constexpr std::uint64_t kShedStream = 80;

/// splitmix64 finalizer: the VIP -> shard mixer. A plain modulo would put
/// adjacent VIPs (one customer's contiguous allocation) on the same shard.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

[[nodiscard]] std::int64_t floor_div(std::int64_t a, std::int64_t b) noexcept {
  std::int64_t q = a / b;
  if (a % b != 0 && ((a < 0) != (b < 0))) --q;
  return q;
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  netflow::put_varint(out, v);
}

void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  netflow::put_varint(out, netflow::zigzag64(v));
}

[[nodiscard]] std::string shard_file_name(std::size_t tenant,
                                          std::uint32_t shard) {
  return "t" + std::to_string(tenant) + "-s" + std::to_string(shard) +
         ".dmck";
}

/// The tenant a cloud-side address routes to: the high half of its mix, so
/// the choice is independent of the shard (the low bits mod the shards).
[[nodiscard]] std::size_t tenant_of(std::uint32_t vip,
                                    std::size_t tenants) noexcept {
  return static_cast<std::size_t>(mix64(vip) >> 32) % tenants;
}

[[nodiscard]] Event alert_event(const detect::MinuteDetection& d) {
  Event e;
  e.kind = Event::Kind::kAlert;
  e.vip = d.vip.value();
  e.direction = static_cast<std::uint8_t>(d.direction);
  e.type = static_cast<std::uint8_t>(d.type);
  e.start = d.minute;
  e.end = d.minute + 1;
  e.packets = d.sampled_packets;
  e.remotes = d.unique_remotes;
  return e;
}

[[nodiscard]] Event incident_event(const detect::AttackIncident& inc) {
  Event e;
  e.kind = Event::Kind::kIncident;
  e.vip = inc.vip.value();
  e.direction = static_cast<std::uint8_t>(inc.direction);
  e.type = static_cast<std::uint8_t>(inc.type);
  e.start = inc.start;
  e.end = inc.end;
  e.packets = inc.total_sampled_packets;
  e.remotes = inc.peak_unique_remotes;
  return e;
}

}  // namespace

Supervisor::Supervisor(netflow::PrefixSet cloud_space,
                       const netflow::PrefixSet* blacklist,
                       std::vector<TenantSpec> tenants, ServeConfig config,
                       BufferedWriter* writer, exec::ThreadPool* pool)
    : cloud_space_(std::move(cloud_space)),
      blacklist_(blacklist),
      specs_(std::move(tenants)),
      config_(std::move(config)),
      writer_(writer),
      pool_(pool),
      shed_base_(util::Rng(config_.seed).split(kShedStream)) {
  if (specs_.empty()) throw ConfigError("serve: at least one tenant required");
  books_.resize(specs_.size());
  first_lane_.resize(specs_.size());
  std::size_t lanes = 0;
  for (std::size_t t = 0; t < specs_.size(); ++t) {
    TenantSpec& spec = specs_[t];
    spec.shards = std::max<std::uint32_t>(1, spec.shards);
    spec.shed_factor = std::max<std::uint64_t>(2, spec.shed_factor);
    books_[t].shards.resize(spec.shards);
    first_lane_[t] = lanes;
    lanes += spec.shards;
  }
  // Sized once: monitor callbacks hold their lane's address.
  lanes_.resize(lanes);
  for (std::size_t t = 0; t < specs_.size(); ++t) {
    for (std::uint32_t s = 0; s < specs_[t].shards; ++s) {
      Lane& lane = lanes_[first_lane_[t] + s];
      lane.tenant = t;
      lane.shard = s;
      lane.monitor = make_monitor(lane);
    }
  }
  if (pool_ != nullptr) runs_ = std::make_unique<exec::TaskGroup>(*pool_);
  if (!config_.state_dir.empty()) {
    rotator_ = std::make_unique<CheckpointRotator>(config_.state_dir,
                                                   config_.keep_generations);
  }
}

// Joins before any monitor is destroyed: a run in flight still uses it.
Supervisor::~Supervisor() { runs_.reset(); }

std::unique_ptr<detect::StreamMonitor> Supervisor::make_monitor(
    Lane& lane) const {
  // The callbacks run wherever the lane's run runs, so they touch only the
  // lane's outbox; deliver() numbers the events on the caller.
  return std::make_unique<detect::StreamMonitor>(
      cloud_space_, blacklist_, config_.detection, config_.timeouts,
      [&lane](const detect::MinuteDetection& d) {
        lane.outbox.push_back({lane.index, alert_event(d)});
      },
      [&lane](const detect::AttackIncident& inc) {
        lane.outbox.push_back({lane.index, incident_event(inc)});
      },
      config_.stream);
}

std::uint32_t Supervisor::shard_of(std::uint32_t vip,
                                   std::uint32_t shards) noexcept {
  if (shards <= 1) return 0;
  return static_cast<std::uint32_t>(mix64(vip) % shards);
}

std::uint32_t Supervisor::vip_of(
    const netflow::FlowRecord& record) const noexcept {
  if (cloud_space_.contains(record.dst_ip)) return record.dst_ip.value();
  if (cloud_space_.contains(record.src_ip)) return record.src_ip.value();
  return record.dst_ip.value();
}

void Supervisor::to_all_shards(std::size_t tenant, const ShardOp& op) {
  for (std::uint32_t s = 0; s < specs_[tenant].shards; ++s) {
    lanes_[first_lane_[tenant] + s].filling.push_back(op);
  }
}

void Supervisor::close_buckets(std::size_t tenant, util::Minute before) {
  TenantBook& book = books_[tenant];
  while (!book.open_buckets.empty() &&
         book.open_buckets.begin()->first < before) {
    const auto it = book.open_buckets.begin();
    const util::Minute minute = it->first;
    const BucketBook& bb = it->second;
    // Shed minutes are declared outages to the shards that shed in them:
    // a 1:k-sampled minute must not teach the volume detectors that the
    // tenant's baseline collapsed. The declaration rides in the shard's
    // run, between the same records as in a serial ingest.
    for (std::uint32_t s = 0; s < bb.shard_shed.size(); ++s) {
      if (bb.shard_shed[s] > 0) {
        ShardOp op;
        op.kind = ShardOp::Kind::kOutage;
        op.index = records_routed_;
        op.record.minute = minute;
        op.to = minute + 1;
        lanes_[first_lane_[tenant] + s].filling.push_back(op);
      }
    }
    if (bb.shed > 0) {
      book.ledger.push_back({minute, bb.offered, bb.admitted, bb.shed});
      if (book.ledger.size() > config_.ledger_capacity) {
        const ShedLedgerEntry& oldest = book.ledger.front();
        book.folded_offered += oldest.offered;
        book.folded_admitted += oldest.admitted;
        book.folded_shed += oldest.shed;
        book.ledger.erase(book.ledger.begin());
      }
    }
    book.open_buckets.erase(it);
  }
}

void Supervisor::drain(Lane& lane) {
  detect::StreamMonitor& monitor = *lane.monitor;
  for (const ShardOp& op : lane.running) {
    lane.index = op.index;
    switch (op.kind) {
      case ShardOp::Kind::kIngest:
        monitor.ingest(op.record);
        if (op.refresh_gauge) lane.gauge = monitor.approx_state_bytes();
        break;
      case ShardOp::Kind::kOutage:
        monitor.note_outage(op.record.minute, op.to);
        break;
      case ShardOp::Kind::kAdvance:
        monitor.advance_to(op.record.minute);
        break;
      case ShardOp::Kind::kFinish:
        monitor.finish();
        break;
    }
  }
  lane.running.clear();
}

void Supervisor::launch() {
  for (std::size_t f = 0; f < lanes_.size(); ++f) {
    Lane& lane = lanes_[f];
    if (lane.filling.empty()) continue;
    std::swap(lane.filling, lane.running);
    if (runs_ != nullptr) {
      runs_->run([&lane] { drain(lane); }, f);
    } else {
      drain(lane);
    }
  }
}

void Supervisor::join() const {
  if (runs_ != nullptr) runs_->wait();
}

void Supervisor::deliver() {
  // Every feed index belongs to one shard, so a merge by index replays the
  // serial emission order; advance/finish ops share an index and tie-break
  // in shard order, as the serial loops over tenants and shards did.
  std::vector<std::size_t> next(lanes_.size(), 0);
  for (;;) {
    std::size_t from = lanes_.size();
    for (std::size_t f = 0; f < lanes_.size(); ++f) {
      if (next[f] == lanes_[f].outbox.size()) continue;
      if (from == lanes_.size() ||
          lanes_[f].outbox[next[f]].index <
              lanes_[from].outbox[next[from]].index) {
        from = f;
      }
    }
    if (from == lanes_.size()) break;
    Event& e = lanes_[from].outbox[next[from]++].event;
    const std::size_t tenant = lanes_[from].tenant;
    e.tenant = specs_[tenant].name;
    e.seq = books_[tenant].event_seq++;
    if (writer_ != nullptr) writer_->push(std::move(e));
  }
  for (Lane& lane : lanes_) {
    lane.outbox.clear();
    if (lane.gauge) {
      books_[lane.tenant].shards[lane.shard].state_gauge = *lane.gauge;
      lane.gauge.reset();
    }
  }
}

void Supervisor::barrier() {
  join();
  launch();
  join();
  deliver();
}

void Supervisor::ingest(std::size_t tenant, const netflow::FlowRecord& record) {
  admit(tenant, record, vip_of(record));
}

void Supervisor::ingest_routed(const netflow::FlowRecord& record) {
  const std::uint32_t vip = vip_of(record);
  admit(tenant_of(vip, specs_.size()), record, vip);
}

void Supervisor::admit(std::size_t tenant, const netflow::FlowRecord& record,
                       std::uint32_t vip) {
  if (newest_ == kNoMinute || record.minute > newest_) {
    newest_ = record.minute;
    // The monitors ingest the minute just filled while the caller admits
    // this one.
    join();
    deliver();
    launch();
    // Rotation boundary first: the committed state is exactly "everything
    // before feed index records_routed_", which is what recover() reports.
    // The rotation bucket can only advance with the newest minute.
    if (rotator_ != nullptr && config_.rotation_interval > 0) {
      const std::int64_t bucket =
          floor_div(record.minute, config_.rotation_interval);
      if (rotation_mark_ == INT64_MIN) {
        rotation_mark_ = bucket;
      } else if (bucket > rotation_mark_) {
        rotation_mark_ = bucket;
        rotate_now(auto_kill_);
      }
    }
  }
  const std::uint64_t index = records_routed_++;

  TenantSpec& spec = specs_[tenant];
  TenantBook& book = books_[tenant];
  if (record.minute > book.high_water || book.high_water == kNoMinute) {
    close_buckets(tenant, util::saturating_sub(record.minute,
                                               config_.stream.reorder_lag));
    book.high_water = record.minute;
  }

  const std::uint32_t s = shard_of(vip, spec.shards);
  ShardBook& sb = book.shards[s];
  BucketBook& bb = book.open_buckets[record.minute];
  if (bb.shard_shed.size() != spec.shards) bb.shard_shed.resize(spec.shards);

  ++book.offered;
  ++bb.offered;
  const std::uint64_t position = sb.offered++;

  const bool over_rate = spec.max_records_per_minute > 0 &&
                         bb.offered > spec.max_records_per_minute;
  const bool over_memory =
      spec.max_state_bytes > 0 && sb.state_gauge > spec.max_state_bytes;
  if (over_rate || over_memory) {
    // 1:k systematic sampling: admit the records whose per-shard arrival
    // position lands on the seeded phase. The position counter serializes
    // with the book, so a resumed run sheds the identical records.
    const std::uint64_t k = spec.shed_factor;
    util::Rng phase_draw = shed_base_.split(tenant).split(s).split(
        static_cast<std::uint64_t>(record.minute));
    if (position % k != phase_draw.below(k)) {
      ++book.shed;
      ++bb.shed;
      ++sb.shed;
      ++bb.shard_shed[s];
      return;
    }
  }

  ++book.admitted;
  ++bb.admitted;
  ++sb.admitted;
  ShardOp op;
  op.record = record;
  op.index = index;
  op.refresh_gauge =
      config_.gauge_refresh > 0 && sb.admitted % config_.gauge_refresh == 0;
  lanes_[first_lane_[tenant] + s].filling.push_back(op);
  // A memory-budgeted shard's next admission reads the fresh gauge.
  if (op.refresh_gauge && spec.max_state_bytes > 0) barrier();
}

void Supervisor::note_outage(std::size_t tenant, util::Minute from,
                             util::Minute to) {
  ShardOp op;
  op.kind = ShardOp::Kind::kOutage;
  op.index = records_routed_;
  op.record.minute = from;
  op.to = to;
  to_all_shards(tenant, op);
}

void Supervisor::advance_to(util::Minute minute) {
  ShardOp op;
  op.kind = ShardOp::Kind::kAdvance;
  op.index = records_routed_;
  op.record.minute = minute;
  for (std::size_t t = 0; t < specs_.size(); ++t) {
    close_buckets(t, minute);
    if (books_[t].high_water == kNoMinute || books_[t].high_water < minute) {
      books_[t].high_water = minute;
    }
    to_all_shards(t, op);
  }
  barrier();
}

void Supervisor::finish() {
  ShardOp op;
  op.kind = ShardOp::Kind::kFinish;
  op.index = records_routed_;
  for (std::size_t t = 0; t < specs_.size(); ++t) {
    close_buckets(t, INT64_MAX);
    to_all_shards(t, op);
  }
  barrier();
  if (writer_ != nullptr) writer_->drain();
}

std::vector<std::uint8_t> Supervisor::encode_books() const {
  std::vector<std::uint8_t> payload;
  put_u64(payload, records_routed_);
  put_i64(payload, rotation_mark_);
  put_u64(payload, books_.size());
  for (const TenantBook& b : books_) {
    // dmlint: covers(b, TenantBook)
    put_u64(payload, b.offered);
    put_u64(payload, b.admitted);
    put_u64(payload, b.shed);
    put_u64(payload, b.event_seq);
    put_u64(payload, b.folded_offered);
    put_u64(payload, b.folded_admitted);
    put_u64(payload, b.folded_shed);
    put_i64(payload, b.high_water);
    put_u64(payload, b.open_buckets.size());
    for (const auto& [minute, bb] : b.open_buckets) {
      // dmlint: covers(bb, BucketBook)
      put_i64(payload, minute);
      put_u64(payload, bb.offered);
      put_u64(payload, bb.admitted);
      put_u64(payload, bb.shed);
      put_u64(payload, bb.shard_shed.size());
      for (const std::uint64_t shed : bb.shard_shed) put_u64(payload, shed);
      // dmlint: covers-end(bb)
    }
    put_u64(payload, b.ledger.size());
    for (const ShedLedgerEntry& e : b.ledger) {
      // dmlint: covers(e, ShedLedgerEntry)
      put_i64(payload, e.minute);
      put_u64(payload, e.offered);
      put_u64(payload, e.admitted);
      put_u64(payload, e.shed);
      // dmlint: covers-end(e)
    }
    put_u64(payload, b.shards.size());
    for (const ShardBook& sb : b.shards) {
      // dmlint: covers(sb, ShardBook)
      put_u64(payload, sb.offered);
      put_u64(payload, sb.admitted);
      put_u64(payload, sb.shed);
      put_u64(payload, sb.state_gauge);
      // dmlint: covers-end(sb)
    }
    // dmlint: covers-end(b)
  }

  std::vector<std::uint8_t> out;
  out.reserve(payload.size() + 16);
  netflow::put_frame_header(out, kBookMagic, kBookVersion);
  netflow::put_frame_body(out, payload);
  return out;
}

void Supervisor::decode_books(const std::vector<std::uint8_t>& bytes,
                              std::vector<TenantBook>& tenants_out,
                              std::uint64_t& routed_out,
                              std::int64_t& rotation_mark_out) const {
  using netflow::FrameError;
  const auto damaged = [](FrameError::Kind kind) {
    return FrameError(kind, std::string("book: ") + netflow::describe(kind));
  };
  if (const auto bad =
          netflow::check_frame_header(bytes, kBookMagic, kBookVersion)) {
    throw damaged(*bad);
  }
  const netflow::SpanBody body =
      netflow::read_frame_body(bytes, netflow::kFrameHeaderBytes, {});
  if (body.error) throw damaged(*body.error);

  netflow::CheckedCursor cur(body.payload, "book");
  const auto get_u64 = [&cur] { return cur.varint(); };
  const auto get_i64 = [&cur] { return netflow::unzigzag64(cur.varint()); };

  // A CRC-valid book that does not decode, or that another tenant
  // configuration wrote, is a FrameError of kind kMalformedPayload.
  try {
  routed_out = get_u64();
  rotation_mark_out = get_i64();
  const std::uint64_t tenant_count = get_u64();
  if (tenant_count != specs_.size()) {
    throw FormatError("book: tenant count does not match configuration");
  }
  tenants_out.assign(specs_.size(), TenantBook{});
  for (std::size_t t = 0; t < tenants_out.size(); ++t) {
    TenantBook& b = tenants_out[t];
    // dmlint: covers(b, TenantBook)
    b.offered = get_u64();
    b.admitted = get_u64();
    b.shed = get_u64();
    b.event_seq = get_u64();
    b.folded_offered = get_u64();
    b.folded_admitted = get_u64();
    b.folded_shed = get_u64();
    b.high_water = get_i64();
    const std::uint64_t buckets = get_u64();
    for (std::uint64_t i = 0; i < buckets; ++i) {
      const util::Minute minute = get_i64();
      BucketBook& bb = b.open_buckets[minute];
      // dmlint: covers(bb, BucketBook)
      bb.offered = get_u64();
      bb.admitted = get_u64();
      bb.shed = get_u64();
      const std::uint64_t shard_count = get_u64();
      if (shard_count != specs_[t].shards) {
        throw FormatError("book: bucket shard count mismatch");
      }
      bb.shard_shed.resize(shard_count);
      for (std::uint64_t s = 0; s < shard_count; ++s) {
        bb.shard_shed[s] = get_u64();
      }
      // dmlint: covers-end(bb)
    }
    const std::uint64_t ledger_count = get_u64();
    b.ledger.resize(ledger_count);
    for (ShedLedgerEntry& e : b.ledger) {
      // dmlint: covers(e, ShedLedgerEntry)
      e.minute = get_i64();
      e.offered = get_u64();
      e.admitted = get_u64();
      e.shed = get_u64();
      // dmlint: covers-end(e)
    }
    const std::uint64_t shard_count = get_u64();
    if (shard_count != specs_[t].shards) {
      throw FormatError("book: shard count does not match configuration");
    }
    b.shards.resize(shard_count);
    for (ShardBook& sb : b.shards) {
      // dmlint: covers(sb, ShardBook)
      sb.offered = get_u64();
      sb.admitted = get_u64();
      sb.shed = get_u64();
      sb.state_gauge = get_u64();
      // dmlint: covers-end(sb)
    }
    // dmlint: covers-end(b)
  }
  } catch (const FormatError& e) {
    throw FrameError(FrameError::Kind::kMalformedPayload, e.what());
  }
  if (!cur.exhausted()) {
    throw FrameError(FrameError::Kind::kTrailingBytes, "book: trailing bytes");
  }
}

std::vector<ShardFile> Supervisor::snapshot_files() {
  barrier();
  // Each monitor serializes independently, so the pool can checkpoint
  // shards concurrently with identical bytes.
  std::vector<std::vector<std::uint8_t>> blobs =
      exec::parallel_map<std::vector<std::uint8_t>>(
          pool_, lanes_.size(), [&](std::size_t f) {
            std::ostringstream out(std::ios::binary);
            lanes_[f].monitor->checkpoint(out);
            const std::string s = out.str();
            return std::vector<std::uint8_t>(s.begin(), s.end());
          });
  std::vector<ShardFile> files;
  files.reserve(lanes_.size() + 1);
  files.push_back({kBookFile, encode_books()});
  for (std::size_t f = 0; f < lanes_.size(); ++f) {
    files.push_back({shard_file_name(lanes_[f].tenant, lanes_[f].shard),
                     std::move(blobs[f])});
  }
  return files;
}

std::int64_t Supervisor::rotate_now(fault::KillSwitch* kill) {
  if (rotator_ == nullptr) return -1;
  last_generation_ = rotator_->rotate(snapshot_files(), kill);
  return last_generation_;
}

RecoveryReport Supervisor::recover() {
  RecoveryReport report;
  if (rotator_ == nullptr) return report;
  barrier();

  std::vector<TenantBook> books;
  std::uint64_t routed = 0;
  std::int64_t mark = INT64_MIN;
  std::vector<std::unique_ptr<detect::StreamMonitor>> monitors;  // per lane

  const auto decode_ok = [&](const LoadedGeneration& gen,
                             std::string& why) -> bool {
    books.clear();
    monitors.clear();
    const ShardFile* book_file = nullptr;
    std::size_t shard_files = 0;
    for (const ShardFile& f : gen.files) {
      if (f.name == kBookFile) book_file = &f;
      else ++shard_files;
    }
    std::size_t expected_shards = 0;
    for (const TenantSpec& spec : specs_) expected_shards += spec.shards;
    if (book_file == nullptr || shard_files != expected_shards) {
      why = "generation does not match the tenant configuration";
      return false;
    }
    try {
      decode_books(book_file->bytes, books, routed, mark);
      for (Lane& lane : lanes_) {
        const std::string name = shard_file_name(lane.tenant, lane.shard);
        const ShardFile* file = nullptr;
        for (const ShardFile& f : gen.files) {
          if (f.name == name) {
            file = &f;
            break;
          }
        }
        if (file == nullptr) {
          why = "missing shard checkpoint " + name;
          return false;
        }
        auto monitor = make_monitor(lane);
        std::istringstream in(
            std::string(file->bytes.begin(), file->bytes.end()),
            std::ios::binary);
        monitor->restore(in);
        monitors.push_back(std::move(monitor));
      }
    } catch (const FormatError& e) {
      why = e.what();
      return false;
    }
    return true;
  };

  const LoadedGeneration loaded = rotator_->recover(report.ledger, decode_ok);
  if (loaded.generation >= 0) {
    books_ = std::move(books);
    for (std::size_t f = 0; f < lanes_.size(); ++f) {
      lanes_[f].monitor = std::move(monitors[f]);
    }
    records_routed_ = routed;
    rotation_mark_ = mark;
    last_generation_ = loaded.generation;
    report.generation = loaded.generation;
    report.resume_index = routed;
  }
  return report;
}

std::string Supervisor::status_report() {
  barrier();
  util::TextTable table;
  table.set_header({"tenant", "shards", "offered", "admitted", "shed", "late",
                    "quarantined", "alerts", "incidents"});
  for (std::size_t t = 0; t < specs_.size(); ++t) {
    const TenantBook& b = books_[t];
    std::uint64_t late = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t alerts = 0;
    std::uint64_t incidents = 0;
    for (std::uint32_t s = 0; s < specs_[t].shards; ++s) {
      const detect::StreamMonitor& monitor =
          *lanes_[first_lane_[t] + s].monitor;
      late += monitor.records_late();
      quarantined += monitor.records_quarantined();
      alerts += monitor.alerts();
      incidents += monitor.incidents();
    }
    table.row(specs_[t].name, std::to_string(specs_[t].shards),
              std::to_string(b.offered), std::to_string(b.admitted),
              std::to_string(b.shed), std::to_string(late),
              std::to_string(quarantined), std::to_string(alerts),
              std::to_string(incidents));
  }
  std::ostringstream out;
  out << table.render();
  out << "\nrecords routed: " << records_routed_ << "\n";
  if (rotator_ != nullptr) {
    out << "checkpoint generation: " << last_generation_ << " (dir "
        << rotator_->root() << ")\n";
  }
  if (writer_ != nullptr) {
    const WriterStats ws = writer_->stats();
    out << "sink: enqueued " << ws.enqueued << ", delivered " << ws.delivered
        << ", retries " << ws.retries << ", dropped " << ws.dropped
        << ", spilled " << ws.spilled << "\n";
  }
  return out.str();
}

}  // namespace dm::serve
