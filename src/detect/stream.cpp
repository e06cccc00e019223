#include "detect/stream.h"

#include <algorithm>
#include <bit>
#include <istream>
#include <ostream>
#include <string>

#include "netflow/frame.h"
#include "netflow/varint.h"
#include "util/error.h"

namespace dm::detect {

using netflow::Direction;
using netflow::FlowRecord;
using netflow::FrameError;
using netflow::OrientedFlow;
using netflow::VipMinuteStats;

namespace {

// A checkpoint is one frame (netflow/frame.h): magic + version, then one
// varint-sized CRC-protected payload, so a damaged checkpoint fails loudly
// instead of resuming from garbage.
constexpr std::uint32_t kCheckpointMagic = 0x4b434d44;  // "DMCK" little-endian
constexpr std::uint16_t kCheckpointVersion = 2;

/// A recycled minute keeps at most twice the windows it last held (and at
/// least this many), so one busy minute does not pin its storage.
constexpr std::size_t kKeptWindows = 64;

/// approx_state_bytes()'s per-entry sizes: an open minute, an open window
/// and a series' bank, each with its key and an allowance for container
/// overhead. They are constants, not sizeof()s, because serve's memory
/// budget sheds against the gauge and its books store it, so its value
/// must not move when a struct does.
constexpr std::uint64_t kMinuteGaugeBytes = 56;
constexpr std::uint64_t kWindowGaugeBytes = 232;
constexpr std::uint64_t kSeriesGaugeBytes = 520;

[[nodiscard]] constexpr std::uint64_t series_key(std::uint32_t vip,
                                                 Direction direction) noexcept {
  return (std::uint64_t{vip} << 8) | static_cast<std::uint8_t>(direction);
}
[[nodiscard]] constexpr std::uint32_t key_vip(std::uint64_t key) noexcept {
  return static_cast<std::uint32_t>(key >> 8);
}
[[nodiscard]] constexpr Direction key_direction(std::uint64_t key) noexcept {
  return static_cast<Direction>(key & 0xffu);
}

/// Content hash for duplicate suppression: FNV-1a over every record field.
/// 64 bits keeps accidental collisions (a distinct record silently dropped)
/// below ~2^-32 per open minute at realistic window populations.
[[nodiscard]] std::uint64_t record_hash(const FlowRecord& r) noexcept {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(r.minute));
  mix(r.src_ip.value());
  mix(r.dst_ip.value());
  mix((static_cast<std::uint64_t>(r.src_port) << 16) | r.dst_port);
  mix((static_cast<std::uint64_t>(r.protocol) << 8) |
      static_cast<std::uint64_t>(r.tcp_flags));
  mix(r.packets);
  mix(r.bytes);
  return h;
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  netflow::put_varint(out, v);
}

void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  netflow::put_varint(out, netflow::zigzag64(v));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  netflow::put_varint(out, std::bit_cast<std::uint64_t>(v));
}

/// Serializes a dedup hash set as (count, sorted elements): checkpoint
/// bytes stay a pure function of monitor state.
void put_hash_set(std::vector<std::uint8_t>& out,
                  const std::unordered_set<std::uint64_t>& hashes) {
  // dmlint: allow(unordered-iteration) drained into a sorted vector before any byte is written
  std::vector<std::uint64_t> sorted(hashes.begin(), hashes.end());
  std::sort(sorted.begin(), sorted.end());
  put_u64(out, sorted.size());
  for (const std::uint64_t h : sorted) put_u64(out, h);
}

}  // namespace

StreamMonitor::StreamMonitor(netflow::PrefixSet cloud_space,
                             const netflow::PrefixSet* blacklist,
                             DetectionConfig config, TimeoutTable timeouts,
                             AlertCallback on_alert,
                             IncidentCallback on_incident, StreamConfig stream)
    : cloud_space_(std::move(cloud_space)),
      blacklist_(blacklist),
      config_(config),
      timeouts_(timeouts),
      on_alert_(std::move(on_alert)),
      on_incident_(std::move(on_incident)),
      stream_(stream),
      incident_builder_(timeouts_) {
  if (stream_.reorder_lag < 0) {
    throw ConfigError("stream: reorder lag must be >= 0, got " +
                      std::to_string(stream_.reorder_lag));
  }
}

void StreamMonitor::ingest(const FlowRecord& record) {
  ++records_ingested_;
  // A NetFlow record with zero sampled packets is structurally impossible
  // (a flow exists because at least one packet was sampled) — quarantine
  // rather than poison per-packet counters with flow-count-only windows.
  if (record.packets == 0) {
    ++records_quarantined_;
    return;
  }
  if (record.minute <= watermark_) {
    ++records_late_;  // its window is already committed
    return;
  }
  if (stream_.suppress_duplicates &&
      !seen_[record.minute].insert(record_hash(record)).second) {
    ++records_duplicate_;
    return;
  }
  const auto direction = netflow::classify(record, cloud_space_);
  if (!direction) {
    ++records_unclassifiable_;
    return;
  }

  // A record for minute M moves the watermark to M - reorder_lag and
  // commits everything at or before it. The record's own minute always
  // stays open (it is > watermark_ and M - reorder_lag - 1 <= max_seen_).
  max_seen_ = std::max(max_seen_, record.minute);
  commit_to(util::saturating_sub(max_seen_, stream_.reorder_lag));

  // Most records land in the window of the record before them.
  const OrientedFlow flow{&record, *direction};
  const SeriesKey key = series_key(flow.vip().value(), *direction);
  if (memo_.window == nullptr || memo_.minute != record.minute ||
      memo_.key != key) {
    memo_ = {record.minute, key,
             &state_.window(record.minute, key, spare_minute_)};
  }
  OpenWindow& open = *memo_.window;
  VipMinuteStats& w = open.stats;
  if (w.flows == 0) {
    w.vip = flow.vip();
    w.minute = record.minute;
    w.direction = *direction;
  }
  const unsigned classes = netflow::accumulate(
      w, {record.protocol, record.tcp_flags, record.src_port,
          flow.service_port(), record.packets, record.bytes,
          blacklist_ != nullptr && blacklist_->contains(flow.remote_ip())});
  netflow::count_distinct(
      w, open.remotes.insert(flow.remote_ip().value(), classes));
}

void StreamMonitor::FlatIndex::grow() {
  std::vector<Slot> old = std::exchange(
      slots_, std::vector<Slot>(std::max<std::size_t>(16, 2 * slots_.size())));
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.key == kFree) continue;
    std::size_t i = slot_of(slot.key) & mask;
    while (slots_[i].key != kFree) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

void StreamMonitor::FlatIndex::clear() noexcept {
  if (size_ != 0) std::fill(slots_.begin(), slots_.end(), Slot{});
  size_ = 0;
}

std::uint32_t StreamMonitor::FlatState::id_of(SeriesKey key) {
  const std::uint32_t id =
      ids.find_or_insert(key, static_cast<std::uint32_t>(series.size()));
  if (id == series.size()) series.push_back({key, nullptr});
  return id;
}

StreamMonitor::OpenWindow& StreamMonitor::FlatState::window(
    util::Minute minute, SeriesKey key, MinuteTable& spare) {
  const std::uint32_t id = id_of(key);
  auto [it, fresh] = minutes.try_emplace(minute);
  MinuteTable& table = it->second;
  if (fresh) table = std::exchange(spare, MinuteTable{});
  const std::uint32_t slot =
      table.slots.find_or_insert(id, static_cast<std::uint32_t>(table.used));
  if (slot == table.used) {
    if (table.used == table.windows.size()) {
      table.windows.emplace_back();
    } else {
      table.windows[slot].stats = VipMinuteStats{};
    }
    table.ids.push_back(id);
    ++table.used;
  }
  return table.windows[slot];
}

StreamMonitor::SeriesState& StreamMonitor::FlatState::bank(
    std::uint32_t id, const DetectionConfig& config) {
  std::unique_ptr<SeriesState>& bank = series[id].bank;
  if (!bank) {
    bank = std::make_unique<SeriesState>(config);
    ++banks;
  }
  return *bank;
}

void StreamMonitor::advance_to(util::Minute minute) {
  max_seen_ = std::max(max_seen_, minute);
  commit_to(minute);
}

void StreamMonitor::commit_to(util::Minute minute) {
  while (!state_.minutes.empty() && state_.minutes.begin()->first < minute) {
    close_first_minute();
  }
  watermark_ = std::max(watermark_, util::saturating_sub(minute, 1));
  // Dedup sets of committed minutes can no longer be consulted (those
  // minutes reject everything as late) — drop them so memory stays
  // proportional to the open horizon.
  while (!seen_.empty() && seen_.begin()->first <= watermark_) {
    seen_.erase(seen_.begin());
  }
  std::vector<AttackIncident> closed;
  incident_builder_.expire(minute, closed);
  emit(closed);
}

void StreamMonitor::sort_windows(const MinuteTable& table,
                                 KeyedIndices& out) const {
  out.clear();
  for (std::size_t i = 0; i < table.used; ++i) {
    out.emplace_back(state_.series[table.ids[i]].key,
                     static_cast<std::uint32_t>(i));
  }
  std::sort(out.begin(), out.end());
}

void StreamMonitor::close_first_minute() {
  memo_.window = nullptr;
  const auto first = state_.minutes.begin();
  MinuteTable& table = first->second;
  sort_windows(table, close_order_);
  for (const auto& [key, slot] : close_order_) {
    feed_window(table.ids[slot], table.windows[slot]);
    ++windows_closed_;
  }
  // The storage waits for the next minute to open: on an in-order feed
  // one opens for each that closes.
  if (table.windows.size() > std::max(kKeptWindows, 2 * table.used)) {
    table.windows.resize(table.used);
    table.windows.shrink_to_fit();
    table.slots = FlatIndex{};
  }
  for (std::size_t i = 0; i < table.used; ++i) {
    table.windows[i].remotes.clear();
  }
  table.ids.clear();
  table.slots.clear();
  table.used = 0;
  spare_minute_ = std::move(table);
  state_.minutes.erase(first);
}

void StreamMonitor::note_outage(util::Minute from, util::Minute to) {
  if (to <= from) return;
  outages_.emplace_back(from, to);
  std::sort(outages_.begin(), outages_.end());
  std::vector<std::pair<util::Minute, util::Minute>> merged;
  merged.reserve(outages_.size());
  for (const auto& o : outages_) {
    if (!merged.empty() && o.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, o.second);
    } else {
      merged.push_back(o);
    }
  }
  outages_ = std::move(merged);
}

std::size_t StreamMonitor::outage_overlap(util::Minute from,
                                          util::Minute to) const noexcept {
  std::size_t total = 0;
  for (const auto& [start, end] : outages_) {
    const util::Minute lo = std::max(from, start);
    const util::Minute hi = std::min(to, end);
    if (hi > lo) total += static_cast<std::size_t>(hi - lo);
  }
  return total;
}

void StreamMonitor::feed_window(std::uint32_t id, const OpenWindow& open) {
  SeriesState& series = state_.bank(id, config_);
  // Minutes of the series' silent gap that fall inside a declared outage
  // carry no information: the change-point baselines must not absorb them
  // as zeros (which would both collapse the EWMA and accrue warm-up
  // history during a gap that saw no collector at all).
  const util::Minute reference =
      series.last_minute < 0 ? 0 : series.last_minute + 1;
  const std::size_t excluded =
      open.stats.minute > reference
          ? outage_overlap(reference, open.stats.minute)
          : 0;
  series.last_minute = open.stats.minute;
  const auto verdicts = series.detector.observe(open.stats, excluded);
  for (std::size_t t = 0; t < sim::kAttackTypeCount; ++t) {
    if (!verdicts[t].attack) continue;
    MinuteDetection detection{open.stats.vip,
                              key_direction(state_.series[id].key),
                              sim::kAllAttackTypes[t], open.stats.minute,
                              verdicts[t].sampled_packets,
                              verdicts[t].unique_remotes};
    ++alerts_;
    if (on_alert_) on_alert_(detection);
    std::vector<AttackIncident> closed;
    incident_builder_.feed(detection, closed);
    emit(closed);
  }
}

void StreamMonitor::emit(const std::vector<AttackIncident>& closed) {
  for (const AttackIncident& inc : closed) {
    ++incidents_;
    if (on_incident_) on_incident_(inc);
  }
}

void StreamMonitor::finish() {
  while (!state_.minutes.empty()) {
    const util::Minute minute = state_.minutes.begin()->first;
    close_first_minute();
    watermark_ = std::max(watermark_, minute);
  }
  seen_.clear();
  std::vector<AttackIncident> closed;
  incident_builder_.flush(closed);
  emit(closed);
}

std::uint64_t StreamMonitor::approx_state_bytes() const noexcept {
  // Entry sizes plus table and list payloads: a stable gauge of the state
  // the checkpoint would serialize, cheap enough to walk once per
  // accounting minute. Deliberately ignores allocator overhead and
  // hash-table load factors so the number is identical across runs and
  // platforms.
  std::uint64_t bytes = 0;
  for (const auto& [minute, table] : state_.minutes) {
    bytes += kMinuteGaugeBytes;
    for (std::size_t i = 0; i < table.used; ++i) {
      bytes += kWindowGaugeBytes +
               table.windows[i].remotes.size() * sizeof(std::uint64_t);
    }
  }
  bytes += state_.banks * kSeriesGaugeBytes;
  for (const auto& [key, live] : incident_builder_.live()) {
    bytes += sizeof(key) + sizeof(live) + 48 +
             live.peaks.size() * sizeof(live.peaks[0]);
  }
  bytes += outages_.size() * sizeof(outages_[0]);
  for (const auto& [minute, hashes] : seen_) {
    bytes += sizeof(minute) + 48 + 8 * hashes.size();
  }
  return bytes;
}

void StreamMonitor::checkpoint(std::ostream& out) const {
  std::vector<std::uint8_t> payload;

  // Watermarks and counters.
  put_i64(payload, watermark_);
  put_i64(payload, max_seen_);
  put_u64(payload, records_ingested_);
  put_u64(payload, records_late_);
  put_u64(payload, records_unclassifiable_);
  put_u64(payload, records_duplicate_);
  put_u64(payload, records_quarantined_);
  put_u64(payload, windows_closed_);
  put_u64(payload, alerts_);
  put_u64(payload, incidents_);

  // Declared outages.
  put_u64(payload, outages_.size());
  for (const auto& [from, to] : outages_) {
    put_i64(payload, from);
    put_i64(payload, to);
  }

  // Open windows, minutes ascending and each minute's windows by series
  // key.
  KeyedIndices order;
  put_u64(payload, state_.minutes.size());
  for (const auto& [minute, table] : state_.minutes) {
    put_i64(payload, minute);
    put_u64(payload, table.used);
    sort_windows(table, order);
    for (const auto& [key, slot] : order) {
      put_u64(payload, key_vip(key));
      put_u64(payload, static_cast<std::uint64_t>(key_direction(key)));
      const OpenWindow& open = table.windows[slot];
      // dmlint: covers(open, OpenWindow)
      // dmlint: covers(w, VipMinuteStats)
      const VipMinuteStats& w = open.stats;
      put_u64(payload, w.vip.value());
      put_i64(payload, w.minute);
      put_u64(payload, static_cast<std::uint64_t>(w.direction));
      put_u64(payload, w.packets);
      put_u64(payload, w.bytes);
      put_u64(payload, w.tcp_packets);
      put_u64(payload, w.udp_packets);
      put_u64(payload, w.icmp_packets);
      put_u64(payload, w.ipencap_packets);
      put_u64(payload, w.syn_packets);
      put_u64(payload, w.null_scan_packets);
      put_u64(payload, w.xmas_scan_packets);
      put_u64(payload, w.bare_rst_packets);
      put_u64(payload, w.dns_response_packets);
      put_u64(payload, w.flows);
      put_u64(payload, w.unique_remote_ips);
      put_u64(payload, w.smtp_flows);
      put_u64(payload, w.unique_smtp_remotes);
      put_u64(payload, w.remote_admin_flows);
      put_u64(payload, w.unique_admin_remotes);
      put_u64(payload, w.sql_flows);
      put_u64(payload, w.smtp_packets);
      put_u64(payload, w.admin_packets);
      put_u64(payload, w.sql_packets);
      put_u64(payload, w.blacklist_flows);
      put_u64(payload, w.unique_blacklist_remotes);
      put_u64(payload, w.blacklist_packets);
      put_u64(payload, w.first_record);
      put_u64(payload, w.last_record);
      // dmlint: covers-end(w)
      const auto remotes = open.remotes.sorted();
      put_u64(payload, remotes.size());
      for (const auto& [remote, classes] : remotes) {
        put_u64(payload, remote);
        put_u64(payload, classes);
      }
      // dmlint: covers-end(open)
    }
  }

  // Detector baselines, by series key.
  order.clear();
  for (std::size_t id = 0; id < state_.series.size(); ++id) {
    if (state_.series[id].bank) {
      order.emplace_back(state_.series[id].key,
                         static_cast<std::uint32_t>(id));
    }
  }
  std::sort(order.begin(), order.end());
  put_u64(payload, order.size());
  for (const auto& [key, id] : order) {
    put_u64(payload, key_vip(key));
    put_u64(payload, static_cast<std::uint64_t>(key_direction(key)));
    const SeriesState& series = *state_.series[id].bank;
    // dmlint: covers(series, SeriesState)
    put_i64(payload, series.last_minute);
    const SeriesDetector::StateArray states = series.detector.state();
    // dmlint: covers-end(series)
    // dmlint: covers(s, State)
    for (const ChangePointDetector::State& s : states) {
      put_f64(payload, s.ewma_value);
      put_u64(payload, s.observations);
      put_i64(payload, s.last_minute);
    }
    // dmlint: covers-end(s)
  }

  // Live incidents, in key order; closed ones are gone, their counters
  // already fired.
  put_u64(payload, incident_builder_.live().size());
  for (const auto& [key, live] : incident_builder_.live()) {
    // dmlint: covers(live, LiveIncident)
    // dmlint: covers(inc, AttackIncident)
    const AttackIncident& inc = live.incident;
    put_u64(payload, inc.vip.value());
    put_u64(payload, static_cast<std::uint64_t>(inc.direction));
    put_i64(payload, static_cast<std::int64_t>(inc.type));
    put_i64(payload, inc.start);
    put_i64(payload, inc.end);
    put_u64(payload, inc.active_minutes);
    put_u64(payload, inc.total_sampled_packets);
    put_u64(payload, inc.peak_sampled_ppm);
    put_u64(payload, inc.peak_unique_remotes);
    put_i64(payload, inc.ramp_up_minutes);
    // dmlint: covers-end(inc)
    put_u64(payload, live.peaks.size());
    for (const auto& [minute, packets] : live.peaks) {
      put_i64(payload, minute);
      put_u64(payload, packets);
    }
    // dmlint: covers-end(live)
  }

  // Dedup hashes of still-open minutes, sorted for determinism.
  put_u64(payload, seen_.size());
  for (const auto& [minute, hashes] : seen_) {
    put_i64(payload, minute);
    put_hash_set(payload, hashes);
  }

  std::vector<std::uint8_t> frame;
  frame.reserve(payload.size() + 24);
  netflow::put_frame_header(frame, kCheckpointMagic, kCheckpointVersion);
  netflow::put_frame_body(frame, payload);
  out.write(reinterpret_cast<const char*>(frame.data()),
            static_cast<std::streamsize>(frame.size()));
}

void StreamMonitor::restore(std::istream& in) {
  // Frame validation happens in full — header, size, payload bytes, CRC —
  // before a single payload varint is decoded, and decoding lands in local
  // state swapped in only at the very end. Every exit path before the final
  // swap therefore leaves this monitor byte-identical to its pre-call
  // state, including on empty and truncated streams.
  std::vector<std::uint8_t> payload;
  netflow::read_frame_header(in, kCheckpointMagic, kCheckpointVersion,
                             "checkpoint");
  netflow::read_frame_body(in, payload, {}, "checkpoint");

  netflow::CheckedCursor cur(payload, "checkpoint");
  const auto get_u64 = [&cur] { return cur.varint(); };
  const auto get_i64 = [&cur] { return netflow::unzigzag64(cur.varint()); };
  const auto get_f64 = [&cur] { return std::bit_cast<double>(cur.varint()); };

  // Decode into fresh state so a failure mid-payload (impossible after the
  // CRC check short of an encoder bug, but cheap to guard) leaves the
  // monitor untouched. The fresh builder's expiry gate starts open, which
  // is safe: expiring again at an already-expired minute closes nothing.
  FlatState state;
  MinuteTable no_spare;
  IncidentBuilder incident_builder(timeouts_);
  decltype(outages_) outages;
  decltype(seen_) seen;

  util::Minute watermark = 0;
  util::Minute max_seen = 0;
  std::uint64_t ingested = 0;
  std::uint64_t late = 0;
  std::uint64_t unclassifiable = 0;
  std::uint64_t duplicate = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t closed = 0;
  std::uint64_t alerts = 0;
  std::uint64_t incidents = 0;

  // A CRC-valid payload that still fails to decode (an encoder bug, or a
  // 2^-32 CRC collision over damaged bytes) surfaces as a FrameError of
  // kind kMalformedPayload, and the monitor stays untouched.
  try {
  watermark = get_i64();
  max_seen = get_i64();
  ingested = get_u64();
  late = get_u64();
  unclassifiable = get_u64();
  duplicate = get_u64();
  quarantined = get_u64();
  closed = get_u64();
  alerts = get_u64();
  incidents = get_u64();

  const std::uint64_t outage_count = get_u64();
  outages.reserve(outage_count);
  for (std::uint64_t i = 0; i < outage_count; ++i) {
    const util::Minute from = get_i64();
    const util::Minute to = get_i64();
    outages.emplace_back(from, to);
  }

  const std::uint64_t minute_count = get_u64();
  for (std::uint64_t m = 0; m < minute_count; ++m) {
    const util::Minute minute = get_i64();
    state.minutes.try_emplace(minute);
    const std::uint64_t series_count = get_u64();
    for (std::uint64_t s = 0; s < series_count; ++s) {
      const auto vip = static_cast<std::uint32_t>(get_u64());
      const auto direction = static_cast<Direction>(get_u64());
      // dmlint: covers(open, OpenWindow)
      // dmlint: covers(w, VipMinuteStats)
      OpenWindow& open =
          state.window(minute, series_key(vip, direction), no_spare);
      VipMinuteStats& w = open.stats;
      w.vip = netflow::IPv4(static_cast<std::uint32_t>(get_u64()));
      w.minute = get_i64();
      w.direction = static_cast<Direction>(get_u64());
      w.packets = get_u64();
      w.bytes = get_u64();
      w.tcp_packets = get_u64();
      w.udp_packets = get_u64();
      w.icmp_packets = get_u64();
      w.ipencap_packets = get_u64();
      w.syn_packets = get_u64();
      w.null_scan_packets = get_u64();
      w.xmas_scan_packets = get_u64();
      w.bare_rst_packets = get_u64();
      w.dns_response_packets = get_u64();
      w.flows = static_cast<std::uint32_t>(get_u64());
      w.unique_remote_ips = static_cast<std::uint32_t>(get_u64());
      w.smtp_flows = static_cast<std::uint32_t>(get_u64());
      w.unique_smtp_remotes = static_cast<std::uint32_t>(get_u64());
      w.remote_admin_flows = static_cast<std::uint32_t>(get_u64());
      w.unique_admin_remotes = static_cast<std::uint32_t>(get_u64());
      w.sql_flows = static_cast<std::uint32_t>(get_u64());
      w.smtp_packets = get_u64();
      w.admin_packets = get_u64();
      w.sql_packets = get_u64();
      w.blacklist_flows = static_cast<std::uint32_t>(get_u64());
      w.unique_blacklist_remotes = static_cast<std::uint32_t>(get_u64());
      w.blacklist_packets = get_u64();
      w.first_record = static_cast<std::uint32_t>(get_u64());
      w.last_record = static_cast<std::uint32_t>(get_u64());
      // dmlint: covers-end(w)
      const std::uint64_t remote_count = get_u64();
      for (std::uint64_t r = 0; r < remote_count; ++r) {
        const auto remote = static_cast<std::uint32_t>(get_u64());
        open.remotes.insert(remote, static_cast<unsigned>(get_u64()));
      }
      // dmlint: covers-end(open)
    }
  }

  const std::uint64_t detector_count = get_u64();
  for (std::uint64_t i = 0; i < detector_count; ++i) {
    const auto vip = static_cast<std::uint32_t>(get_u64());
    const auto direction = static_cast<Direction>(get_u64());
    // dmlint: covers(series, SeriesState)
    SeriesState& series =
        state.bank(state.id_of(series_key(vip, direction)), config_);
    series.last_minute = get_i64();
    SeriesDetector::StateArray states;
    // dmlint: covers(s, State)
    for (ChangePointDetector::State& s : states) {
      s.ewma_value = get_f64();
      s.observations = get_u64();
      s.last_minute = get_i64();
    }
    // dmlint: covers-end(s)
    series.detector.restore(states);
    // dmlint: covers-end(series)
  }

  const std::uint64_t incident_count = get_u64();
  for (std::uint64_t i = 0; i < incident_count; ++i) {
    // dmlint: covers(live, LiveIncident)
    // dmlint: covers(inc, AttackIncident)
    IncidentBuilder::LiveIncident live;
    AttackIncident& inc = live.incident;
    inc.vip = netflow::IPv4(static_cast<std::uint32_t>(get_u64()));
    inc.direction = static_cast<Direction>(get_u64());
    const std::int64_t type = get_i64();
    if (type < 0 || type >= static_cast<std::int64_t>(sim::kAttackTypeCount)) {
      throw FormatError("checkpoint: incident attack type out of range");
    }
    inc.type = static_cast<sim::AttackType>(type);
    inc.start = get_i64();
    inc.end = get_i64();
    inc.active_minutes = static_cast<std::uint32_t>(get_u64());
    inc.total_sampled_packets = get_u64();
    inc.peak_sampled_ppm = get_u64();
    inc.peak_unique_remotes = static_cast<std::uint32_t>(get_u64());
    inc.ramp_up_minutes = get_i64();
    // dmlint: covers-end(inc)
    const std::uint64_t peak_count = get_u64();
    for (std::uint64_t p = 0; p < peak_count; ++p) {
      const util::Minute minute = get_i64();
      live.peaks.emplace_back(minute, get_u64());
    }
    // dmlint: covers-end(live)
    incident_builder.adopt(std::move(live));
  }

  const std::uint64_t seen_count = get_u64();
  for (std::uint64_t i = 0; i < seen_count; ++i) {
    const util::Minute minute = get_i64();
    auto& hashes = seen[minute];
    const std::uint64_t hash_count = get_u64();
    hashes.reserve(hash_count);
    for (std::uint64_t h = 0; h < hash_count; ++h) hashes.insert(get_u64());
  }

  } catch (const FormatError& e) {
    throw FrameError(FrameError::Kind::kMalformedPayload, e.what());
  }

  if (!cur.exhausted()) {
    throw FrameError(FrameError::Kind::kTrailingBytes,
                     "checkpoint: trailing bytes after payload");
  }

  state_ = std::move(state);
  memo_.window = nullptr;
  incident_builder_ = std::move(incident_builder);
  outages_ = std::move(outages);
  seen_ = std::move(seen);
  watermark_ = watermark;
  max_seen_ = max_seen;
  records_ingested_ = ingested;
  records_late_ = late;
  records_unclassifiable_ = unclassifiable;
  records_duplicate_ = duplicate;
  records_quarantined_ = quarantined;
  windows_closed_ = closed;
  alerts_ = alerts;
  incidents_ = incidents;
}

}  // namespace dm::detect
