// Grouping sampled NetFlow into per-(VIP, minute, direction) feature
// windows — the paper's SCOPE aggregation step ("We aggregate the NetFlow
// data by VIP in each one-minute window", §2.2) done in-process.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "netflow/columnar_records.h"
#include "netflow/flow_record.h"
#include "netflow/ipv4.h"
#include "netflow/segment_store.h"

namespace dm::netflow {

/// Aggregated features of one VIP's traffic in one direction during one
/// one-minute window. All counts are of *sampled* traffic.
struct VipMinuteStats {
  // dmlint: checkpointed
  IPv4 vip;
  util::Minute minute = 0;
  Direction direction = Direction::kInbound;

  // Volumes per protocol / flag class (sampled packets).
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t tcp_packets = 0;
  std::uint64_t udp_packets = 0;
  std::uint64_t icmp_packets = 0;
  std::uint64_t ipencap_packets = 0;
  std::uint64_t syn_packets = 0;          ///< pure SYN (no ACK)
  std::uint64_t null_scan_packets = 0;    ///< TCP with no flags
  std::uint64_t xmas_scan_packets = 0;    ///< FIN+PSH+URG
  std::uint64_t bare_rst_packets = 0;     ///< RST without ACK/SYN
  std::uint64_t dns_response_packets = 0; ///< UDP from/to remote port 53

  // Spread features (per-window distinct counts in the sampled data).
  std::uint32_t flows = 0;
  std::uint32_t unique_remote_ips = 0;
  std::uint32_t smtp_flows = 0;             ///< dst port 25
  std::uint32_t unique_smtp_remotes = 0;    ///< distinct remotes on SMTP flows
  std::uint32_t remote_admin_flows = 0;     ///< dst port 22/3389/5900
  std::uint32_t unique_admin_remotes = 0;   ///< distinct remotes on admin flows
  std::uint32_t sql_flows = 0;              ///< dst port 1433/3306

  // Per-application packet counters (attack-throughput attribution).
  std::uint64_t smtp_packets = 0;
  std::uint64_t admin_packets = 0;
  std::uint64_t sql_packets = 0;

  // Communication-pattern feature.
  std::uint32_t blacklist_flows = 0;        ///< flows touching a TDS host
  std::uint32_t unique_blacklist_remotes = 0;
  std::uint64_t blacklist_packets = 0;

  // Index range [first_record, last_record) into WindowedTrace::records().
  std::uint32_t first_record = 0;
  std::uint32_t last_record = 0;
};

/// The distinct-remote counters of a window a record's remote IP feeds;
/// accumulate() reports them as a mask.
enum RemoteClass : unsigned {
  kAnyRemote = 1u,        ///< unique_remote_ips: every record
  kSmtpRemote = 2u,       ///< unique_smtp_remotes: TCP to port 25
  kAdminRemote = 4u,      ///< unique_admin_remotes: TCP to 22/3389/5900
  kBlacklistRemote = 8u,  ///< unique_blacklist_remotes: a TDS remote
};

/// The record fields a window's counters read. `service_port` is the wire
/// destination port (OrientedFlow::service_port); `blacklisted` says the
/// remote is a TDS host.
struct CountedFlow {
  Protocol protocol = Protocol::kTcp;
  TcpFlags tcp_flags = TcpFlags::kNone;
  std::uint16_t src_port = 0;
  std::uint16_t service_port = 0;
  std::uint32_t packets = 0;
  std::uint64_t bytes = 0;
  bool blacklisted = false;
};

/// The per-record counter kernel of a window, shared by the batch window
/// build and StreamMonitor: adds the record's volumes, protocol and flag
/// classes, application ports and blacklist hit to `w`. Returns the
/// RemoteClass mask of distinct-remote counters the record's remote feeds;
/// distinct counting is the caller's (count_distinct).
[[nodiscard]] inline unsigned accumulate(VipMinuteStats& w,
                                         const CountedFlow& f) noexcept {
  w.packets += f.packets;
  w.bytes += f.bytes;
  w.flows += 1;
  unsigned classes = kAnyRemote;
  switch (f.protocol) {
    case Protocol::kTcp:
      w.tcp_packets += f.packets;
      if (is_pure_syn(f.tcp_flags)) w.syn_packets += f.packets;
      if (is_null_scan(f.tcp_flags)) w.null_scan_packets += f.packets;
      if (is_xmas_scan(f.tcp_flags)) w.xmas_scan_packets += f.packets;
      if (is_bare_rst(f.tcp_flags)) w.bare_rst_packets += f.packets;
      if (f.service_port == ports::kSmtp) {
        w.smtp_flows += 1;
        w.smtp_packets += f.packets;
        classes |= kSmtpRemote;
      }
      if (ports::is_remote_admin(f.service_port)) {
        w.remote_admin_flows += 1;
        w.admin_packets += f.packets;
        classes |= kAdminRemote;
      }
      if (ports::is_sql(f.service_port)) {
        w.sql_flows += 1;
        w.sql_packets += f.packets;
      }
      break;
    case Protocol::kUdp:
      w.udp_packets += f.packets;
      // A DNS response travels *from* the resolver's port 53; for inbound
      // reflection that is the remote side, for the outbound case the VIP.
      if (f.src_port == ports::kDns) w.dns_response_packets += f.packets;
      break;
    case Protocol::kIcmp:
      w.icmp_packets += f.packets;
      break;
    case Protocol::kIpEncap:
      w.ipencap_packets += f.packets;
      break;
  }
  if (f.blacklisted) {
    w.blacklist_flows += 1;
    w.blacklist_packets += f.packets;
    classes |= kBlacklistRemote;
  }
  return classes;
}

/// Adds one to each distinct-remote counter named in `fresh`: the classes
/// under which a remote shows up for the first time in the window.
inline void count_distinct(VipMinuteStats& w, unsigned fresh) noexcept {
  w.unique_remote_ips += fresh & kAnyRemote;
  w.unique_smtp_remotes += (fresh & kSmtpRemote) >> 1;
  w.unique_admin_remotes += (fresh & kAdminRemote) >> 2;
  w.unique_blacklist_remotes += (fresh & kBlacklistRemote) >> 3;
}

/// The distinct remote IPs of one open window, each with the RemoteClass
/// bits it has been seen under: a flat open-addressing table (linear
/// probing, power-of-two capacity, at most half full), so a record costs
/// one probe sequence and allocates only when the table doubles, and a
/// cleared table serves the next window without allocating. The streaming
/// counterpart of the batch build's adjacent compare over
/// sorted remotes.
class DistinctRemotes {
 public:
  /// Notes `remote` under `classes` (always under kAnyRemote too); returns
  /// the classes it had not been seen under before.
  unsigned insert(std::uint32_t remote, unsigned classes) {
    classes |= kAnyRemote;
    if (2 * (size_ + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = slot_of(remote) & mask;; i = (i + 1) & mask) {
      std::uint64_t& slot = slots_[i];
      if (slot == 0) {  // every stored slot carries kAnyRemote, so 0 = free
        slot = (std::uint64_t{remote} << 32) | classes;
        ++size_;
        return classes;
      }
      if (static_cast<std::uint32_t>(slot >> 32) == remote) {
        const unsigned fresh = classes & ~static_cast<unsigned>(slot);
        slot |= fresh;
        return fresh;
      }
    }
  }

  /// Forgets every remote, so the table can serve another window. A table
  /// of at most kKeptSlots slots is zeroed and keeps its storage; a larger
  /// one is released.
  void clear() noexcept {
    if (slots_.size() > kKeptSlots) {
      slots_ = std::vector<std::uint64_t>();
    } else if (size_ != 0) {
      std::fill(slots_.begin(), slots_.end(), std::uint64_t{0});
    }
    size_ = 0;
  }
  static constexpr std::size_t kKeptSlots = 64;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Every (remote, classes) entry, ascending by remote: checkpoint bytes
  /// stay a pure function of the set, not of its insertion history.
  [[nodiscard]] std::vector<std::pair<std::uint32_t, unsigned>> sorted() const;

 private:
  [[nodiscard]] static std::size_t slot_of(std::uint32_t remote) noexcept {
    return static_cast<std::size_t>(
        (std::uint64_t{remote} * 0x9e3779b97f4a7c15ull) >> 32);
  }
  void grow();

  std::vector<std::uint64_t> slots_;  ///< remote << 32 | classes; 0 = free
  std::size_t size_ = 0;
};

/// The aggregated dataset: oriented records sorted by
/// (VIP, direction, minute, remote IP) plus one VipMinuteStats per non-empty
/// window, in the same order. Per-VIP time series are contiguous slices.
///
/// Records live in a RecordStore — either a resident ColumnarRecords
/// (run-length/delta-varint compressed, including each record's Direction)
/// or, for out-of-core runs, a spilled SegmentStore of memory-mapped
/// segment files. Record access decodes on the fly through
/// RecordStore::Range (drop-in for range-for loops that used to see a
/// std::span<const FlowRecord>), identical in both modes.
class WindowedTrace {
 public:
  using RecordRange = RecordStore::Range;

  WindowedTrace() = default;
  WindowedTrace(RecordStore store, std::vector<VipMinuteStats> windows,
                std::uint64_t unclassified_records);
  WindowedTrace(ColumnarRecords columns, std::vector<VipMinuteStats> windows,
                std::uint64_t unclassified_records);

  [[nodiscard]] std::span<const VipMinuteStats> windows() const noexcept {
    return windows_;
  }
  [[nodiscard]] RecordRange records() const { return store_.all(); }
  [[nodiscard]] std::size_t record_count() const noexcept {
    return store_.size();
  }
  [[nodiscard]] const RecordStore& store() const noexcept { return store_; }

  /// Records belonging to a window (same index space as windows()); the
  /// iterator's direction() gives each record's orientation.
  [[nodiscard]] RecordRange records_of(const VipMinuteStats& window) const;

  /// Contiguous window slice for one (vip, direction) series, sorted by
  /// minute. Empty when the VIP has no traffic in that direction.
  [[nodiscard]] std::span<const VipMinuteStats> series(IPv4 vip,
                                                       Direction dir) const noexcept;

  /// Distinct VIPs present in the trace (either direction), ascending.
  /// Computed once at construction — callers may hold the span for the
  /// trace's lifetime.
  [[nodiscard]] std::span<const IPv4> vips() const noexcept { return vips_; }

  /// Records that matched neither/both cloud prefixes and were dropped.
  [[nodiscard]] std::uint64_t unclassified_records() const noexcept {
    return unclassified_;
  }

 private:
  RecordStore store_;
  std::vector<VipMinuteStats> windows_;
  std::vector<IPv4> vips_;
  std::uint64_t unclassified_ = 0;
};

/// Orients a record against the cloud address space: inbound when only the
/// destination is a cloud address, outbound when only the source is.
/// nullopt when neither or both are (transit/intra-cloud — outside the
/// study's scope).
[[nodiscard]] std::optional<Direction> classify(const FlowRecord& record,
                                                const PrefixSet& cloud_space) noexcept;

/// Builds the windowed dataset. `blacklist` (may be null) marks TDS hosts
/// for the communication-pattern feature. The records are cut into
/// contiguous ranges of the canonical (vip, direction, minute) key — cuts
/// drawn from a deterministic sample, so even a VIP carrying most of the
/// traffic spreads over several shards — by a stable counting scatter, and
/// each shard runs through aggregate_shard; merge_shards concatenates them.
/// `pool` (may be null = serial) runs the classify, scatter, shard and
/// merge phases. The record order is canonical — (vip, direction, minute,
/// remote, arrival index) — so the result is byte-identical for any thread
/// count and any input sharding. A non-null enabled `spill` streams the shards'
/// columns through a SpillWriter instead of concatenating them in RAM; the
/// resulting trace decodes byte-identically either way.
[[nodiscard]] WindowedTrace aggregate_windows(std::vector<FlowRecord> records,
                                              const PrefixSet& cloud_space,
                                              const PrefixSet* blacklist = nullptr,
                                              exec::ThreadPool* pool = nullptr,
                                              const SpillConfig* spill = nullptr);

/// One shard's fully aggregated slice: kept records (with directions) in
/// canonical order inside a shard-local columnar store, windows whose
/// first/last_record indices are SHARD-LOCAL, and the shard's
/// dropped-record count. merge_shards concatenates slices in shard order:
/// windows with their index ranges rebased, columns by
/// ColumnarRecords::concat (or SpillWriter::append when spilling).
struct ShardWindows {
  ColumnarRecords columns;
  std::vector<VipMinuteStats> windows;
  std::uint64_t unclassified = 0;
};

/// The shard-level aggregation core shared by aggregate_windows and the
/// fused generate→aggregate path (sim::generate_windows): classify+compact,
/// canonical sort (stable LSD radix over packed keys when every minute fits
/// 31 bits — always true for generator output — comparison sort
/// otherwise), and single-pass window build, all serial: the shard itself
/// is the unit of parallelism. The radix sort is stable, so records must
/// arrive in arrival order; it stands in for the arrival-index tie-break.
/// When every shard holds a contiguous range of the canonical key order,
/// concatenating the slices in key order reproduces the global output
/// exactly.
[[nodiscard]] ShardWindows aggregate_shard(std::vector<FlowRecord> records,
                                           const PrefixSet& cloud_space,
                                           const PrefixSet* blacklist = nullptr);

/// How many shards the sharded aggregation cuts its input into: 64 per pool
/// worker, or 256 when spilling, where shards are also the unit of
/// out-of-core progress; a serial run counts as one worker. Shards are the
/// unit of transient memory too — each holds its raw records until its
/// columns are encoded — so the in-flight transient stays a small fraction
/// of the input for any worker count.
[[nodiscard]] std::size_t shard_count_for(const exec::ThreadPool* pool,
                                          bool spill) noexcept;

/// The one shard merge of the sharded aggregation: runs `run_shard(lo, hi)`
/// on the pool over `shards` contiguous ranges of [0, n) and concatenates
/// the slices in range order — window record ranges rebased to global
/// offsets, unclassified counts summed. Each slice must cover a contiguous
/// range of the canonical key order. Prefix sums over the slices size the
/// windows, and resident columns, exactly; the pool faults their pages in
/// and copies every slice into its range, freeing it in the task that
/// copied it — windows first, then columns, with the heap trimmed after
/// each, so only one of the two is ever held twice. With a non-null enabled
/// `spill`, shards run in waves of two per worker and each wave's columns
/// stream through a SpillWriter as it lands; the windows are concatenated
/// the same way. The decoded trace is identical either way.
[[nodiscard]] WindowedTrace merge_shards(
    exec::ThreadPool* pool, std::size_t n, std::size_t shards,
    const std::function<ShardWindows(std::size_t, std::size_t)>& run_shard,
    const SpillConfig* spill);

}  // namespace dm::netflow
