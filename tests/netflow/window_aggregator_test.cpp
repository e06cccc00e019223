#include "netflow/window_aggregator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_set>

#include "exec/thread_pool.h"
#include "util/rng.h"

namespace dm::netflow {
namespace {

const IPv4 kVip = IPv4::from_octets(100, 64, 0, 5);
const IPv4 kVip2 = IPv4::from_octets(100, 64, 0, 9);
const IPv4 kRemoteA = IPv4::from_octets(4, 1, 1, 1);
const IPv4 kRemoteB = IPv4::from_octets(4, 2, 2, 2);

PrefixSet cloud_space() {
  PrefixSet set;
  set.add(Prefix(IPv4::from_octets(100, 64, 0, 0), 12));
  return set;
}

FlowRecord flow(util::Minute minute, IPv4 src, IPv4 dst, std::uint16_t sport,
                std::uint16_t dport, Protocol proto = Protocol::kTcp,
                TcpFlags flags = TcpFlags::kAck | TcpFlags::kPsh,
                std::uint32_t packets = 1) {
  FlowRecord r;
  r.minute = minute;
  r.src_ip = src;
  r.dst_ip = dst;
  r.src_port = sport;
  r.dst_port = dport;
  r.protocol = proto;
  r.tcp_flags = flags;
  r.packets = packets;
  r.bytes = packets * 100;
  return r;
}

TEST(Classify, Directions) {
  const auto space = cloud_space();
  EXPECT_EQ(classify(flow(0, kRemoteA, kVip, 1000, 80), space),
            Direction::kInbound);
  EXPECT_EQ(classify(flow(0, kVip, kRemoteA, 80, 1000), space),
            Direction::kOutbound);
  // Remote-to-remote and cloud-to-cloud are out of scope.
  EXPECT_FALSE(classify(flow(0, kRemoteA, kRemoteB, 1, 2), space).has_value());
  EXPECT_FALSE(classify(flow(0, kVip, kVip2, 1, 2), space).has_value());
}

TEST(Aggregate, GroupsByVipMinuteDirection) {
  std::vector<FlowRecord> records{
      flow(5, kRemoteA, kVip, 1111, 80),
      flow(5, kRemoteB, kVip, 2222, 80),
      flow(6, kRemoteA, kVip, 3333, 80),
      flow(5, kVip, kRemoteA, 80, 1111),
      flow(5, kRemoteA, kVip2, 1111, 443),
  };
  const auto trace = aggregate_windows(std::move(records), cloud_space());
  ASSERT_EQ(trace.windows().size(), 4u);
  EXPECT_EQ(trace.unclassified_records(), 0u);

  const auto in5 = trace.series(kVip, Direction::kInbound);
  ASSERT_EQ(in5.size(), 2u);
  EXPECT_EQ(in5[0].minute, 5);
  EXPECT_EQ(in5[0].flows, 2u);
  EXPECT_EQ(in5[0].unique_remote_ips, 2u);
  EXPECT_EQ(in5[1].minute, 6);
  EXPECT_EQ(in5[1].flows, 1u);

  const auto out = trace.series(kVip, Direction::kOutbound);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].packets, 1u);
}

TEST(Aggregate, DropsUnclassified) {
  std::vector<FlowRecord> records{
      flow(1, kRemoteA, kRemoteB, 1, 2),
      flow(1, kRemoteA, kVip, 1, 80),
  };
  const auto trace = aggregate_windows(std::move(records), cloud_space());
  EXPECT_EQ(trace.unclassified_records(), 1u);
  EXPECT_EQ(trace.records().size(), 1u);
}

TEST(Aggregate, ProtocolAndFlagCounters) {
  std::vector<FlowRecord> records{
      flow(1, kRemoteA, kVip, 1, 80, Protocol::kTcp, TcpFlags::kSyn, 7),
      flow(1, kRemoteA, kVip, 2, 80, Protocol::kTcp, TcpFlags::kNone, 3),
      flow(1, kRemoteA, kVip, 3, 80, Protocol::kTcp, kXmasFlags, 2),
      flow(1, kRemoteA, kVip, 4, 80, Protocol::kTcp, TcpFlags::kRst, 5),
      flow(1, kRemoteA, kVip, 5, 80, Protocol::kUdp, TcpFlags::kNone, 11),
      flow(1, kRemoteA, kVip, 6, 80, Protocol::kIcmp, TcpFlags::kNone, 13),
      flow(1, kRemoteA, kVip, 0, 0, Protocol::kIpEncap, TcpFlags::kNone, 1),
  };
  const auto trace = aggregate_windows(std::move(records), cloud_space());
  ASSERT_EQ(trace.windows().size(), 1u);
  const auto& w = trace.windows()[0];
  EXPECT_EQ(w.packets, 42u);
  EXPECT_EQ(w.tcp_packets, 17u);
  EXPECT_EQ(w.syn_packets, 7u);
  EXPECT_EQ(w.null_scan_packets, 3u);
  EXPECT_EQ(w.xmas_scan_packets, 2u);
  EXPECT_EQ(w.bare_rst_packets, 5u);
  EXPECT_EQ(w.udp_packets, 11u);
  EXPECT_EQ(w.icmp_packets, 13u);
  EXPECT_EQ(w.ipencap_packets, 1u);
}

TEST(Aggregate, DnsResponseDetection) {
  std::vector<FlowRecord> records{
      // Inbound response from a resolver: src port 53.
      flow(1, kRemoteA, kVip, 53, 9999, Protocol::kUdp, TcpFlags::kNone, 4),
      // Inbound query to the VIP's DNS service: dst port 53 — not a response.
      flow(1, kRemoteB, kVip, 1234, 53, Protocol::kUdp, TcpFlags::kNone, 2),
  };
  const auto trace = aggregate_windows(std::move(records), cloud_space());
  const auto& w = trace.windows()[0];
  EXPECT_EQ(w.dns_response_packets, 4u);
  EXPECT_EQ(w.udp_packets, 6u);
}

TEST(Aggregate, ApplicationPortFeatures) {
  std::vector<FlowRecord> records{
      // Two distinct remotes brute-forcing SSH.
      flow(1, kRemoteA, kVip, 1111, 22, Protocol::kTcp,
           TcpFlags::kSyn | TcpFlags::kAck, 3),
      flow(1, kRemoteB, kVip, 2222, 22, Protocol::kTcp,
           TcpFlags::kSyn | TcpFlags::kAck, 3),
      flow(1, kRemoteB, kVip, 2223, 3389, Protocol::kTcp,
           TcpFlags::kSyn | TcpFlags::kAck, 1),
      // SQL connections.
      flow(1, kRemoteA, kVip, 3333, 1433, Protocol::kTcp,
           TcpFlags::kAck | TcpFlags::kPsh, 2),
      // Outbound spam: VIP -> remote SMTP server (dst port 25).
      flow(1, kVip, kRemoteA, 4444, 25, Protocol::kTcp,
           TcpFlags::kSyn | TcpFlags::kAck | TcpFlags::kPsh, 5),
  };
  const auto trace = aggregate_windows(std::move(records), cloud_space());

  const auto in = trace.series(kVip, Direction::kInbound);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0].remote_admin_flows, 3u);
  EXPECT_EQ(in[0].unique_admin_remotes, 2u);
  EXPECT_EQ(in[0].admin_packets, 7u);
  EXPECT_EQ(in[0].sql_flows, 1u);
  EXPECT_EQ(in[0].sql_packets, 2u);
  EXPECT_EQ(in[0].smtp_flows, 0u);

  const auto out = trace.series(kVip, Direction::kOutbound);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].smtp_flows, 1u);
  EXPECT_EQ(out[0].unique_smtp_remotes, 1u);
  EXPECT_EQ(out[0].smtp_packets, 5u);
}

TEST(Aggregate, BlacklistFeatures) {
  PrefixSet blacklist;
  blacklist.add(Prefix(kRemoteB, 32));
  std::vector<FlowRecord> records{
      flow(1, kRemoteA, kVip, 1, 80),
      flow(1, kRemoteB, kVip, 2, 80, Protocol::kTcp,
           TcpFlags::kAck | TcpFlags::kPsh, 9),
      flow(1, kRemoteB, kVip, 3, 80, Protocol::kTcp,
           TcpFlags::kAck | TcpFlags::kPsh, 1),
  };
  const auto trace =
      aggregate_windows(std::move(records), cloud_space(), &blacklist);
  const auto& w = trace.windows()[0];
  EXPECT_EQ(w.blacklist_flows, 2u);
  EXPECT_EQ(w.unique_blacklist_remotes, 1u);
  EXPECT_EQ(w.blacklist_packets, 10u);
}

TEST(Aggregate, RecordsOfWindowSpansMatch) {
  std::vector<FlowRecord> records;
  for (int m = 0; m < 3; ++m) {
    for (int f = 0; f < 4; ++f) {
      records.push_back(flow(m, IPv4(kRemoteA.value() + static_cast<std::uint32_t>(f)),
                             kVip, static_cast<std::uint16_t>(1000 + f), 80));
    }
  }
  const auto trace = aggregate_windows(std::move(records), cloud_space());
  std::size_t total = 0;
  for (const auto& w : trace.windows()) {
    const auto span = trace.records_of(w);
    EXPECT_EQ(span.size(), 4u);
    for (const auto& r : span) EXPECT_EQ(r.minute, w.minute);
    total += span.size();
  }
  EXPECT_EQ(total, trace.records().size());
}

TEST(Aggregate, VipsAreSortedDistinct) {
  std::vector<FlowRecord> records{
      flow(1, kRemoteA, kVip2, 1, 80),
      flow(1, kRemoteA, kVip, 1, 80),
      flow(2, kVip, kRemoteA, 80, 1),
  };
  const auto trace = aggregate_windows(std::move(records), cloud_space());
  const auto vips = trace.vips();
  ASSERT_EQ(vips.size(), 2u);
  EXPECT_EQ(vips[0], kVip);
  EXPECT_EQ(vips[1], kVip2);
}

TEST(Aggregate, EmptyInput) {
  const auto trace = aggregate_windows({}, cloud_space());
  EXPECT_TRUE(trace.windows().empty());
  EXPECT_TRUE(trace.records().empty());
  EXPECT_TRUE(trace.vips().empty());
  EXPECT_TRUE(trace.series(kVip, Direction::kInbound).empty());
}

/// Reference window counters, written apart from accumulate(): a protocol
/// switch with the port and blacklist tests inline, and one node-based set
/// per distinct-remote counter. accumulate() with a DistinctRemotes table,
/// and the batch window build, must match it field by field.
struct ReferenceWindow {
  VipMinuteStats stats;
  std::unordered_set<std::uint32_t> remotes;
  std::unordered_set<std::uint32_t> admin_remotes;
  std::unordered_set<std::uint32_t> smtp_remotes;
  std::unordered_set<std::uint32_t> blacklist_remotes;

  void add(const FlowRecord& record, Direction direction,
           const PrefixSet& blacklist) {
    const OrientedFlow flow{&record, direction};
    VipMinuteStats& w = stats;
    w.packets += record.packets;
    w.bytes += record.bytes;
    w.flows += 1;
    switch (record.protocol) {
      case Protocol::kTcp:
        w.tcp_packets += record.packets;
        if (is_pure_syn(record.tcp_flags)) w.syn_packets += record.packets;
        if (is_null_scan(record.tcp_flags)) {
          w.null_scan_packets += record.packets;
        }
        if (is_xmas_scan(record.tcp_flags)) {
          w.xmas_scan_packets += record.packets;
        }
        if (is_bare_rst(record.tcp_flags)) w.bare_rst_packets += record.packets;
        break;
      case Protocol::kUdp:
        w.udp_packets += record.packets;
        if (record.src_port == ports::kDns) {
          w.dns_response_packets += record.packets;
        }
        break;
      case Protocol::kIcmp:
        w.icmp_packets += record.packets;
        break;
      case Protocol::kIpEncap:
        w.ipencap_packets += record.packets;
        break;
    }

    const std::uint32_t remote = flow.remote_ip().value();
    if (remotes.insert(remote).second) w.unique_remote_ips += 1;

    const std::uint16_t service_port = flow.service_port();
    if (record.protocol == Protocol::kTcp && service_port == ports::kSmtp) {
      w.smtp_flows += 1;
      w.smtp_packets += record.packets;
      if (smtp_remotes.insert(remote).second) w.unique_smtp_remotes += 1;
    }
    if (record.protocol == Protocol::kTcp &&
        ports::is_remote_admin(service_port)) {
      w.remote_admin_flows += 1;
      w.admin_packets += record.packets;
      if (admin_remotes.insert(remote).second) w.unique_admin_remotes += 1;
    }
    if (record.protocol == Protocol::kTcp && ports::is_sql(service_port)) {
      w.sql_flows += 1;
      w.sql_packets += record.packets;
    }
    if (blacklist.contains(flow.remote_ip())) {
      w.blacklist_flows += 1;
      w.blacklist_packets += record.packets;
      if (blacklist_remotes.insert(remote).second) {
        w.unique_blacklist_remotes += 1;
      }
    }
  }
};

/// Every counter of a window (identity and record span excluded).
auto counters(const VipMinuteStats& w) {
  return std::make_tuple(
      w.packets, w.bytes, w.tcp_packets, w.udp_packets, w.icmp_packets,
      w.ipencap_packets, w.syn_packets, w.null_scan_packets,
      w.xmas_scan_packets, w.bare_rst_packets, w.dns_response_packets,
      w.flows, w.unique_remote_ips, w.smtp_flows, w.unique_smtp_remotes,
      w.remote_admin_flows, w.unique_admin_remotes, w.sql_flows,
      w.smtp_packets, w.admin_packets, w.sql_packets, w.blacklist_flows,
      w.unique_blacklist_remotes, w.blacklist_packets);
}

/// Random records over a few VIPs and minutes covering every protocol, all
/// 64 flag combinations, the service and DNS ports, both directions, and a
/// small remote pool (so remotes repeat) of which a quarter is blacklisted.
/// `count` records over `vips` VIPs from kVip up and minutes [0, minutes).
std::vector<FlowRecord> kernel_records(std::uint64_t seed, PrefixSet& blacklist,
                                       std::size_t count = 20'000,
                                       std::uint32_t vips = 3,
                                       util::Minute minutes = 20) {
  util::Rng rng(seed);
  constexpr Protocol kProtocols[] = {Protocol::kTcp, Protocol::kUdp,
                                     Protocol::kIcmp, Protocol::kIpEncap};
  constexpr std::uint16_t kPorts[] = {22,   25,   53,   80,   443, 1433,
                                      3306, 3389, 5900, 8080, 1234};
  std::vector<IPv4> pool;
  for (std::uint32_t i = 0; i < 40; ++i) {
    pool.push_back(IPv4(0x05000000u + i * 977u));
    if (i % 4 == 0) blacklist.add(Prefix(pool.back(), 32));
  }
  const auto port = [&] {
    return rng.chance(0.8) ? kPorts[rng.below(std::size(kPorts))]
                           : static_cast<std::uint16_t>(rng.below(65536));
  };
  std::vector<FlowRecord> records(count);
  for (FlowRecord& r : records) {
    const IPv4 vip(kVip.value() + static_cast<std::uint32_t>(rng.below(vips)));
    const IPv4 remote = pool[rng.below(pool.size())];
    const bool inbound = rng.chance(0.5);
    r.minute = static_cast<util::Minute>(
        rng.below(static_cast<std::uint64_t>(minutes)));
    r.src_ip = inbound ? remote : vip;
    r.dst_ip = inbound ? vip : remote;
    r.src_port = port();
    r.dst_port = port();
    r.protocol = kProtocols[rng.below(std::size(kProtocols))];
    r.tcp_flags = static_cast<TcpFlags>(rng.below(64));
    r.packets = static_cast<std::uint32_t>(1 + rng.below(1000));
    r.bytes = r.packets * (40 + rng.below(1460));
  }
  return records;
}

using WindowKey = std::tuple<std::uint32_t, int, util::Minute>;

TEST(AccumulateKernel, MatchesReferenceSwitchOnRandomRecords) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    PrefixSet blacklist;
    const auto records = kernel_records(seed, blacklist);
    const PrefixSet space = cloud_space();
    std::map<WindowKey, ReferenceWindow> reference;
    std::map<WindowKey, std::pair<VipMinuteStats, DistinctRemotes>> kernel;
    for (const FlowRecord& r : records) {
      const Direction dir = *classify(r, space);
      const OrientedFlow flow{&r, dir};
      const WindowKey key{flow.vip().value(), static_cast<int>(dir), r.minute};
      reference[key].add(r, dir, blacklist);
      auto& [w, remotes] = kernel[key];
      const unsigned classes = accumulate(
          w, {r.protocol, r.tcp_flags, r.src_port, flow.service_port(),
              r.packets, r.bytes, blacklist.contains(flow.remote_ip())});
      count_distinct(w, remotes.insert(flow.remote_ip().value(), classes));
    }
    ASSERT_EQ(kernel.size(), reference.size());
    std::size_t blacklist_hits = 0;
    for (const auto& [key, ref] : reference) {
      const auto& [w, remotes] = kernel.at(key);
      EXPECT_EQ(counters(w), counters(ref.stats));
      EXPECT_EQ(remotes.size(), ref.remotes.size());
      blacklist_hits += ref.stats.blacklist_flows;
    }
    EXPECT_GT(blacklist_hits, 0u);
  }
}

TEST(AccumulateKernel, BatchWindowsMatchReferenceSwitch) {
  PrefixSet blacklist;
  auto records = kernel_records(4, blacklist);
  const PrefixSet space = cloud_space();
  std::map<WindowKey, ReferenceWindow> reference;
  for (const FlowRecord& r : records) {
    const Direction dir = *classify(r, space);
    const OrientedFlow flow{&r, dir};
    reference[{flow.vip().value(), static_cast<int>(dir), r.minute}].add(
        r, dir, blacklist);
  }
  const auto trace = aggregate_windows(std::move(records), space, &blacklist);
  ASSERT_EQ(trace.windows().size(), reference.size());
  for (const VipMinuteStats& w : trace.windows()) {
    const WindowKey key{w.vip.value(), static_cast<int>(w.direction), w.minute};
    EXPECT_EQ(counters(w), counters(reference.at(key).stats));
  }
}

// ---- An independent reference for the sharded aggregate ------------------

/// The comparison-sort aggregate the sharded core replaced, kept apart from
/// it: classify, std::sort on (vip, direction, signed minute, remote,
/// arrival index), then a record-wise window build through ReferenceWindow.
struct ReferenceTrace {
  std::vector<FlowRecord> records;
  std::vector<Direction> directions;
  std::vector<VipMinuteStats> windows;
  std::uint64_t unclassified = 0;
};

ReferenceTrace reference_aggregate(const std::vector<FlowRecord>& input,
                                   const PrefixSet& space,
                                   const PrefixSet& blacklist) {
  struct SortKey {
    std::uint32_t vip;
    int direction;
    util::Minute minute;
    std::uint32_t remote;
    std::size_t arrival;
  };
  ReferenceTrace out;
  std::vector<SortKey> keys;
  for (std::size_t i = 0; i < input.size(); ++i) {
    const auto dir = classify(input[i], space);
    if (!dir) {
      ++out.unclassified;
      continue;
    }
    const OrientedFlow flow{&input[i], *dir};
    keys.push_back({flow.vip().value(), static_cast<int>(*dir),
                    input[i].minute, flow.remote_ip().value(), i});
  }
  std::sort(keys.begin(), keys.end(), [](const SortKey& a, const SortKey& b) {
    return std::tie(a.vip, a.direction, a.minute, a.remote, a.arrival) <
           std::tie(b.vip, b.direction, b.minute, b.remote, b.arrival);
  });
  std::optional<ReferenceWindow> open;
  for (const SortKey& k : keys) {
    const auto dir = static_cast<Direction>(k.direction);
    if (!open || open->stats.vip.value() != k.vip ||
        open->stats.direction != dir || open->stats.minute != k.minute) {
      if (open) out.windows.push_back(open->stats);
      open.emplace();
      open->stats.vip = IPv4(k.vip);
      open->stats.direction = dir;
      open->stats.minute = k.minute;
      open->stats.first_record = static_cast<std::uint32_t>(out.records.size());
    }
    open->add(input[k.arrival], dir, blacklist);
    out.records.push_back(input[k.arrival]);
    out.directions.push_back(dir);
    open->stats.last_record = static_cast<std::uint32_t>(out.records.size());
  }
  if (open) out.windows.push_back(open->stats);
  return out;
}

/// Every field of a window: identity, record span and counters.
auto every_field(const VipMinuteStats& w) {
  return std::tuple_cat(std::make_tuple(w.vip.value(), w.minute, w.direction,
                                        w.first_record, w.last_record),
                        counters(w));
}

/// aggregate_windows matches the reference on records, directions, every
/// window field and the unclassified count: serially and on pools of
/// 0/1/2/3/8 workers. A given `spill` must hold more than its seal
/// threshold, so the trace comes back spilled.
void expect_matches_reference(const std::vector<FlowRecord>& input,
                              const PrefixSet& blacklist,
                              const SpillConfig* spill = nullptr) {
  const PrefixSet space = cloud_space();
  const ReferenceTrace want = reference_aggregate(input, space, blacklist);
  std::vector<std::unique_ptr<exec::ThreadPool>> pools;
  pools.push_back(nullptr);
  for (const unsigned workers : {0u, 1u, 2u, 3u, 8u}) {
    pools.push_back(std::make_unique<exec::ThreadPool>(workers));
  }
  for (const auto& pool : pools) {
    SCOPED_TRACE(pool ? std::to_string(pool->thread_count()) + " workers"
                      : std::string("no pool"));
    const WindowedTrace got =
        aggregate_windows(input, space, &blacklist, pool.get(), spill);
    EXPECT_EQ(got.unclassified_records(), want.unclassified);
    EXPECT_EQ(got.store().spilled(), spill != nullptr);
    ASSERT_EQ(got.record_count(), want.records.size());
    const auto records = got.records();
    std::size_t i = 0;
    for (auto it = records.begin(); it != records.end(); ++it, ++i) {
      ASSERT_EQ(*it, want.records[i]) << "record " << i;
      ASSERT_EQ(it.direction(), want.directions[i]) << "record " << i;
    }
    ASSERT_EQ(got.windows().size(), want.windows.size());
    for (std::size_t w = 0; w < want.windows.size(); ++w) {
      ASSERT_EQ(every_field(got.windows()[w]), every_field(want.windows[w]))
          << "window " << w;
    }
  }
}

/// kernel_records with about 5% of them made unclassifiable: remote to
/// remote, or cloud to cloud.
std::vector<FlowRecord> mixed_records(std::uint64_t seed, std::size_t count,
                                      std::uint32_t vips, util::Minute minutes,
                                      PrefixSet& blacklist) {
  std::vector<FlowRecord> records =
      kernel_records(seed, blacklist, count, vips, minutes);
  util::Rng rng(seed + 100);
  for (FlowRecord& r : records) {
    if (!rng.chance(0.05)) continue;
    if (rng.chance(0.5)) {
      r.dst_ip = r.src_ip = kRemoteA;
    } else {
      r.src_ip = kVip;
      r.dst_ip = kVip2;
    }
  }
  return records;
}

TEST(AggregateReference, RandomMixesWithUnclassifiableRecords) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE(seed);
    PrefixSet blacklist;
    expect_matches_reference(mixed_records(seed, 20'000, 12, 30, blacklist),
                             blacklist);
  }
}

TEST(AggregateReference, MinutesOutsideThePackedRange) {
  PrefixSet blacklist;
  std::vector<FlowRecord> records = mixed_records(21, 6'000, 8, 5, blacklist);
  constexpr util::Minute kExtremes[] = {
      -5, -1, (util::Minute{1} << 31) - 1, util::Minute{1} << 31,
      util::Minute{1} << 40, INT64_MIN, INT64_MAX, INT64_MIN + 1};
  for (std::size_t i = 0; i < records.size(); i += 3) {
    records[i].minute = kExtremes[(i / 3) % std::size(kExtremes)];
  }
  expect_matches_reference(records, blacklist);
}

TEST(AggregateReference, ManyVipsPerShard) {
  // 5000 VIPs in at most 512 shards: a serial run's 64 shards hold ~78
  // VIPs each, past the 32 the packed u32 sort key can rank.
  PrefixSet blacklist;
  expect_matches_reference(mixed_records(31, 10'000, 5000, 3, blacklist),
                           blacklist);
}

TEST(AggregateReference, OneVipCarriesMostTraffic) {
  PrefixSet blacklist;
  std::vector<FlowRecord> records = mixed_records(41, 30'000, 40, 200, blacklist);
  const PrefixSet space = cloud_space();
  util::Rng rng(42);
  for (FlowRecord& r : records) {
    const auto dir = classify(r, space);
    if (!dir || !rng.chance(0.9)) continue;
    (*dir == Direction::kInbound ? r.dst_ip : r.src_ip) = kVip;
  }
  expect_matches_reference(records, blacklist);
}

TEST(AggregateReference, EmptySingleAndAllUnclassifiable) {
  PrefixSet blacklist;
  expect_matches_reference({}, blacklist);
  expect_matches_reference({flow(3, kRemoteA, kVip, 1000, 80)}, blacklist);
  std::vector<FlowRecord> transit(500, flow(1, kRemoteA, kRemoteB, 1, 2));
  transit.push_back(flow(2, kVip, kVip2, 1, 2));
  expect_matches_reference(transit, blacklist);
}

TEST(AggregateReference, SpilledAtOneMebibyte) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "dm_aggregate_reference_spill";
  SpillConfig spill;
  spill.directory = dir.string();
  spill.ram_budget_bytes = 1ull << 20;
  PrefixSet blacklist;
  // ~14 encoded bytes a record: several 1 MiB segments.
  expect_matches_reference(mixed_records(51, 250'000, 60, 400, blacklist),
                           blacklist, &spill);
  std::filesystem::remove_all(dir);
}

TEST(DistinctRemotes, ReportsFreshClassesOnce) {
  DistinctRemotes remotes;
  EXPECT_EQ(remotes.insert(7, kSmtpRemote), kAnyRemote | kSmtpRemote);
  EXPECT_EQ(remotes.insert(7, kSmtpRemote), 0u);
  EXPECT_EQ(remotes.insert(7, kAdminRemote | kSmtpRemote), kAdminRemote);
  EXPECT_EQ(remotes.insert(0, 0), unsigned{kAnyRemote});  // 0.0.0.0 is a remote too
  for (std::uint32_t ip = 100; ip < 1100; ++ip) {
    EXPECT_EQ(remotes.insert(ip, kBlacklistRemote),
              kAnyRemote | kBlacklistRemote);
  }
  EXPECT_EQ(remotes.size(), 1002u);
  const auto sorted = remotes.sorted();
  ASSERT_EQ(sorted.size(), 1002u);
  EXPECT_EQ(sorted[0], std::make_pair(0u, unsigned{kAnyRemote}));
  EXPECT_EQ(sorted[1],
            std::make_pair(7u, kAnyRemote | kSmtpRemote | kAdminRemote));
  EXPECT_EQ(sorted.back(),
            std::make_pair(1099u, kAnyRemote | kBlacklistRemote));
}

}  // namespace
}  // namespace dm::netflow
