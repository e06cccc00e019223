// Differential suite for the batch decode pipeline. Two oracles, two
// layers:
//
//   1. get_varint_swar vs get_varint — the SWAR kernel must decode every
//      well-formed LEB128 encoding (1..10 bytes, including the 9/10-byte
//      fallback lengths and boundary bit-widths) to the same value and the
//      same end pointer as the scalar loop.
//   2. BlockCursor vs Cursor — for any store (round-trip fixtures,
//      adversarial extremes, shard-order appends) and any limit passed to
//      reset(), the concatenated DecodedBlocks must be field-for-field
//      identical to the scalar Cursor stream — entered by
//      ColumnarRecords::seek at any position — with a run_mask that marks
//      exactly the run-start rows. This is the invariant the window build
//      (build_windows_blocks) rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "netflow/columnar_records.h"
#include "netflow/varint.h"
#include "util/rng.h"

namespace dm::netflow {
namespace {

// --- SWAR varint kernel vs scalar oracle -------------------------------

TEST(VarintSwar, AllBitWidthsMatchScalar) {
  // One value per significant-bit count 0..64, plus the exact boundaries
  // where the encoded length changes (2^7k - 1 and 2^7k).
  std::vector<std::uint64_t> values{0};
  for (unsigned bits = 1; bits <= 64; ++bits) {
    const std::uint64_t top = bits == 64 ? ~std::uint64_t{0}
                                         : (std::uint64_t{1} << bits) - 1;
    values.push_back(top);
    values.push_back(top >> 1 | 1);
  }
  for (unsigned k = 1; k <= 9; ++k) {
    values.push_back((std::uint64_t{1} << (7 * k)) - 1);  // last k-byte value
    if (7 * k < 64) values.push_back(std::uint64_t{1} << (7 * k));
  }
  values.push_back(std::numeric_limits<std::uint64_t>::max());

  for (const std::uint64_t v : values) {
    SCOPED_TRACE("value " + std::to_string(v));
    std::vector<std::uint8_t> buf;
    put_varint(buf, v);
    buf.resize(buf.size() + kSwarRecordSlack, 0);  // SWAR word-read slack

    const std::uint8_t* scalar = buf.data();
    const std::uint8_t* swar = buf.data();
    EXPECT_EQ(get_varint(scalar), v);
    EXPECT_EQ(get_varint_swar(swar), v);
    EXPECT_EQ(swar, scalar) << "end pointers diverge";
  }
}

TEST(VarintSwar, RandomStreamsMatchScalar) {
  util::Rng rng(4242);
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<std::uint64_t> values;
    std::vector<std::uint8_t> buf;
    const std::size_t n = 200 + rng.below(800);
    for (std::size_t i = 0; i < n; ++i) {
      // Skew toward small values (the columnar payload's distribution) but
      // keep a tail of full-width ones that force the scalar fallback.
      const unsigned bits = static_cast<unsigned>(1 + rng.below(64));
      const std::uint64_t mask =
          bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
      values.push_back(rng.uniform_u64(0, mask));
      put_varint(buf, values.back());
    }
    buf.resize(buf.size() + kSwarRecordSlack, 0);

    const std::uint8_t* scalar = buf.data();
    const std::uint8_t* swar = buf.data();
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(get_varint_swar(swar), values[i]) << "varint " << i;
      ASSERT_EQ(get_varint(scalar), values[i]);
      ASSERT_EQ(swar, scalar) << "end pointers diverge at varint " << i;
    }
  }
}

TEST(VarintSwar, AdjacentContinuationBytesDoNotBleed) {
  // A 1-byte varint followed by 0xff... continuation bytes: the SWAR word
  // load sees the neighbours, but the stop-bit scan must cut at byte 0.
  std::vector<std::uint8_t> buf{0x05};
  buf.resize(1 + kSwarRecordSlack, 0xff);
  const std::uint8_t* p = buf.data();
  EXPECT_EQ(get_varint_swar(p), 5u);
  EXPECT_EQ(p, buf.data() + 1);
}

// --- BlockCursor vs Cursor ---------------------------------------------

struct Oriented {
  FlowRecord record;
  Direction direction = Direction::kInbound;
};

FlowRecord make_record(util::Minute minute, std::uint32_t src,
                       std::uint32_t dst, std::uint16_t src_port,
                       std::uint16_t dst_port, Protocol protocol,
                       TcpFlags flags, std::uint32_t packets,
                       std::uint64_t bytes) {
  FlowRecord r;
  r.minute = minute;
  r.src_ip = IPv4(src);
  r.dst_ip = IPv4(dst);
  r.src_port = src_port;
  r.dst_port = dst_port;
  r.protocol = protocol;
  r.tcp_flags = flags;
  r.packets = packets;
  r.bytes = bytes;
  return r;
}

Oriented random_oriented(util::Rng& rng) {
  constexpr Protocol kProtocols[] = {Protocol::kIpEncap, Protocol::kIcmp,
                                     Protocol::kTcp, Protocol::kUdp};
  Oriented o;
  o.direction = rng.chance(0.5) ? Direction::kInbound : Direction::kOutbound;
  o.record = make_record(
      static_cast<util::Minute>(rng.below(10'000)),
      static_cast<std::uint32_t>(rng.below(1ULL << 32)),
      static_cast<std::uint32_t>(rng.below(1ULL << 32)),
      static_cast<std::uint16_t>(rng.below(65536)),
      static_cast<std::uint16_t>(rng.below(65536)), kProtocols[rng.below(4)],
      static_cast<TcpFlags>(rng.below(64)),
      static_cast<std::uint32_t>(1 + rng.below(1'000'000)),
      rng.uniform_u64(1, std::numeric_limits<std::uint64_t>::max()));
  return o;
}

ColumnarRecords encode(const std::vector<Oriented>& input) {
  ColumnarRecords store;
  for (const Oriented& o : input) store.push_back(o.record, o.direction);
  store.shrink_to_fit();
  return store;
}

/// Canonical-ish batch with run lengths straddling the block capacity:
/// some runs shorter than 64 records, some far longer, so blocks cover
/// run-spans-block, block-spans-runs, and exact-boundary cases.
std::vector<Oriented> canonical_batch(util::Rng& rng, std::size_t groups) {
  constexpr std::size_t kRunShapes[] = {1, 3, 63, 64, 65, 200};
  std::vector<Oriented> out;
  std::uint32_t vip = 0x0a000000;
  for (std::size_t g = 0; g < groups; ++g) {
    vip += static_cast<std::uint32_t>(rng.below(3));
    const auto direction =
        rng.chance(0.5) ? Direction::kInbound : Direction::kOutbound;
    const auto minute = static_cast<util::Minute>(g);
    std::uint32_t remote = 0x55000000 + static_cast<std::uint32_t>(g);
    const std::size_t per_group = kRunShapes[rng.below(6)];
    for (std::size_t i = 0; i < per_group; ++i) {
      remote += static_cast<std::uint32_t>(rng.below(1000));
      Oriented o;
      o.direction = direction;
      const std::uint32_t src = direction == Direction::kInbound ? remote : vip;
      const std::uint32_t dst = direction == Direction::kInbound ? vip : remote;
      o.record = make_record(minute, src, dst,
                             static_cast<std::uint16_t>(1024 + rng.below(100)),
                             80, Protocol::kTcp, TcpFlags::kAck,
                             static_cast<std::uint32_t>(1 + rng.below(20)),
                             40 * (1 + rng.below(30)));
      out.push_back(o);
    }
  }
  return out;
}

/// Drains a BlockCursor entered through reset(view, last) — the way
/// build_windows_blocks enters one — and checks every base_index and
/// run_mask bit, and every decoded field of the rows from `first` on
/// against the scalar Cursor that ColumnarRecords::seek(view, first)
/// returns, clipped to `last`.
void expect_blocks_match_cursor(const ColumnarView& view, std::size_t first,
                                std::size_t last) {
  ColumnarRecords::BlockCursor blocks;
  blocks.reset(view, last);
  auto cursor = ColumnarRecords::seek(view, first);
  cursor.clip(last);
  DecodedBlock block;
  std::size_t i = 0;
  while (blocks.next(block)) {
    ASSERT_GT(block.count, 0u);
    ASSERT_LE(block.count, +DecodedBlock::kCapacity);
    ASSERT_EQ(block.base_index, i);
    for (std::size_t k = 0; k < block.count; ++k, ++i) {
      ASSERT_LT(i, last) << "block decoded past the limit";
      // run_mask bit k must equal "record i is some run's first record".
      const bool is_run_start =
          std::binary_search(view.run_starts, view.run_starts + view.runs,
                             static_cast<std::uint32_t>(i));
      ASSERT_EQ(((block.run_mask >> k) & 1) != 0, is_run_start)
          << "run_mask bit " << k << " of record " << i;
      if (i < first) continue;
      SCOPED_TRACE("record " + std::to_string(i));
      ASSERT_TRUE(cursor.next());
      ASSERT_EQ(cursor.index(), i);
      const FlowRecord& r = cursor.record();
      const auto dir = static_cast<Direction>(block.direction[k]);
      ASSERT_EQ(dir, cursor.direction());
      const IPv4 vip = dir == Direction::kInbound ? r.dst_ip : r.src_ip;
      const IPv4 remote = dir == Direction::kInbound ? r.src_ip : r.dst_ip;
      ASSERT_EQ(block.vip[k], vip.value());
      ASSERT_EQ(block.remote[k], remote.value());
      ASSERT_EQ(block.minute[k], r.minute);
      ASSERT_EQ(block.src_port[k], r.src_port);
      ASSERT_EQ(block.dst_port[k], r.dst_port);
      ASSERT_EQ(static_cast<Protocol>(block.protocol[k]), r.protocol);
      ASSERT_EQ(static_cast<TcpFlags>(block.tcp_flags[k]), r.tcp_flags);
      ASSERT_EQ(block.packets[k], r.packets);
      ASSERT_EQ(block.bytes[k], r.bytes);
    }
  }
  EXPECT_EQ(block.count, 0u);  // exhausted next() must report an empty block
  EXPECT_FALSE(blocks.next(block)) << "exhausted BlockCursor must stay so";
  EXPECT_EQ(i, last);
  EXPECT_FALSE(cursor.next()) << "Cursor has records the blocks missed";
}

void expect_block_equivalence(const ColumnarRecords& store,
                              const std::vector<Oriented>& input) {
  ASSERT_EQ(store.size(), input.size());
  const ColumnarView view = store.view();

  // Full scan from 0.
  expect_blocks_match_cursor(view, 0, store.size());

  // Cursor seeks: run starts, mid-run positions, random points, the end.
  util::Rng rng(0xb10c);
  std::vector<std::size_t> seeks{0, store.size()};
  for (int s = 0; s < 40; ++s) seeks.push_back(rng.below(store.size() + 1));
  for (std::size_t r = 0; r < view.runs; r += 1 + view.runs / 16) {
    seeks.push_back(view.run_starts[r]);                // run starts: O(1) path
    seeks.push_back(std::min(store.size(),
                             view.run_starts[r] + std::size_t{1}));  // mid-run
  }
  for (const std::size_t first : seeks) {
    SCOPED_TRACE("seek " + std::to_string(first));
    expect_blocks_match_cursor(view, first, store.size());
  }

  // Decode limits, including limits that land mid-block and mid-run.
  for (int s = 0; s < 40; ++s) {
    const std::size_t first = rng.below(store.size() + 1);
    const std::size_t last = first + rng.below(store.size() + 1 - first);
    SCOPED_TRACE("limit [" + std::to_string(first) + ", " +
                 std::to_string(last) + ")");
    expect_blocks_match_cursor(view, first, last);
  }
}

TEST(ColumnarBlocks, EmptyStore) {
  const ColumnarRecords store;
  ColumnarRecords::BlockCursor blocks;
  blocks.reset(store.view(), store.size());
  DecodedBlock block;
  block.count = 99;  // stale scratch: next() must clear it
  EXPECT_FALSE(blocks.next(block));
  EXPECT_EQ(block.count, 0u);
  EXPECT_FALSE(blocks.next(block));
}

TEST(ColumnarBlocks, CanonicalBatchMatchesCursor) {
  util::Rng rng(111);
  const auto input = canonical_batch(rng, 150);
  expect_block_equivalence(encode(input), input);
}

TEST(ColumnarBlocks, UnsortedRandomMatchesCursor) {
  util::Rng rng(222);
  std::vector<Oriented> input;
  for (std::size_t i = 0; i < 3000; ++i) input.push_back(random_oriented(rng));
  // Every record is (nearly) its own run and all fields are full-width —
  // worst case for the SWAR path and the run-broadcast loop alike.
  expect_block_equivalence(encode(input), input);
}

TEST(ColumnarBlocks, AdversarialExtremesMatchCursor) {
  constexpr auto kMin = std::numeric_limits<util::Minute>::min();
  constexpr auto kMax = std::numeric_limits<util::Minute>::max();
  constexpr std::uint32_t kIpMax = 0xffffffffu;
  constexpr auto kU32Max = std::numeric_limits<std::uint32_t>::max();
  constexpr auto kU64Max = std::numeric_limits<std::uint64_t>::max();

  std::vector<Oriented> input;
  input.push_back({make_record(kMax, kIpMax, kIpMax, 0xffff, 0xffff,
                               Protocol::kUdp, static_cast<TcpFlags>(0x3f),
                               kU32Max, kU64Max),
                   Direction::kInbound});
  input.push_back({make_record(kMin, 0, 0, 0, 0, Protocol::kIpEncap,
                               TcpFlags::kNone, 0, 0),
                   Direction::kOutbound});
  // One long run of maximal remote swings (0 <-> max zigzag deltas) so the
  // 10-byte scalar-fallback encodings appear *inside* a SWAR-decoded run.
  for (int i = 0; i < 200; ++i) {
    input.push_back({make_record(7, (i % 2) != 0 ? kIpMax : 0u, 0,
                                 static_cast<std::uint16_t>(i), 3,
                                 Protocol::kTcp, TcpFlags::kAck,
                                 kU32Max - static_cast<std::uint32_t>(i),
                                 kU64Max - static_cast<std::uint64_t>(i)),
                     Direction::kInbound});
  }
  expect_block_equivalence(encode(input), input);
}

TEST(ColumnarBlocks, AppendedStoreMatchesCursor) {
  util::Rng rng(333);
  const auto input = canonical_batch(rng, 80);

  // Shard-order append with cuts that can land mid-run: the merged store's
  // run/checkpoint layout differs from the monolithic encoding, but blocks
  // must still mirror the cursor over the merged view.
  std::vector<std::size_t> cuts{0, input.size()};
  for (int c = 0; c < 5; ++c) cuts.push_back(rng.below(input.size() + 1));
  std::sort(cuts.begin(), cuts.end());

  ColumnarRecords merged;
  for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
    ColumnarRecords piece;
    for (std::size_t i = cuts[c]; i < cuts[c + 1]; ++i) {
      piece.push_back(input[i].record, input[i].direction);
    }
    merged.append(std::move(piece));
  }
  expect_block_equivalence(merged, input);
}

}  // namespace
}  // namespace dm::netflow
