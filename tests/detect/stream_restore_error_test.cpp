// Malformed-checkpoint regression: StreamMonitor::restore must classify
// every damage shape with a structured FrameError kind and must leave
// the target monitor byte-identical to its pre-call state on EVERY failure
// path — including the empty and truncated streams that once slipped past
// validation straight into the payload decoder.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "detect/stream.h"
#include "netflow/flow_record.h"
#include "netflow/frame.h"

namespace dm::detect {
namespace {

using netflow::FlowRecord;
using netflow::FrameError;

netflow::PrefixSet sim_cloud_space() {
  netflow::PrefixSet set;
  set.add(netflow::Prefix(netflow::IPv4::from_octets(100, 64, 0, 0), 12));
  return set;
}

StreamMonitor make_monitor() {
  return StreamMonitor(sim_cloud_space(), nullptr, DetectionConfig{},
                       TimeoutTable::paper(), nullptr, nullptr, StreamConfig{});
}

std::string checkpoint_bytes(const StreamMonitor& monitor) {
  std::ostringstream out;
  monitor.checkpoint(out);
  return out.str();
}

/// The payload of a valid DMCK frame, so tests can rebuild frames around a
/// tampered payload with a self-consistent CRC.
std::vector<std::uint8_t> frame_payload(const std::string& frame) {
  const std::vector<std::uint8_t> bytes(frame.begin(), frame.end());
  const netflow::SpanBody body =
      netflow::read_frame_body(bytes, netflow::kFrameHeaderBytes, {});
  EXPECT_FALSE(body.error.has_value());
  return {body.payload.begin(), body.payload.end()};
}

/// Reframes `payload` behind `frame`'s magic and version with a correct
/// size varint and CRC — the "CRC-clean but semantically wrong"
/// construction kit.
std::string reframe(const std::string& frame,
                    const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out(frame.begin(),
                                frame.begin() + netflow::kFrameHeaderBytes);
  netflow::put_frame_body(out, payload);
  return {out.begin(), out.end()};
}

/// Asserts restore(`bytes`) throws FrameError with `kind` and that the
/// monitor's observable state (checkpoint bytes + counters) is untouched.
void expect_rejected(const std::string& bytes, FrameError::Kind kind,
                     const char* label) {
  SCOPED_TRACE(label);
  StreamMonitor target = make_monitor();
  FlowRecord r;
  r.minute = 4;
  r.src_ip = netflow::IPv4::from_octets(8, 8, 8, 8);
  r.dst_ip = netflow::IPv4::from_octets(100, 64, 1, 2);
  r.packets = 3;
  r.bytes = 99;
  target.ingest(r);
  const std::string before = checkpoint_bytes(target);

  std::istringstream in(bytes, std::ios::binary);
  try {
    target.restore(in);
    FAIL() << "restore accepted a malformed checkpoint";
  } catch (const FrameError& e) {
    EXPECT_EQ(static_cast<int>(e.kind()), static_cast<int>(kind))
        << "wrong kind: " << e.what();
  }
  EXPECT_EQ(checkpoint_bytes(target), before)
      << "failed restore mutated the monitor";
  EXPECT_EQ(target.records_ingested(), 1u);
}

class StreamRestoreError : public ::testing::Test {
 protected:
  void SetUp() override {
    StreamMonitor source = make_monitor();
    for (int i = 0; i < 50; ++i) {
      FlowRecord r;
      r.minute = i / 5;
      r.src_ip = netflow::IPv4::from_octets(9, 9, 9, static_cast<uint8_t>(i));
      r.dst_ip = netflow::IPv4::from_octets(100, 64, 0, 1);
      r.packets = 40;
      r.bytes = 2000;
      source.ingest(r);
    }
    valid_ = checkpoint_bytes(source);
    ASSERT_GT(valid_.size(), 16u);
  }

  std::string valid_;
};

TEST_F(StreamRestoreError, EmptyStream) {
  expect_rejected("", FrameError::Kind::kTruncated, "empty");
}

TEST_F(StreamRestoreError, TruncatedEverywhere) {
  // Cut inside the header, the size varint, the payload, and the CRC.
  for (const std::size_t cut : {std::size_t{3}, std::size_t{6},
                                valid_.size() / 2, valid_.size() - 2}) {
    expect_rejected(valid_.substr(0, cut), FrameError::Kind::kTruncated,
                    ("cut at " + std::to_string(cut)).c_str());
  }
}

TEST_F(StreamRestoreError, BadMagic) {
  std::string mangled = valid_;
  mangled[1] = 'X';
  expect_rejected(mangled, FrameError::Kind::kBadMagic, "magic");
}

TEST_F(StreamRestoreError, BadVersion) {
  std::string mangled = valid_;
  mangled[4] = 9;
  expect_rejected(mangled, FrameError::Kind::kBadVersion, "version");
}

TEST_F(StreamRestoreError, OversizedPayloadClaim) {
  // Header + a size varint claiming 2^40 bytes: must be rejected by the cap
  // before any allocation, not by running out of stream.
  std::string huge(valid_.substr(0, 6));
  for (int i = 0; i < 5; ++i) huge.push_back(static_cast<char>(0x80));
  huge.push_back(static_cast<char>(0x10));
  expect_rejected(huge, FrameError::Kind::kOversized, "oversized");
}

TEST_F(StreamRestoreError, PayloadBitFlip) {
  std::string mangled = valid_;
  mangled[valid_.size() / 2] ^= 0x04;
  expect_rejected(mangled, FrameError::Kind::kCrcMismatch, "bit flip");
}

TEST_F(StreamRestoreError, CrcValidButUndecodable) {
  // Drop the payload's last byte and reframe with a consistent size + CRC:
  // the frame is pristine, the content is not.
  auto payload = frame_payload(valid_);
  ASSERT_FALSE(payload.empty());
  payload.pop_back();
  expect_rejected(reframe(valid_, payload),
                  FrameError::Kind::kMalformedPayload, "undecodable");
}

TEST_F(StreamRestoreError, TrailingPayloadBytes) {
  auto payload = frame_payload(valid_);
  payload.push_back(0);
  expect_rejected(reframe(valid_, payload),
                  FrameError::Kind::kTrailingBytes, "trailing");
}

TEST_F(StreamRestoreError, PristineBytesStillRestoreAfterFailures) {
  StreamMonitor target = make_monitor();
  for (const std::size_t cut : {std::size_t{0}, std::size_t{5}}) {
    std::istringstream in(valid_.substr(0, cut), std::ios::binary);
    EXPECT_THROW(target.restore(in), FrameError);
  }
  std::istringstream in(valid_, std::ios::binary);
  target.restore(in);
  EXPECT_EQ(checkpoint_bytes(target), valid_);
  EXPECT_EQ(target.records_ingested(), 50u);
}

}  // namespace
}  // namespace dm::detect
