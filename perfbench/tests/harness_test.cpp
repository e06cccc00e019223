// Tests of the benchmark's own logic on hand-built inputs.
#include <gtest/gtest.h>

#include <istream>
#include <ostream>

#include "harness.h"

namespace perfbench {
namespace {

// ----------------------------------------------------------- percentiles

TEST(Percentile, NearestRankOnOneToHundred) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted input
  EXPECT_EQ(percentile(samples, 50), 50);
  EXPECT_EQ(percentile(samples, 99), 99);
  EXPECT_EQ(percentile(samples, 99.9), 100);
  EXPECT_EQ(percentile(samples, 0), 1);
  EXPECT_EQ(percentile(samples, 100), 100);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({}), 0);
}

TEST(Percentile, SamplesBeyondAndHighestSupported) {
  // A week of feed minutes gives 10,079 samples: 100 lie beyond the p99
  // and 10 beyond the p99.9, the highest percentile that keeps ten.
  EXPECT_EQ(samples_beyond(10'079, 99), 100u);
  EXPECT_EQ(samples_beyond(10'079, 99.9), 10u);
  EXPECT_EQ(highest_supported_percentile(10'079), 99.9);
  EXPECT_EQ(highest_supported_percentile(1'000), 99);
  EXPECT_EQ(highest_supported_percentile(999), 90);  // 9 beyond rank 990
  EXPECT_EQ(highest_supported_percentile(990), 90);
  EXPECT_EQ(highest_supported_percentile(20), 50);
  EXPECT_EQ(highest_supported_percentile(19), 0);
}

// ------------------------------------------------------------------ spans

// pass [0, 100)
//   decode  aggregate over [0, 100), busy 30
//   ingest  aggregate over [0, 100), busy 50
//     close [40, 50)
//   finish  [90, 100)
std::vector<Span> hand_built_tree() {
  return {
      {"bench.pass", 0, 100, -1, 100},
      {"netflow.decode", 0, 100, 0, 30},
      {"detect.ingest", 0, 100, 0, 50},
      {"detect.close", 40, 50, 2, 10},
      {"detect.finish", 90, 100, 0, 10},
  };
}

TEST(Spans, SelfTimeSubtractsDirectChildrenOnly) {
  const std::vector<Span> spans = hand_built_tree();
  const std::vector<std::int64_t> self = self_times(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 100 - 30 - 50 - 10);  // the close is a grandchild
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 50 - 10);
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[4], 10);
}

TEST(Spans, LayerSelfTimesPartitionThePass) {
  std::vector<Span> spans = hand_built_tree();
  spans.push_back({"sim.generate", 200, 300, -1, 100});  // outside any pass
  const auto layers = layer_self_times(spans, "bench.pass");
  EXPECT_EQ(layers.at("bench"), 10);
  EXPECT_EQ(layers.at("netflow"), 30);
  EXPECT_EQ(layers.at("detect"), 60);
  EXPECT_EQ(layers.count("sim"), 0u);
  std::int64_t sum = 0;
  for (const auto& [layer, ns] : layers) sum += ns;
  EXPECT_EQ(sum, spans[0].busy_ns);
}

TEST(Spans, TotalsBySubtree) {
  std::vector<Span> spans = hand_built_tree();
  spans.push_back({"bench.pass", 100, 150, -1, 50});
  spans.push_back({"netflow.decode", 100, 150, 5, 20});
  EXPECT_EQ(total_of(spans, "netflow.decode").busy_ns, 50);
  EXPECT_EQ(total_of(spans, "netflow.decode").count, 2u);
  EXPECT_EQ(total_of(spans, "netflow.decode", 5).busy_ns, 20);
  EXPECT_EQ(total_of(spans, "detect.close", 0).busy_ns, 10);
  EXPECT_EQ(total_of(spans, "detect.close", 5).count, 0u);
}

TEST(Spans, ChildBeforeParentIsRejected) {
  const std::vector<Span> spans = {{"a.child", 0, 1, 1, 1},
                                   {"a.parent", 0, 2, -1, 2}};
  EXPECT_THROW((void)self_times(spans), std::logic_error);
}

TEST(Spans, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  {
    const Scope scope(tracer, "netflow.decode", -1);
    EXPECT_EQ(scope.index(), -1);
  }
  EXPECT_EQ(tracer.add("detect.ingest", 0, 1, -1, 1), -1);
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(Spans, ScopesNestAndCloseInOrder) {
  Tracer tracer(true);
  {
    const Scope outer(tracer, "bench.pass", -1);
    const Scope inner(tracer, "netflow.decode", outer.index());
  }
  ASSERT_EQ(tracer.spans().size(), 2u);
  const Span& outer = tracer.spans()[0];
  const Span& inner = tracer.spans()[1];
  EXPECT_EQ(inner.parent, 0);
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_LE(inner.end_ns, outer.end_ns);
  EXPECT_GE(self_times(tracer.spans())[0], 0);
}

// ---------------------------------------------------------------- oracle

std::vector<dm::detect::AttackIncident> two_incidents() {
  dm::detect::AttackIncident a;
  a.vip = dm::netflow::IPv4(0x64400001u);
  a.direction = dm::netflow::Direction::kInbound;
  a.type = dm::sim::AttackType::kSynFlood;
  a.start = 10;
  a.end = 14;
  a.active_minutes = 4;
  a.total_sampled_packets = 900;
  a.peak_sampled_ppm = 300;
  a.peak_unique_remotes = 12;
  a.ramp_up_minutes = 1;
  dm::detect::AttackIncident b = a;
  b.vip = dm::netflow::IPv4(0x64400002u);
  b.direction = dm::netflow::Direction::kOutbound;
  b.start = 20;
  b.end = 21;
  return {a, b};
}

std::vector<IncidentRow> rows(const std::vector<dm::detect::AttackIncident>& in,
                              unsigned fields) {
  std::vector<IncidentRow> out;
  for (const auto& incident : in) out.push_back(project(incident, fields));
  return out;
}

TEST(Oracle, EqualSetsMatchInAnyOrder) {
  auto incidents = two_incidents();
  auto reversed = incidents;
  std::swap(reversed[0], reversed[1]);
  EXPECT_EQ(compare_incidents(rows(reversed, kAllFields), rows(incidents, kAllFields)),
            "");
}

TEST(Oracle, EachMutatedFieldFails) {
  const auto want = two_incidents();
  const std::vector<void (*)(dm::detect::AttackIncident&)> mutations = {
      [](auto& i) { i.vip = dm::netflow::IPv4(i.vip.value() + 7); },
      [](auto& i) { i.direction = dm::netflow::Direction::kOutbound; },
      [](auto& i) { i.type = dm::sim::AttackType::kUdpFlood; },
      [](auto& i) { ++i.start; },
      [](auto& i) { ++i.end; },
      [](auto& i) { ++i.active_minutes; },
      [](auto& i) { ++i.total_sampled_packets; },
      [](auto& i) { ++i.peak_sampled_ppm; },
      [](auto& i) { ++i.peak_unique_remotes; },
      [](auto& i) { ++i.ramp_up_minutes; },
  };
  for (std::size_t f = 0; f < mutations.size(); ++f) {
    auto got = want;
    mutations[f](got[0]);
    EXPECT_NE(compare_incidents(rows(got, kAllFields), rows(want, kAllFields)), "")
        << "field " << f;
  }
}

TEST(Oracle, MaskedFieldIsIgnored) {
  const auto want = two_incidents();
  auto got = want;
  got[1].ramp_up_minutes += 3;
  EXPECT_NE(compare_incidents(rows(got, kAllFields), rows(want, kAllFields)), "");
  EXPECT_EQ(compare_incidents(rows(got, kAllButRampUp), rows(want, kAllButRampUp)),
            "");
}

TEST(Oracle, MissingIncidentFails) {
  const auto want = two_incidents();
  auto got = want;
  got.pop_back();
  EXPECT_NE(compare_incidents(rows(got, kAllFields), rows(want, kAllFields)), "");
}

TEST(Oracle, IncidentEventCarriesTheEventFields) {
  const auto incident = two_incidents()[0];
  dm::serve::Event event;
  event.kind = dm::serve::Event::Kind::kIncident;
  event.vip = incident.vip.value();
  event.direction = static_cast<std::uint8_t>(incident.direction);
  event.type = static_cast<std::uint8_t>(incident.type);
  event.start = incident.start;
  event.end = incident.end;
  event.packets = incident.total_sampled_packets;
  event.remotes = incident.peak_unique_remotes;
  EXPECT_EQ(project(event), project(incident, kEventFields));
  event.packets += 1;
  EXPECT_NE(project(event), project(incident, kEventFields));
}

TEST(Ledgers, BalancedPassAndUnbalancedFails) {
  std::vector<Ledger> ledgers = {
      {"offered = admitted + shed", 10, {7, 3}},
      {"records_late = 0", 0, {0}},
  };
  EXPECT_EQ(unbalanced(ledgers), "");
  ledgers.push_back({"enqueued = delivered + dropped + spilled", 5, {4, 0, 0}});
  const std::string error = unbalanced(ledgers);
  EXPECT_NE(error.find("enqueued = delivered"), std::string::npos) << error;
}

// ---------------------------------------------------------- byte streams

TEST(ByteStreams, RoundTrip) {
  std::vector<std::uint8_t> bytes;
  {
    ByteSink sink(bytes);
    std::ostream out(&sink);
    out << "dmnf" << 42;
    out.put('!');
  }
  ASSERT_EQ(bytes.size(), 7u);
  ByteSource source(bytes);
  std::istream in(&source);
  std::string word;
  in >> word;
  EXPECT_EQ(word, "dmnf42!");
}

// ---------------------------------------------------------------- result

TEST(Result, JsonLine) {
  const std::vector<Metric> metrics = {{"records_per_s", 1.5, "1/s"},
                                       {"setup_s", 0.25, "s"}};
  EXPECT_EQ(result_json(true, 10, 1, metrics),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": "
            "{\"records_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}, "
            "\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}");
}

}  // namespace
}  // namespace perfbench
