// Shared study-equivalence helpers for the integration suites: full-field
// exhibit serialization (every record-consuming analysis, full precision)
// and tuple-wise window/incident comparison. Two studies are "the same"
// exactly when expect_same_study passes — this is the bar both the
// columnar-equivalence and spill-equivalence suites hold the pipeline to.
#pragma once

#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>
#include <string>
#include <tuple>

#include "analysis/attribution.h"
#include "analysis/service_mix.h"
#include "analysis/signature.h"
#include "analysis/spoof_analysis.h"
#include "core/study.h"

namespace dm::test_support {

// ---- Exhibit serialization: every field, full precision. Two studies
// agree on an exhibit iff they produce the same string.

inline std::ostringstream exhibit_stream() {
  std::ostringstream os;
  os << std::setprecision(17);
  return os;
}

inline std::string dump_incident_remotes(const core::Study& study) {
  auto os = exhibit_stream();
  const auto& incidents = study.detection().incidents;
  for (std::size_t i = 0; i < incidents.size(); ++i) {
    os << "incident " << i << ":";
    for (const auto& rc : analysis::incident_remotes(
             study.trace(), incidents[i], &study.blacklist())) {
      os << " " << rc.remote.value() << "=" << rc.packets;
    }
    os << "\n";
  }
  return os.str();
}

inline std::string dump_service_tables(const core::Study& study) {
  auto os = exhibit_stream();
  const auto table = analysis::compute_service_attack_table(
      study.trace(), study.detection().minutes, study.detection().incidents);
  os << "victims=" << table.victim_vips << "\n";
  for (std::size_t s = 0; s < analysis::kReportedServiceCount; ++s) {
    os << "svc" << s << " share=" << table.hosting_share[s] << " cells=";
    for (const double c : table.cell[s]) os << c << ",";
    os << "\n";
  }
  const auto targets = analysis::compute_outbound_app_targets(
      study.trace(), study.detection().incidents);
  os << "attacking=" << targets.attacking_vips << " web=" << targets.web_share
     << " per_svc=";
  for (const auto v : targets.vips_per_service) os << v << ",";
  os << "\n";
  return os.str();
}

inline std::string dump_signatures(const core::Study& study) {
  auto os = exhibit_stream();
  for (const netflow::IPv4 vip : study.trace().vips()) {
    os << "vip " << vip.value() << ":\n";
    for (const auto& rule : analysis::extract_signatures(
             study.trace(), study.detection().incidents, vip, {},
             &study.blacklist())) {
      os << "  " << analysis::to_string(rule) << " incidents="
         << rule.incidents << " share=" << rule.packet_share << "\n";
    }
  }
  return os.str();
}

inline std::string dump_spoofing(const core::Study& study) {
  auto os = exhibit_stream();
  const auto result = analysis::analyze_spoofing(
      study.trace(), study.detection().incidents, &study.blacklist());
  for (const auto& v : result.verdicts) {
    os << v.incident_index << " spoofed=" << v.spoofed << " n=" << v.test.n
       << " A2=" << v.test.statistic << " p=" << v.test.p_value << "\n";
  }
  for (std::size_t t = 0; t < sim::kAttackTypeCount; ++t) {
    os << "type" << t << " frac=" << result.spoofed_fraction[t]
       << " tested=" << result.tested[t] << "\n";
  }
  return os.str();
}

struct Exhibits {
  std::string remotes;
  std::string services;
  std::string signatures;
  std::string spoofing;
};

inline Exhibits exhibits_of(const core::Study& study) {
  return {dump_incident_remotes(study), dump_service_tables(study),
          dump_signatures(study), dump_spoofing(study)};
}

inline auto window_tuple(const netflow::VipMinuteStats& w) {
  return std::make_tuple(
      w.vip.value(), w.minute, w.direction, w.packets, w.bytes, w.tcp_packets,
      w.udp_packets, w.icmp_packets, w.ipencap_packets, w.syn_packets,
      w.null_scan_packets, w.xmas_scan_packets, w.bare_rst_packets,
      w.dns_response_packets, w.flows, w.unique_remote_ips, w.smtp_flows,
      w.unique_smtp_remotes, w.remote_admin_flows, w.unique_admin_remotes,
      w.sql_flows, w.smtp_packets, w.admin_packets, w.sql_packets,
      w.blacklist_flows, w.unique_blacklist_remotes, w.blacklist_packets,
      w.first_record, w.last_record);
}

inline auto incident_tuple(const detect::AttackIncident& a) {
  return std::make_tuple(a.vip.value(), a.direction, a.type, a.start, a.end,
                         a.active_minutes, a.total_sampled_packets,
                         a.peak_sampled_ppm, a.peak_unique_remotes,
                         a.ramp_up_minutes);
}

/// Two windowed traces are the same when their records, directions,
/// windows, VIPs and unclassified counts all match.
inline void expect_same_trace(const netflow::WindowedTrace& base,
                              const netflow::WindowedTrace& other) {
  const auto base_records = base.records();
  const auto other_records = other.records();
  ASSERT_EQ(base_records.size(), other_records.size());
  auto other_it = other_records.begin();
  for (auto it = base_records.begin(); it != base_records.end();
       ++it, ++other_it) {
    ASSERT_EQ(*it, *other_it) << "record " << it.index();
    ASSERT_EQ(it.direction(), other_it.direction())
        << "direction " << it.index();
  }
  EXPECT_EQ(base.unclassified_records(), other.unclassified_records());

  const auto base_windows = base.windows();
  const auto other_windows = other.windows();
  ASSERT_EQ(base_windows.size(), other_windows.size());
  for (std::size_t i = 0; i < base_windows.size(); ++i) {
    ASSERT_EQ(window_tuple(base_windows[i]), window_tuple(other_windows[i]))
        << "window " << i;
  }

  const auto base_vips = base.vips();
  const auto other_vips = other.vips();
  ASSERT_EQ(base_vips.size(), other_vips.size());
  for (std::size_t i = 0; i < base_vips.size(); ++i) {
    EXPECT_EQ(base_vips[i], other_vips[i]) << "vip " << i;
  }
}

inline void expect_same_study(const core::Study& base,
                              const Exhibits& base_exhibits,
                              const core::Study& other) {
  ASSERT_EQ(base.record_count(), other.record_count());

  const auto& bw = base.trace().windows();
  const auto& ow = other.trace().windows();
  ASSERT_EQ(bw.size(), ow.size());
  for (std::size_t i = 0; i < bw.size(); ++i) {
    ASSERT_EQ(window_tuple(bw[i]), window_tuple(ow[i])) << "window " << i;
  }

  const auto& bi = base.detection().incidents;
  const auto& oi = other.detection().incidents;
  ASSERT_EQ(bi.size(), oi.size());
  for (std::size_t i = 0; i < bi.size(); ++i) {
    ASSERT_EQ(incident_tuple(bi[i]), incident_tuple(oi[i])) << "incident " << i;
  }

  const Exhibits other_exhibits = exhibits_of(other);
  EXPECT_EQ(base_exhibits.remotes, other_exhibits.remotes);
  EXPECT_EQ(base_exhibits.services, other_exhibits.services);
  EXPECT_EQ(base_exhibits.signatures, other_exhibits.signatures);
  EXPECT_EQ(base_exhibits.spoofing, other_exhibits.spoofing);
}

}  // namespace dm::test_support
