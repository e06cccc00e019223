// Cloud service types hosted on VIPs, with their ports and benign traffic
// profiles. The set matches the rows of the paper's Table 3 plus the media
// and DNS services the text discusses.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "netflow/protocol.h"

namespace dm::cloud {

/// Application service classes hosted on VIPs.
enum class ServiceType : std::uint8_t {
  kHttp,     ///< web, ports 80/8080 — 99% of cloud traffic per the paper
  kHttps,    ///< web TLS, port 443
  kRdp,      ///< remote desktop, port 3389
  kSsh,      ///< remote shell, port 22
  kVnc,      ///< remote desktop, port 5900
  kSql,      ///< database, ports 1433/3306
  kSmtp,     ///< mail, port 25
  kMedia,    ///< UDP streaming (the paper's "media services")
  kDns,      ///< authoritative DNS hosted on a VIP (rare; §3.1)
  kIpEncap,  ///< encapsulated traffic, protocol 0 (Table 3 "IP Encap")
};

inline constexpr ServiceType kAllServiceTypes[] = {
    ServiceType::kHttp, ServiceType::kHttps, ServiceType::kRdp,
    ServiceType::kSsh,  ServiceType::kVnc,   ServiceType::kSql,
    ServiceType::kSmtp, ServiceType::kMedia, ServiceType::kDns,
    ServiceType::kIpEncap,
};

[[nodiscard]] std::string_view to_string(ServiceType s) noexcept;

/// Static description of how one service behaves on the wire.
struct ServiceProfile {
  ServiceType type = ServiceType::kHttp;
  netflow::Protocol protocol = netflow::Protocol::kTcp;
  /// Ports the service listens on (1 or 2 entries).
  std::uint16_t ports[2] = {0, 0};
  std::uint8_t port_count = 1;
  /// Typical true (unsampled) inbound packet rate per minute for a VIP of
  /// unit popularity; scaled by the VIP's popularity weight.
  double base_packets_per_minute = 0.0;
  /// Typical distinct clients per minute at unit popularity.
  double base_clients_per_minute = 0.0;
  /// Mean packet size in bytes.
  double mean_packet_bytes = 0.0;
  /// Fraction of inbound volume echoed back outbound (responses).
  double response_ratio = 0.0;
};

/// The canonical profile for a service type.
[[nodiscard]] const ServiceProfile& profile_of(ServiceType s) noexcept;

/// Maps a (protocol, destination port) pair back to the service it
/// addresses, if any — the paper's Table 3 inference rule ("use the
/// destination port of inbound traffic to infer what type of applications").
[[nodiscard]] ServiceType service_for_port(netflow::Protocol protocol,
                                           std::uint16_t port,
                                           bool* known = nullptr) noexcept;

}  // namespace dm::cloud
