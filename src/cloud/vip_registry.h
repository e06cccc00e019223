// The cloud side of the model: data centers, tenants and their public
// virtual IPs (VIPs).
//
// Mirrors §2.1 of the paper: 10+ geo-distributed data centers, >10,000
// hosted services, each assigned a public VIP whose traffic the edge-router
// NetFlow captures. The simulated cloud owns 100.64.0.0/12, carved into one
// /16 per data center.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cloud/as_registry.h"
#include "cloud/service.h"
#include "netflow/ipv4.h"
#include "util/time.h"

namespace dm::cloud {

/// Subscription classes; drives outbound-abuse propensity (§4.1: spam VIPs
/// were "free trial accounts", the Fig 5 case study is a partner VIP).
enum class TenantClass : std::uint8_t {
  kEnterprise,
  kSmallBusiness,
  kFreeTrial,
  kPartner,
};

[[nodiscard]] std::string_view to_string(TenantClass t) noexcept;

/// One data center with its address block.
struct DataCenter {
  std::uint32_t id = 0;
  std::string name;
  GeoRegion region = GeoRegion::kNorthAmericaEast;
  netflow::Prefix prefix;
};

/// One hosted service endpoint (a VIP) and its static traits.
struct VipInfo {
  netflow::IPv4 vip;
  std::uint32_t data_center = 0;
  TenantClass tenant = TenantClass::kEnterprise;
  std::vector<ServiceType> services;  ///< at least one entry
  /// Popularity multiplier on the services' base traffic rates; heavy-tailed
  /// so a few VIPs carry most traffic (the paper's media/web heavy hitters).
  double popularity = 1.0;
  /// Minute the VIP becomes active / goes dormant; models churn and the
  /// long-idle partner VIP of the Fig 5 case study.
  util::Minute active_from = 0;
  util::Minute active_until = 0;  ///< exclusive; 0 means "end of trace"
  /// Weak credentials: eligible for brute-force compromise (§4.1 note).
  bool weak_credentials = false;

  [[nodiscard]] bool hosts(ServiceType s) const noexcept;
  [[nodiscard]] bool active_at(util::Minute m, util::Minute trace_end) const noexcept;
};

/// Parameters for synthesizing the VIP population.
struct VipRegistryConfig {
  std::uint32_t vip_count = 2000;
  std::uint32_t data_center_count = 10;
  double free_trial_fraction = 0.10;
  double partner_fraction = 0.05;
  double small_business_fraction = 0.25;
  double weak_credentials_fraction = 0.06;
  /// Popularity tail exponent (bounded Pareto in [0.05, popularity_cap]).
  double popularity_alpha = 1.2;
  double popularity_cap = 400.0;
  /// Trace length in minutes. When > 0, ~20% of VIPs get partial activity
  /// windows (tenant churn), and at least one partner VIP is left fully
  /// dormant — the raw material of the Fig 5 compromise case study.
  util::Minute trace_minutes = 0;
};

/// The VIP population and cloud address space.
class VipRegistry {
 public:
  VipRegistry(const VipRegistryConfig& config, std::uint64_t seed);

  [[nodiscard]] std::span<const VipInfo> all() const noexcept { return vips_; }
  [[nodiscard]] std::size_t size() const noexcept { return vips_.size(); }
  [[nodiscard]] std::span<const DataCenter> data_centers() const noexcept {
    return data_centers_;
  }

  /// The cloud's address space (for traffic orientation).
  [[nodiscard]] const netflow::PrefixSet& cloud_space() const noexcept {
    return cloud_space_;
  }

  [[nodiscard]] const VipInfo* lookup(netflow::IPv4 ip) const noexcept;

  /// Indices of VIPs hosting a service.
  [[nodiscard]] std::vector<std::uint32_t> with_service(ServiceType s) const;

  /// Indices of VIPs of a tenant class.
  [[nodiscard]] std::vector<std::uint32_t> with_tenant(TenantClass t) const;

 private:
  std::vector<VipInfo> vips_;
  std::vector<DataCenter> data_centers_;
  netflow::PrefixSet cloud_space_;
  /// Sorted by IP for binary-search lookup; built once at construction.
  std::vector<std::pair<netflow::IPv4, std::uint32_t>> by_ip_;
};

}  // namespace dm::cloud
