#include "cloud/vip_registry.h"

#include <algorithm>

#include "util/error.h"
#include "util/rng.h"

namespace dm::cloud {

using netflow::IPv4;
using netflow::Prefix;

std::string_view to_string(TenantClass t) noexcept {
  switch (t) {
    case TenantClass::kEnterprise: return "enterprise";
    case TenantClass::kSmallBusiness: return "small-business";
    case TenantClass::kFreeTrial: return "free-trial";
    case TenantClass::kPartner: return "partner";
  }
  return "?";
}

bool VipInfo::hosts(ServiceType s) const noexcept {
  return std::find(services.begin(), services.end(), s) != services.end();
}

bool VipInfo::active_at(util::Minute m, util::Minute trace_end) const noexcept {
  const util::Minute until = active_until == 0 ? trace_end : active_until;
  return m >= active_from && m < until;
}

namespace {

/// Probability a VIP hosts each service; tuned so the victim-population mix
/// approaches Table 3's "Total" column (multi-label: a VIP often hosts
/// several services). DNS is assigned explicitly to a single VIP (§3.1).
struct ServiceAssignProb {
  ServiceType type;
  double probability;
};
constexpr ServiceAssignProb kServiceProbs[] = {
    {ServiceType::kHttp, 0.36},   {ServiceType::kRdp, 0.33},
    {ServiceType::kHttps, 0.15},  {ServiceType::kSsh, 0.10},
    {ServiceType::kIpEncap, 0.07}, {ServiceType::kSql, 0.04},
    {ServiceType::kSmtp, 0.033},  {ServiceType::kMedia, 0.02},
    {ServiceType::kVnc, 0.015},
};

GeoRegion dc_region(std::uint32_t dc_index) noexcept {
  // "10+ geographically distributed data centers across America, Europe,
  // Asia, and Oceania" (§2.1).
  constexpr GeoRegion kRegions[] = {
      GeoRegion::kNorthAmericaWest, GeoRegion::kNorthAmericaEast,
      GeoRegion::kNorthAmericaEast, GeoRegion::kWesternEurope,
      GeoRegion::kWesternEurope,    GeoRegion::kEasternEurope,
      GeoRegion::kEastAsia,         GeoRegion::kEastAsia,
      GeoRegion::kSoutheastAsia,    GeoRegion::kOceania,
  };
  return kRegions[dc_index % std::size(kRegions)];
}

}  // namespace

VipRegistry::VipRegistry(const VipRegistryConfig& config, std::uint64_t seed) {
  if (config.vip_count == 0) throw ConfigError("VipRegistry: vip_count must be > 0");
  if (config.data_center_count == 0 || config.data_center_count > 16) {
    throw ConfigError("VipRegistry: data_center_count must be in [1, 16]");
  }
  util::Rng rng(seed ^ 0xc10d'c10d'c10dULL);

  // The cloud owns 100.64.0.0/12; one /16 per data center.
  const IPv4 cloud_base = IPv4::from_octets(100, 64, 0, 0);
  for (std::uint32_t dc = 0; dc < config.data_center_count; ++dc) {
    DataCenter d;
    d.id = dc;
    d.name = "dc-" + std::to_string(dc);
    d.region = dc_region(dc);
    d.prefix = Prefix(IPv4(cloud_base.value() + (dc << 16)), 16);
    cloud_space_.add(d.prefix);
    data_centers_.push_back(std::move(d));
  }

  vips_.reserve(config.vip_count);
  std::vector<std::uint64_t> next_host(config.data_center_count, 1);
  for (std::uint32_t i = 0; i < config.vip_count; ++i) {
    VipInfo v;
    v.data_center =
        static_cast<std::uint32_t>(rng.below(config.data_center_count));
    const auto& dc_prefix = data_centers_[v.data_center].prefix;
    // Sequential VIP allocation within the data center /16 keeps addresses
    // unique and dense; attackers scanning "the entire IP subnet" (§4.3)
    // then hit real VIPs.
    std::uint64_t& counter = next_host[v.data_center];
    if (counter >= dc_prefix.size() - 1) {
      throw ConfigError("VipRegistry: data center address block exhausted");
    }
    v.vip = dc_prefix.at(counter++);

    const double tenant_roll = rng.uniform01();
    if (tenant_roll < config.free_trial_fraction) {
      v.tenant = TenantClass::kFreeTrial;
    } else if (tenant_roll < config.free_trial_fraction + config.partner_fraction) {
      v.tenant = TenantClass::kPartner;
    } else if (tenant_roll < config.free_trial_fraction + config.partner_fraction +
                                 config.small_business_fraction) {
      v.tenant = TenantClass::kSmallBusiness;
    } else {
      v.tenant = TenantClass::kEnterprise;
    }

    for (const auto& [type, probability] : kServiceProbs) {
      if (rng.chance(probability)) v.services.push_back(type);
    }
    if (v.services.empty()) {
      v.services.push_back(rng.chance(0.5) ? ServiceType::kHttp
                                           : ServiceType::kRdp);
    }

    v.popularity = rng.pareto(config.popularity_alpha, 0.05, config.popularity_cap);
    v.weak_credentials = rng.chance(config.weak_credentials_fraction);
    vips_.push_back(std::move(v));
  }

  // Exactly one VIP hosts the cloud's public DNS (§3.1: outbound DNS
  // responses were observed "from a single VIP hosting a DNS server").
  auto& dns_vip = vips_[rng.below(vips_.size())];
  if (!dns_vip.hosts(ServiceType::kDns)) {
    dns_vip.services.push_back(ServiceType::kDns);
  }

  // Tenant churn and the dormant partner VIP (Fig 5 case study material).
  if (config.trace_minutes > 0) {
    const auto t_end = config.trace_minutes;
    bool dormant_partner = false;
    for (auto& v : vips_) {
      const double roll = rng.uniform01();
      if (roll < 0.10) {
        v.active_from = static_cast<util::Minute>(
            rng.below(static_cast<std::uint64_t>(t_end * 7 / 10)));
      } else if (roll < 0.20) {
        v.active_until = t_end * 3 / 10 +
                         static_cast<util::Minute>(rng.below(
                             static_cast<std::uint64_t>(t_end * 7 / 10)));
      }
      if (v.tenant == TenantClass::kPartner && !dormant_partner &&
          rng.chance(0.25)) {
        v.active_from = t_end;  // never generates benign traffic
        v.weak_credentials = true;
        dormant_partner = true;
      }
    }
    if (!dormant_partner) {
      for (auto& v : vips_) {
        if (v.tenant == TenantClass::kPartner) {
          v.active_from = t_end;
          v.weak_credentials = true;
          dormant_partner = true;
          break;
        }
      }
    }
    if (!dormant_partner && !vips_.empty()) {
      vips_.front().tenant = TenantClass::kPartner;
      vips_.front().active_from = t_end;
      vips_.front().weak_credentials = true;
    }
  }

  by_ip_.reserve(vips_.size());
  for (std::uint32_t i = 0; i < vips_.size(); ++i) {
    by_ip_.emplace_back(vips_[i].vip, i);
  }
  std::sort(by_ip_.begin(), by_ip_.end());
  const auto dup = std::adjacent_find(
      by_ip_.begin(), by_ip_.end(),
      [](const auto& a, const auto& b) { return a.first == b.first; });
  if (dup != by_ip_.end()) {
    throw ConfigError("VipRegistry: duplicate VIP allocation");
  }
}

const VipInfo* VipRegistry::lookup(IPv4 ip) const noexcept {
  const auto it = std::lower_bound(
      by_ip_.begin(), by_ip_.end(), ip,
      [](const auto& entry, IPv4 key) { return entry.first < key; });
  if (it == by_ip_.end() || it->first != ip) return nullptr;
  return &vips_[it->second];
}

std::vector<std::uint32_t> VipRegistry::with_service(ServiceType s) const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < vips_.size(); ++i) {
    if (vips_[i].hosts(s)) out.push_back(i);
  }
  return out;
}

std::vector<std::uint32_t> VipRegistry::with_tenant(TenantClass t) const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < vips_.size(); ++i) {
    if (vips_[i].tenant == t) out.push_back(i);
  }
  return out;
}

}  // namespace dm::cloud
