#include "sim/trace_generator.h"

#include <algorithm>
#include <utility>

#include "exec/parallel.h"
#include "netflow/window_aggregator.h"
#include "sim/attack_traffic.h"
#include "sim/benign_model.h"
#include "sim/scheduler.h"
#include "util/error.h"
#include "util/malloc_tune.h"

namespace dm::sim {

namespace {

ScenarioConfig with_trace_minutes(ScenarioConfig config) {
  config.vips.trace_minutes = config.total_minutes();
  return config;
}

}  // namespace

Scenario::Scenario(ScenarioConfig config)
    : config_(with_trace_minutes(std::move(config))),
      ases_(config_.ases, config_.seed),
      vips_(config_.vips, config_.seed),
      tds_(config_.tds, ases_, config_.seed) {}

TraceResult generate_trace(const Scenario& scenario, exec::ThreadPool* pool) {
  const ScenarioConfig& config = scenario.config();
  const netflow::PacketSampler sampler = scenario.sampler();

  TraceResult result;
  EpisodeScheduler scheduler(config, scenario.vips(), scenario.ases(),
                             scenario.tds());
  result.truth = scheduler.schedule();

  // Root streams mirror the serial generator's layout; each VIP/episode then
  // derives its own stream from its index (split), so a shard's records are
  // a pure function of (seed, entity index) — never of thread count.
  util::Rng root(config.seed);
  util::Rng benign_root = root.fork();
  util::Rng attack_root = root.fork();

  const BenignTrafficModel benign(config, scenario.vips(), scenario.ases(),
                                  config.seed, &scenario.tds());
  const util::Minute end = config.total_minutes();
  const std::size_t vip_count = scenario.vips().size();
  using RecordVec = std::vector<netflow::FlowRecord>;
  std::vector<RecordVec> benign_shards = exec::parallel_map_chunks<RecordVec>(
      pool, vip_count, [&](std::size_t lo, std::size_t hi) {
        RecordVec out;
        BenignTrafficModel::Scratch scratch;
        for (std::size_t v = lo; v < hi; ++v) {
          util::Rng vip_rng = benign_root.split(v);
          for (util::Minute m = 0; m < end; ++m) {
            benign.emit_minute(static_cast<std::uint32_t>(v), m, sampler,
                               vip_rng, scratch, out);
          }
        }
        return out;
      });

  const AttackTrafficModel attacks(scenario.ases(), scenario.tds());
  const std::span<const AttackEpisode> episodes = result.truth.episodes;
  std::vector<RecordVec> attack_shards = exec::parallel_map_chunks<RecordVec>(
      pool, episodes.size(), [&](std::size_t lo, std::size_t hi) {
        RecordVec out;
        for (std::size_t i = lo; i < hi; ++i) {
          const AttackEpisode& e = episodes[i];
          util::Rng episode_rng = attack_root.split(i);
          for (util::Minute m = e.start; m < e.end; ++m) {
            attacks.emit_minute(e, m, sampler, episode_rng, out);
          }
        }
        return out;
      });

  // Ordered merge: benign shards by VIP index, then attack shards by episode
  // index — the same record order a single-threaded pass would produce.
  std::size_t total = 0;
  for (const RecordVec& s : benign_shards) total += s.size();
  for (const RecordVec& s : attack_shards) total += s.size();
  result.records.reserve(total);
  for (RecordVec& s : benign_shards) {
    result.records.insert(result.records.end(), s.begin(), s.end());
  }
  for (RecordVec& s : attack_shards) {
    result.records.insert(result.records.end(), s.begin(), s.end());
  }
  return result;
}

TraceResult generate_trace(const Scenario& scenario) {
  exec::ThreadPool pool(exec::workers_for(scenario.config().thread_count));
  return generate_trace(scenario, &pool);
}

FusedTrace generate_windows(const Scenario& scenario, exec::ThreadPool* pool) {
  const ScenarioConfig& config = scenario.config();
  const netflow::PacketSampler sampler = scenario.sampler();
  const netflow::PrefixSet& cloud_space = scenario.vips().cloud_space();
  const netflow::PrefixSet* blacklist = &scenario.tds().as_prefix_set();

  util::tune_malloc_for_streaming();

  FusedTrace result;
  EpisodeScheduler scheduler(config, scenario.vips(), scenario.ases(),
                             scenario.tds());
  result.truth = scheduler.schedule();

  // Same RNG layout as generate_trace: every VIP/episode stream is split
  // from its *registry/episode index*, so a shard's records do not depend
  // on how VIPs are partitioned across shards.
  util::Rng root(config.seed);
  util::Rng benign_root = root.fork();
  util::Rng attack_root = root.fork();

  const BenignTrafficModel benign(config, scenario.vips(), scenario.ases(),
                                  config.seed, &scenario.tds());
  const AttackTrafficModel attacks(scenario.ases(), scenario.tds());
  const util::Minute end = config.total_minutes();

  // VIP registry order is not address order (VIPs land in random data
  // centers), but the canonical record order leads with the VIP address —
  // so shards partition the *address-sorted* VIP permutation. Each shard
  // then owns a contiguous address range and its sorted slice concatenates
  // directly into the global canonical order.
  const std::span<const cloud::VipInfo> vip_infos = scenario.vips().all();
  const std::size_t vip_count = vip_infos.size();
  std::vector<std::uint32_t> by_address(vip_count);
  for (std::size_t i = 0; i < vip_count; ++i) {
    by_address[i] = static_cast<std::uint32_t>(i);
  }
  // dmlint: total-order(VIP addresses are unique — VipRegistry rejects duplicate allocations)
  std::sort(by_address.begin(), by_address.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return vip_infos[a].vip < vip_infos[b].vip;
            });

  // Episodes bucketed by their VIP's address-order position. Bucket lists
  // keep ascending episode index: same-key ties between two episodes on one
  // VIP must resolve by episode index, exactly as the unfused arrival order
  // does.
  const std::span<const AttackEpisode> episodes = result.truth.episodes;
  std::vector<std::vector<std::uint32_t>> episodes_at(vip_count);
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    const auto pos = std::lower_bound(
        by_address.begin(), by_address.end(), episodes[i].vip,
        [&](std::uint32_t v, netflow::IPv4 ip) { return vip_infos[v].vip < ip; });
    const auto p = static_cast<std::size_t>(pos - by_address.begin());
    // The scheduler only targets registry VIPs; a miss here would silently
    // drop the episode's traffic from the fused trace.
    if (p == vip_count || vip_infos[by_address[p]].vip != episodes[i].vip) {
      throw Error(
          "generate_windows: episode targets a VIP outside the registry");
    }
    episodes_at[p].push_back(static_cast<std::uint32_t>(i));
  }

  // Per-shard fused pass: generate → aggregate → encode, never keeping the
  // unsorted records beyond the shard. Shards are the unit of transient
  // memory (shard_count_for): a shard's raw, sorted, and key arrays all live
  // until its columnar slice is encoded. Small shards only work because the
  // mmap threshold is pinned (above): with glibc's adaptive threshold the
  // per-shard scratch would be retained in every worker's arena instead of
  // returned.
  const std::size_t shard_count = std::min(
      vip_count, netflow::shard_count_for(pool, config.spill.enabled()));
  const auto run_shard = [&](std::size_t lo, std::size_t hi) {
        std::vector<netflow::FlowRecord> records;
        // Shards are near-equal VIP slices, so the previous shard's record
        // count (per worker thread) is a tight reserve hint that skips the
        // doubling-growth copies. Capacity never affects output.
        thread_local std::size_t reserve_hint = 0;
        records.reserve(reserve_hint);
        // Benign first, then attacks in episode-index order — the same
        // relative arrival order per VIP as the unfused global vector
        // (all benign records precede all attack records, and sort-key
        // ties never cross VIPs).
        BenignTrafficModel::Scratch scratch;
        for (std::size_t p = lo; p < hi; ++p) {
          const std::uint32_t v = by_address[p];
          util::Rng vip_rng = benign_root.split(v);
          for (util::Minute m = 0; m < end; ++m) {
            benign.emit_minute(v, m, sampler, vip_rng, scratch, records);
          }
        }
        for (std::size_t p = lo; p < hi; ++p) {
          for (const std::uint32_t i : episodes_at[p]) {
            const AttackEpisode& e = episodes[i];
            util::Rng episode_rng = attack_root.split(i);
            for (util::Minute m = e.start; m < e.end; ++m) {
              attacks.emit_minute(e, m, sampler, episode_rng, records);
            }
          }
        }
        reserve_hint = records.size();
        return netflow::aggregate_shard(std::move(records), cloud_space,
                                        blacklist);
      };
  result.windowed = netflow::merge_shards(pool, vip_count, shard_count,
                                          run_shard, &config.spill);
  // aggregate_shard either keeps or drops (and counts) every record.
  result.generated_records =
      result.windowed.record_count() + result.windowed.unclassified_records();
  return result;
}

FusedTrace generate_windows(const Scenario& scenario) {
  exec::ThreadPool pool(exec::workers_for(scenario.config().thread_count));
  return generate_windows(scenario, &pool);
}

}  // namespace dm::sim
