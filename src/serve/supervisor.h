// dm::serve::Supervisor — the supervised multi-tenant monitor service.
//
// One Supervisor owns a fleet of per-tenant, VIP-sharded StreamMonitors and
// wraps them in the three service-hardening layers the offline pipeline
// never needed:
//
//  * Admission control / graceful degradation. Each tenant carries a
//    record-rate budget (offered records per feed minute) and a memory
//    budget (approx_state_bytes per shard). While a budget is exceeded the
//    tenant's shards shed load by deterministic 1:k systematic sampling —
//    admit exactly when `offered_before % k == phase(tenant, shard, minute)`
//    with the phase drawn from counter-based Rng splits — so WHAT is shed is
//    a pure function of the feed, reproducible across runs, threads, and
//    crash/resume. Every shed record lands in an exact per-tenant ledger,
//    and minutes a shard shed in are declared collector outages to its
//    monitor (note_outage) so downsampled minutes never poison detector
//    baselines.
//
//  * Crash-safe checkpoint rotation. On feed-minute boundaries (every
//    rotation_interval minutes) the fleet's complete state — every monitor's
//    DMCK checkpoint plus the supervisor book (admission counters, ledgers,
//    event sequence numbers, and the exact feed resume index) — rotates
//    through CheckpointRotator's temp + fsync + atomic-rename protocol.
//    recover() salvages the newest intact generation (falling back one
//    generation per damaged set, with an exact damage ledger) and returns
//    the feed index to replay from; a resumed run is byte-identical to an
//    uninterrupted one.
//
//  * Event delivery. Monitor alerts/incidents become serve::Events carrying
//    checkpointed per-tenant sequence numbers and flow out through a
//    BufferedWriter (retry/backoff/spill) — at-least-once after a crash,
//    exactly ordered within a run.
//
//  * Pipelined shard ingest. Admission runs on the caller, in arrival
//    order. Admitted records go to their shard's run; when a record opens a
//    new feed minute, the runs filled during the previous minute start on
//    the pool, one task per shard, while the caller admits the new minute.
//    Each task writes its monitor's events to the shard's outbox, tagged
//    with the feed index of the record that emitted them; the caller
//    merges the outboxes by feed index, which is exactly the order a
//    one-thread ingest emits. Events, checkpoints and books are therefore
//    byte-identical for every pool size, and with no pool the runs drain
//    inline at the same minute boundaries.
//
// Time is virtual throughout: every decision is driven by feed minutes,
// never the wall clock, which is what makes the whole service replayable.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "detect/stream.h"
#include "exec/thread_pool.h"
#include "netflow/flow_record.h"
#include "serve/checkpoint.h"
#include "serve/writer.h"
#include "util/rng.h"

namespace dm::serve {

/// Static description of one tenant.
struct TenantSpec {
  std::string name;
  std::uint32_t shards = 1;                ///< VIP-sharded monitors (>= 1)
  std::uint64_t max_records_per_minute = 0;  ///< rate budget; 0 = unlimited
  std::uint64_t max_state_bytes = 0;       ///< per-shard memory budget; 0 = off
  std::uint64_t shed_factor = 8;           ///< k of the 1:k shed sampler (>= 2)
};

struct ServeConfig {
  detect::DetectionConfig detection;
  detect::TimeoutTable timeouts = detect::TimeoutTable::paper();
  detect::StreamConfig stream;
  std::uint64_t seed = 1;              ///< shed-phase stream seed
  util::Minute rotation_interval = 60; ///< feed minutes between rotations
  std::size_t keep_generations = 2;    ///< checkpoint GC depth
  std::string state_dir;               ///< empty: checkpointing disabled
  std::size_t ledger_capacity = 256;   ///< recent shed-ledger entries kept
  /// Gauge refresh cadence: approx_state_bytes is re-sampled every this
  /// many admitted records per shard (checkpointed, so resume agrees).
  std::uint64_t gauge_refresh = 1024;
};

/// Per-shard admission accounting (one per monitor).
struct ShardBook {
  // dmlint: checkpointed
  // dmlint: ledger(admission)
  std::uint64_t offered = 0;   ///< records routed to this shard
  // dmlint: ledger(admission)
  std::uint64_t admitted = 0;  ///< records its monitor ingested
  // dmlint: ledger(admission)
  std::uint64_t shed = 0;      ///< records dropped by the shed sampler
  std::uint64_t state_gauge = 0;  ///< cached approx_state_bytes sample
};

/// Accounting for one still-open feed minute of one tenant.
struct BucketBook {
  // dmlint: checkpointed
  // dmlint: ledger(admission)
  std::uint64_t offered = 0;
  // dmlint: ledger(admission)
  std::uint64_t admitted = 0;
  // dmlint: ledger(admission)
  std::uint64_t shed = 0;
  std::vector<std::uint64_t> shard_shed;  ///< per-shard shed in this minute
};

/// One closed minute in the shed ledger (only minutes that shed are kept).
struct ShedLedgerEntry {
  // dmlint: checkpointed
  util::Minute minute = 0;
  // dmlint: ledger(admission)
  std::uint64_t offered = 0;
  // dmlint: ledger(admission)
  std::uint64_t admitted = 0;
  // dmlint: ledger(admission)
  std::uint64_t shed = 0;
};

/// Sentinel for "no feed minute seen yet".
inline constexpr util::Minute kNoMinute = INT64_MIN;

/// Complete per-tenant accounting state.
struct TenantBook {
  // dmlint: checkpointed
  // dmlint: ledger(admission)
  std::uint64_t offered = 0;
  // dmlint: ledger(admission)
  std::uint64_t admitted = 0;
  // dmlint: ledger(admission)
  std::uint64_t shed = 0;
  std::uint64_t event_seq = 0;  ///< next Event sequence number
  /// Ledger-ring evictions fold into these exact totals.
  // dmlint: ledger(folded)
  std::uint64_t folded_offered = 0;
  // dmlint: ledger(folded)
  std::uint64_t folded_admitted = 0;
  // dmlint: ledger(folded)
  std::uint64_t folded_shed = 0;
  util::Minute high_water = kNoMinute;  ///< newest feed minute seen
  std::map<util::Minute, BucketBook> open_buckets;
  std::vector<ShedLedgerEntry> ledger;  ///< closed shed minutes, oldest first
  std::vector<ShardBook> shards;
};

/// What recover() found on disk. Resume position and damage ledger both
/// demand action from the caller — dropping one replays from record zero.
struct RecoveryReport {
  // dmlint: must-use
  std::int64_t generation = -1;   ///< adopted generation; -1 = fresh start
  std::uint64_t resume_index = 0; ///< replay the feed from this record index
  std::vector<DamageEntry> ledger;
};

class Supervisor {
 public:
  /// `blacklist` and `pool` (both optional) must outlive the supervisor;
  /// `writer` (optional) receives alert/incident events. The pool runs the
  /// shards' monitors and serializes rotations; results never depend on
  /// its size. Throws ConfigError on a negative reorder lag.
  Supervisor(netflow::PrefixSet cloud_space,
             const netflow::PrefixSet* blacklist,
             std::vector<TenantSpec> tenants, ServeConfig config,
             BufferedWriter* writer = nullptr,
             exec::ThreadPool* pool = nullptr);
  /// Waits for the shard runs in flight. Their undelivered events, and any
  /// exception they threw, are dropped: call finish() to deliver.
  ~Supervisor();
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Deterministic VIP -> shard assignment (splitmix64 finalizer mod n).
  [[nodiscard]] static std::uint32_t shard_of(std::uint32_t vip,
                                              std::uint32_t shards) noexcept;

  /// Feeds one record to `tenant`'s fleet through admission control.
  /// Rotates the checkpoint first when the record's minute crosses a
  /// rotation boundary (so the rotation point is an exact feed index).
  void ingest(std::size_t tenant, const netflow::FlowRecord& record);

  /// ingest() into the tenant that a mix of the record's cloud-side
  /// address picks (unclassifiable records fall back to the destination).
  void ingest_routed(const netflow::FlowRecord& record);

  /// Declares a collector outage to every shard of `tenant`.
  void note_outage(std::size_t tenant, util::Minute from, util::Minute to);

  /// Closes feed minutes < `minute` everywhere (buckets + monitors) and
  /// delivers every event so far.
  void advance_to(util::Minute minute);

  /// Flushes every bucket, monitor, and (when present) the writer.
  void finish();

  /// Serializes the fleet and commits one checkpoint generation now.
  /// Returns the generation, or -1 when checkpointing is disabled.
  std::int64_t rotate_now(fault::KillSwitch* kill = nullptr);

  /// Arms every ingest-triggered rotation with `kill` (nullable to disarm;
  /// not owned) — how the crash matrix kills the protocol mid-feed.
  void set_rotation_killswitch(fault::KillSwitch* kill) noexcept {
    auto_kill_ = kill;
  }

  /// Recovers from the newest intact generation under state_dir (see class
  /// comment). Must be called before any ingest. The caller replays the
  /// feed from report.resume_index.
  [[nodiscard]] RecoveryReport recover();

  /// The fleet's complete serialized state as generation files (what
  /// rotate_now would commit) — the byte-identity oracle for tests. Drains
  /// the shard runs and delivers their events first.
  [[nodiscard]] std::vector<ShardFile> snapshot_files();

  /// Human-readable status: per-tenant admission/shed/alert counters plus
  /// writer and rotation state. Drains the shard runs first.
  [[nodiscard]] std::string status_report();

  // Introspection.
  [[nodiscard]] std::size_t tenant_count() const noexcept {
    return specs_.size();
  }
  [[nodiscard]] const TenantSpec& spec(std::size_t t) const {
    return specs_[t];
  }
  /// Admission counters are current; event_seq and the shard state
  /// gauges lag until the shard runs behind them are delivered (finish()
  /// and every other barrier deliver all of them).
  [[nodiscard]] const TenantBook& book(std::size_t t) const {
    return books_[t];
  }
  /// Joins the shard runs in flight, so the monitor holds every record of
  /// the minutes before the newest one; records of the newest minute may
  /// still be pending (finish() or advance_to() settles them).
  [[nodiscard]] const detect::StreamMonitor& monitor(std::size_t t,
                                                     std::uint32_t s) const {
    join();
    return *lanes_[first_lane_[t] + s].monitor;
  }
  [[nodiscard]] std::uint64_t records_routed() const noexcept {
    return records_routed_;
  }
  [[nodiscard]] std::int64_t last_generation() const noexcept {
    return last_generation_;
  }

 private:
  /// One deferred call on a shard's monitor, in feed order.
  struct ShardOp {
    enum class Kind : std::uint8_t { kIngest, kOutage, kAdvance, kFinish };
    /// kIngest: the record. The other kinds use only record.minute: the
    /// outage [minute, to) or the advance_to minute.
    netflow::FlowRecord record;
    std::uint64_t index = 0;  ///< feed index; tags the events the op emits
    util::Minute to = 0;
    Kind kind = Kind::kIngest;
    bool refresh_gauge = false;  ///< kIngest: re-sample the state gauge after
  };

  /// An event a shard's monitor emitted, before it gets its tenant name
  /// and sequence number.
  struct Emitted {
    std::uint64_t index = 0;  ///< the emitting op's feed index
    Event event;
  };

  /// One VIP shard. The caller appends to `filling` while a pool task owns
  /// the cache lines from `monitor` on: it runs `running` through the
  /// monitor and leaves the events in `outbox` and the newest state gauge
  /// sample in `gauge`. The alignment keeps the task's per-op stores off
  /// the caller's line and off the other shards' lines.
  struct alignas(64) Lane {
    std::vector<ShardOp> filling;
    std::size_t tenant = 0;
    std::uint32_t shard = 0;

    alignas(64) std::unique_ptr<detect::StreamMonitor> monitor;
    std::vector<ShardOp> running;
    std::vector<Emitted> outbox;
    std::optional<std::uint64_t> gauge;
    std::uint64_t index = 0;  ///< the op in progress
  };

  [[nodiscard]] std::unique_ptr<detect::StreamMonitor> make_monitor(
      Lane& lane) const;
  /// A record's cloud-side address, which picks its tenant and its shard:
  /// the destination if the cloud owns it, else the source if the cloud
  /// owns that, else (unclassifiable) the destination.
  [[nodiscard]] std::uint32_t vip_of(
      const netflow::FlowRecord& record) const noexcept;
  /// Admission control for one record whose cloud-side address is `vip`.
  void admit(std::size_t tenant, const netflow::FlowRecord& record,
             std::uint32_t vip);
  /// Closes every open bucket of `tenant` with minute < `before`: declares
  /// shed minutes as outages to the affected shards and folds the bucket
  /// into the shed ledger.
  void close_buckets(std::size_t tenant, util::Minute before);
  /// Appends `op` to every shard of `tenant`.
  void to_all_shards(std::size_t tenant, const ShardOp& op);
  /// Runs `lane.running` through its monitor (on a pool thread or inline).
  static void drain(Lane& lane);
  /// Starts every non-empty filled run: one pool task per shard, queued on
  /// worker `lane index mod workers` so a shard tends to stay on one core;
  /// inline without a pool.
  void launch();
  /// Waits for the runs launched last.
  void join() const;
  /// Merges the outboxes by feed index (ties in shard order, as a serial
  /// ingest emits them), numbers and pushes the events, and moves the
  /// fresh gauge samples into the books.
  void deliver();
  /// Leaves nothing pending: every admitted record is in its monitor and
  /// every event delivered.
  void barrier();
  [[nodiscard]] std::vector<std::uint8_t> encode_books() const;
  void decode_books(const std::vector<std::uint8_t>& bytes,
                    std::vector<TenantBook>& tenants_out,
                    std::uint64_t& routed_out,
                    std::int64_t& rotation_mark_out) const;

  netflow::PrefixSet cloud_space_;
  const netflow::PrefixSet* blacklist_;
  std::vector<TenantSpec> specs_;
  ServeConfig config_;
  BufferedWriter* writer_;
  exec::ThreadPool* pool_;
  util::Rng shed_base_;

  std::vector<TenantBook> books_;
  std::vector<Lane> lanes_;               ///< every shard, tenant-major
  std::vector<std::size_t> first_lane_;   ///< per tenant: its shard 0's lane
  std::unique_ptr<exec::TaskGroup> runs_;  ///< null without a pool
  util::Minute newest_ = kNoMinute;       ///< newest feed minute routed
  std::uint64_t records_routed_ = 0;
  std::int64_t rotation_mark_ = INT64_MIN;  ///< last rotation bucket index
  std::int64_t last_generation_ = -1;
  fault::KillSwitch* auto_kill_ = nullptr;
  std::unique_ptr<CheckpointRotator> rotator_;  ///< null when disabled
};

}  // namespace dm::serve
