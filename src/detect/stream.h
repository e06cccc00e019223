// Online (streaming) detection front-end.
//
// The paper ran its methodology offline over stored NetFlow, noting that it
// "signaled the attack based on the NetFlow data for these instances within
// a minute" (§3.2) — i.e. the approach is deployable online. StreamMonitor
// is that deployment shape: raw flow records are ingested as they arrive,
// one-minute windows are closed as time advances, per-series detectors run
// incrementally, and completed incidents are delivered through callbacks.
//
// Degraded-feed contract: records may arrive in any order within
// StreamConfig::reorder_lag minutes of the newest minute seen — a window
// commits only once the watermark (newest minute minus the lag) passes it,
// replacing the old "minute M commits everything < M" hard rule. Records
// older than the watermark count as `late`; exact duplicates within open
// windows can be suppressed; malformed records are quarantined; declared
// collector outages (note_outage) are excluded from detector baselines so
// a feed gap is not mistaken for a traffic collapse. checkpoint()/restore()
// serialize the complete monitor state as one DMCK frame (netflow/frame.h),
// so a crashed monitor resumes byte-identically on an in-order feed.
//
// State layout: the per-record path touches flat, index-addressed state.
// Each (vip, direction) series gets a dense id from an open-addressing
// index; its detector bank lives in a vector slot under that id. Each open
// minute holds its windows in a vector with a series id -> window table,
// and a one-entry memo of the last record's window lets most records skip
// both lookups. A closed minute's storage is recycled for the next minute
// to open; the open minutes themselves stay in a small map keyed by
// minute. Windows close in (vip, direction) order — each minute's windows
// are sorted by key at close — so alerts and incidents come out as they
// would from a key-ordered map, and the checkpoint sorts windows and banks
// the same way when it writes them. The ids, index, memo and recycled
// storage are derived: restore() rebuilds them from the frame.
#pragma once

#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "detect/detectors.h"
#include "detect/incident.h"
#include "netflow/window_aggregator.h"

namespace dm::detect {

/// Degraded-feed knobs. Defaults reproduce the paper-strict behavior
/// (no reorder tolerance, no duplicate suppression).
struct StreamConfig {
  /// Minutes of reorder tolerance: a record for minute M commits windows
  /// with minute < M - reorder_lag, so records up to `reorder_lag` minutes
  /// behind the newest are still accepted. 0 = commit immediately;
  /// negative lags are rejected (ConfigError).
  util::Minute reorder_lag = 0;
  /// Drop byte-identical duplicates of records already ingested into a
  /// still-open minute (collectors re-emit on retry storms).
  bool suppress_duplicates = false;
};

class StreamMonitor {
 public:
  using AlertCallback = std::function<void(const MinuteDetection&)>;
  using IncidentCallback = std::function<void(const AttackIncident&)>;

  /// `cloud_space` orients records; `blacklist` (optional, not owned, must
  /// outlive the monitor) enables TDS detection. `on_alert` fires per
  /// flagged minute as soon as its window closes; `on_incident` fires when
  /// an incident's inactive timeout expires (or at finish()). Throws
  /// ConfigError on a negative reorder lag.
  StreamMonitor(netflow::PrefixSet cloud_space,
                const netflow::PrefixSet* blacklist = nullptr,
                DetectionConfig config = {},
                TimeoutTable timeouts = TimeoutTable::paper(),
                AlertCallback on_alert = nullptr,
                IncidentCallback on_incident = nullptr,
                StreamConfig stream = {});

  /// Feeds one record. Malformed records (zero sampled packets) are
  /// quarantined; records at or before the commit watermark count as late;
  /// optional duplicate suppression and orientation filtering follow (see
  /// the split counters below).
  void ingest(const netflow::FlowRecord& record);

  /// Closes every window with minute < `minute` — call periodically with
  /// wall-clock time when the feed is idle, so quiet periods still time
  /// incidents out. Ignores the reorder lag: the caller is asserting that
  /// time has genuinely advanced.
  void advance_to(util::Minute minute);

  /// Declares [from, to) as a collector outage: those minutes are excluded
  /// from detector baselines (no zero-decay, no warm-up credit), so the
  /// EWMA volume detectors do not treat the gap as a rate collapse and
  /// then alarm on the post-outage recovery.
  void note_outage(util::Minute from, util::Minute to);

  /// Flushes all open windows and incidents.
  void finish();

  /// Serializes the complete monitor state (open windows, detector
  /// baselines, pending incidents, counters, outages, dedup sets) as one
  /// DMCK frame. Deterministic: equal states produce equal bytes.
  void checkpoint(std::ostream& out) const;

  /// Restores state captured by checkpoint() into this monitor, replacing
  /// its current state. The monitor must have been constructed with the
  /// same DetectionConfig/TimeoutTable/StreamConfig (those are not
  /// serialized). Throws netflow::FrameError on damaged input — empty
  /// streams, truncated frames, CRC mismatches, and CRC-valid but
  /// undecodable payloads included — and leaves the monitor's state exactly
  /// as it was before the call in every failure case: the frame is read and
  /// CRC-validated in full, decoded into fresh state, and only then swapped
  /// in.
  void restore(std::istream& in);

  // Counters.
  [[nodiscard]] std::uint64_t records_ingested() const noexcept {
    return records_ingested_;
  }
  /// Every record ingest() refused, whatever the reason: the sum of the
  /// late, unclassifiable, duplicate, and quarantined counters.
  // dmlint: ledger-total(stream-drops)
  [[nodiscard]] std::uint64_t records_dropped() const noexcept {
    return records_late_ + records_unclassifiable_ + records_duplicate_ +
           records_quarantined_;
  }
  [[nodiscard]] std::uint64_t records_late() const noexcept {
    return records_late_;  ///< arrived at or before the commit watermark
  }
  [[nodiscard]] std::uint64_t records_unclassifiable() const noexcept {
    return records_unclassifiable_;  ///< matched neither/both cloud prefixes
  }
  [[nodiscard]] std::uint64_t records_duplicate() const noexcept {
    return records_duplicate_;  ///< suppressed as exact duplicates
  }
  [[nodiscard]] std::uint64_t records_quarantined() const noexcept {
    return records_quarantined_;  ///< malformed contents (zero packets)
  }
  [[nodiscard]] std::uint64_t windows_closed() const noexcept {
    return windows_closed_;
  }
  [[nodiscard]] std::uint64_t alerts() const noexcept { return alerts_; }
  [[nodiscard]] std::uint64_t incidents() const noexcept { return incidents_; }

  // State-size gauges — what a supervisor's admission controller consults
  // when enforcing per-tenant memory budgets.
  /// Per-series detector banks retained (grows with distinct VIPs seen).
  [[nodiscard]] std::size_t series_count() const noexcept {
    return state_.banks;
  }
  /// Rough resident footprint of the monitor state in bytes: container
  /// entries times their element sizes plus the per-window remote tables.
  /// A budget gauge (stable across runs), not an allocator measurement.
  [[nodiscard]] std::uint64_t approx_state_bytes() const noexcept;

 private:
  /// A series' (vip, direction) as vip << 8 | direction: integer order is
  /// (vip, direction) order, the order windows close in and the checkpoint
  /// lists series in.
  using SeriesKey = std::uint64_t;

  /// An open one-minute window under accumulation.
  struct OpenWindow {
    // dmlint: checkpointed
    netflow::VipMinuteStats stats;
    netflow::DistinctRemotes remotes;  ///< distinct remotes, per RemoteClass
  };

  /// A per-series detector bank plus the last minute it observed — needed
  /// to intersect declared outages with the series' silent gap.
  struct SeriesState {
    // dmlint: checkpointed
    SeriesDetector detector;
    util::Minute last_minute = -1;
    explicit SeriesState(const DetectionConfig& config) noexcept
        : detector(config) {}
  };

  /// A map from 64-bit keys (all but the all-ones key) to 32-bit values:
  /// open addressing with linear probing, power-of-two capacity, at most
  /// half full. Nothing iterates it, so its order never reaches output.
  class FlatIndex {
   public:
    /// The value stored under `key`, storing `value` first when absent.
    std::uint32_t find_or_insert(std::uint64_t key, std::uint32_t value) {
      if (2 * (size_ + 1) > slots_.size()) grow();
      const std::size_t mask = slots_.size() - 1;
      for (std::size_t i = slot_of(key) & mask;; i = (i + 1) & mask) {
        Slot& slot = slots_[i];
        if (slot.key == kFree) {
          slot = {key, value};
          ++size_;
          return value;
        }
        if (slot.key == key) return slot.value;
      }
    }
    /// Forgets every key, keeping the capacity.
    void clear() noexcept;

   private:
    static constexpr std::uint64_t kFree = ~std::uint64_t{0};
    struct Slot {
      std::uint64_t key = kFree;
      std::uint32_t value = 0;
    };
    [[nodiscard]] static std::size_t slot_of(std::uint64_t key) noexcept {
      return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> 32);
    }
    void grow();

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
  };

  /// A series id's key and, from its first closed window on, its detector
  /// bank, allocated on its own so that the series vector grows by moving
  /// pointers rather than banks.
  struct Series {
    SeriesKey key = 0;
    std::unique_ptr<SeriesState> bank;
  };

  /// One open minute's windows. windows[0, used) are live, in arrival
  /// order; ids[i] is windows[i]'s series id, and `slots` maps a series id
  /// to its window. Past `used`, windows hold storage recycled from closed
  /// minutes: cleared remote tables, stats reset when the window is taken.
  struct MinuteTable {
    std::vector<OpenWindow> windows;
    std::vector<std::uint32_t> ids;
    FlatIndex slots;
    std::size_t used = 0;
  };

  /// The series and their open windows, flat and addressed by dense series
  /// ids. The checkpoint carries the open windows and the banks; the ids
  /// and the index are rebuilt from them.
  struct FlatState {
    std::map<util::Minute, MinuteTable> minutes;  ///< minutes close in order
    std::vector<Series> series;  ///< by series id, in first-seen order
    FlatIndex ids;               ///< SeriesKey -> series id
    std::size_t banks = 0;       ///< series with a bank

    /// The id of series `key`, assigned when new.
    std::uint32_t id_of(SeriesKey key);
    /// The window of series `key` in `minute`, added when new; a new minute
    /// takes over `spare`'s storage.
    OpenWindow& window(util::Minute minute, SeriesKey key,
                       MinuteTable& spare);
    /// The bank of series `id`, created when absent.
    SeriesState& bank(std::uint32_t id, const DetectionConfig& config);
  };

  /// The window the last accepted record went to.
  struct WindowMemo {
    util::Minute minute = 0;
    SeriesKey key = 0;
    OpenWindow* window = nullptr;  ///< null = no memo
  };

  /// (series key, window index or series id) pairs.
  using KeyedIndices = std::vector<std::pair<SeriesKey, std::uint32_t>>;

  /// Fills `out` with the (series key, window index) pairs of `table`'s
  /// live windows, ascending by key.
  void sort_windows(const MinuteTable& table, KeyedIndices& out) const;
  void commit_to(util::Minute minute);
  /// Feeds the earliest open minute's windows to their detectors in key
  /// order and recycles its storage.
  void close_first_minute();
  void feed_window(std::uint32_t id, const OpenWindow& window);
  void emit(const std::vector<AttackIncident>& closed);
  [[nodiscard]] std::size_t outage_overlap(util::Minute from,
                                           util::Minute to) const noexcept;

  netflow::PrefixSet cloud_space_;
  const netflow::PrefixSet* blacklist_;
  DetectionConfig config_;
  TimeoutTable timeouts_;
  AlertCallback on_alert_;
  IncidentCallback on_incident_;
  StreamConfig stream_;

  FlatState state_;
  /// The last closed minute's storage, kept for the next minute to open.
  MinuteTable spare_minute_;
  WindowMemo memo_;
  KeyedIndices close_order_;  ///< close_first_minute()'s scratch
  IncidentBuilder incident_builder_;
  util::Minute watermark_ = -1;  ///< all minutes <= watermark are closed
  util::Minute max_seen_ = -1;   ///< newest minute ingested or advanced to
  /// Declared collector outages [from, to), sorted and non-overlapping.
  std::vector<std::pair<util::Minute, util::Minute>> outages_;
  /// Per-open-minute hashes of ingested records (duplicate suppression).
  std::map<util::Minute, std::unordered_set<std::uint64_t>> seen_;

  std::uint64_t records_ingested_ = 0;
  // dmlint: ledger(stream-drops)
  std::uint64_t records_late_ = 0;
  // dmlint: ledger(stream-drops)
  std::uint64_t records_unclassifiable_ = 0;
  // dmlint: ledger(stream-drops)
  std::uint64_t records_duplicate_ = 0;
  // dmlint: ledger(stream-drops)
  std::uint64_t records_quarantined_ = 0;
  std::uint64_t windows_closed_ = 0;
  std::uint64_t alerts_ = 0;
  std::uint64_t incidents_ = 0;
};

}  // namespace dm::detect
