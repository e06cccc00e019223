// The benchmark's own logic, kept apart from the workloads so it can be
// tested on hand-built inputs: percentile reporting, the span tracer and
// its self-time arithmetic, the incident oracle comparison, ledger checks,
// in-memory byte streams, the process memory probe, and the result line.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <streambuf>
#include <string>
#include <vector>

#include "detect/incident.h"
#include "serve/sink.h"

namespace perfbench {

// ---------------------------------------------------------------- clocks

/// Monotonic wall clock in nanoseconds (std::chrono::steady_clock).
[[nodiscard]] std::int64_t now_ns() noexcept;

/// CPU time consumed by the calling thread, in nanoseconds.
[[nodiscard]] std::int64_t thread_cpu_ns() noexcept;

// ----------------------------------------------------------- percentiles

/// Nearest-rank percentile (q in [0, 100]) of `samples`: the value at
/// 1-based rank ceil(q/100 * n) of the sorted samples. 0 for no samples.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// percentile(samples, 50).
[[nodiscard]] double median(std::vector<double> samples);

/// The highest of 50, 90, 99, 99.9 and 99.99 that leaves at least ten of
/// `count` samples beyond it; 0 when not even the median does.
[[nodiscard]] double highest_supported_percentile(std::size_t count) noexcept;

/// Samples ranked strictly beyond the q-th percentile's rank.
[[nodiscard]] std::size_t samples_beyond(std::size_t count, double q) noexcept;

// ------------------------------------------------------------------ spans

/// One traced interval. A plain span covers one call, so `busy_ns` is
/// `end_ns - start_ns`. An aggregate span folds many short calls made
/// between `start_ns` and `end_ns` (say, every record decode of one feed
/// minute); `busy_ns` is the sum of those calls alone. Spans sharing a
/// parent run on one thread, so their busy times never overlap.
struct Span {
  const char* name = "";  ///< "<layer>.<call>"; the layer is the prefix
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span; -1 for a root
  std::int64_t busy_ns = 0;
};

/// Collects spans in memory; written out once at exit. A disabled tracer
/// records nothing and reads no clock.
class Tracer {
 public:
  explicit Tracer(bool enabled) noexcept : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a plain span now; returns its index (-1 when disabled).
  int begin(const char* name, int parent);
  /// Closes a span opened by begin().
  void end(int span);
  /// Records a finished span; returns its index (-1 when disabled).
  int add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, std::int64_t busy_ns);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Writes one JSON object per span (with its self time) to `path`.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, int parent)
      : tracer_(tracer), index_(tracer.begin(name, parent)) {}
  ~Scope() { tracer_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int index() const noexcept { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

/// Self time of every span: its busy time minus the busy time of its
/// direct children. Children must follow their parent in `spans`.
[[nodiscard]] std::vector<std::int64_t> self_times(std::span<const Span> spans);

/// The layer a span belongs to: its name up to the first '.'.
[[nodiscard]] std::string layer_of(const char* name);

struct SpanTotal {
  std::int64_t busy_ns = 0;
  std::size_t count = 0;
};

/// Busy time and number of the spans named `name` in the subtree rooted at
/// `root` (every span when root is -1).
[[nodiscard]] SpanTotal total_of(std::span<const Span> spans, const char* name,
                                 int root = -1);

/// Self time per layer, summed over every span named `under` and all its
/// descendants.
[[nodiscard]] std::map<std::string, std::int64_t> layer_self_times(
    std::span<const Span> spans, const char* under);

// ---------------------------------------------------------------- oracle

/// The AttackIncident fields the oracle compares, as bits of a mask.
enum Field : unsigned {
  kVip = 1u << 0,
  kDirection = 1u << 1,
  kType = 1u << 2,
  kStart = 1u << 3,
  kEnd = 1u << 4,
  kActiveMinutes = 1u << 5,
  kPackets = 1u << 6,
  kPeakPpm = 1u << 7,
  kPeakRemotes = 1u << 8,
  kRampUp = 1u << 9,
};
inline constexpr unsigned kAllFields = (1u << 10) - 1;
/// Stream incidents compute ramp-up differently from batch ones.
inline constexpr unsigned kAllButRampUp = kAllFields & ~kRampUp;
/// What a serve::Event carries of an incident.
inline constexpr unsigned kEventFields =
    kVip | kDirection | kType | kStart | kEnd | kPackets | kPeakRemotes;

/// An incident as the vector of its fields, in Field bit order.
using IncidentRow = std::vector<std::int64_t>;

/// `incident` with the fields outside `fields` zeroed.
[[nodiscard]] IncidentRow project(const dm::detect::AttackIncident& incident,
                                  unsigned fields);
/// An incident event's fields (kEventFields; the rest zero).
[[nodiscard]] IncidentRow project(const dm::serve::Event& event);

/// Compares two incident sets in any order. Returns "" when equal, else a
/// description of the first difference.
[[nodiscard]] std::string compare_incidents(std::vector<IncidentRow> got,
                                            std::vector<IncidentRow> want);

/// An identity `total == sum(parts)` the run's counters must satisfy.
struct Ledger {
  std::string name;
  std::uint64_t total = 0;
  std::vector<std::uint64_t> parts;
};

/// Returns "" when every ledger balances, else the first that does not.
[[nodiscard]] std::string unbalanced(std::span<const Ledger> ledgers);

// ---------------------------------------------------------- byte streams

/// Read-only stream buffer over bytes owned elsewhere.
class ByteSource : public std::streambuf {
 public:
  explicit ByteSource(std::span<const std::uint8_t> bytes);
};

/// Appends everything written to it to a caller-owned byte vector.
class ByteSink : public std::streambuf {
 public:
  explicit ByteSink(std::vector<std::uint8_t>& out) noexcept : out_(out) {}

 protected:
  int_type overflow(int_type c) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  std::vector<std::uint8_t>& out_;
};

// ---------------------------------------------------------------- memory

/// Returns freed heap to the OS, then resets the process's resident
/// high-water mark (VmHWM) to its current resident size.
void reset_peak_rss();

/// The process's resident high-water mark in MiB.
[[nodiscard]] double peak_rss_mib();

// ---------------------------------------------------------------- result

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The final result line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      std::span<const Metric> metrics);

}  // namespace perfbench
