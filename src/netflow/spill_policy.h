// Spill-tier configuration.
//
// SpillConfig is the user-facing knob (ScenarioConfig carries one, dmnf maps
// --spill-dir/--ram-budget onto it): a directory for segment files and a RAM
// budget for the encoded trace. SpillWriter (segment_store.h) turns the
// budget into its seal threshold: the pending resident store is sealed into
// an immutable on-disk segment once its encoded bytes reach
//
//     clamp(ram_budget_bytes / 2, 1 MiB, 64 MiB)
//
// Half the budget bounds the *write side* (the pending encoder plus the shard
// being appended); the other half is headroom for the read side — mapped
// segments during streaming decode plus transient shard buffers. The floor
// keeps segments from wasting seek index and syscalls; the cap bounds one
// segment's mapping. Traces whose encoded form stays under the threshold
// never seal at all (zero spill waves), so small runs behave exactly as
// before; shrinking the budget forces one, then many, waves — the
// differential tests sweep all three regimes.
#pragma once

#include <cstdint>
#include <string>

namespace dm::netflow {

/// Out-of-core knob for the columnar trace. An empty directory disables
/// spilling (fully resident, the default).
struct SpillConfig {
  std::string directory;  ///< segment-file directory; empty = resident
  std::uint64_t ram_budget_bytes = 512ull << 20;  ///< encoded-trace budget

  [[nodiscard]] bool enabled() const noexcept { return !directory.empty(); }
};

}  // namespace dm::netflow
