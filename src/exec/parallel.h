// Deterministic data-parallel skeletons over ThreadPool.
//
// Every helper here follows the same contract: work is split into chunks
// whose boundaries are a pure function of the item count, chunks may execute
// in any order on any thread, and results are merged IN CHUNK INDEX ORDER.
// Combined with order-invariant per-chunk computation (e.g. counter-based
// RNG splits keyed on item index), that makes every pipeline stage's output
// byte-identical for any thread count — the property the serial-equivalence
// test harness locks down.
//
// All helpers accept `pool == nullptr` (or an inline pool) and then run
// serially on the calling thread through the exact same code path.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"

namespace dm::exec {

/// How many chunks [0, n) is split into on `pool`. Oversubscribes ~4x the
/// worker count so work-stealing can balance uneven shards.
[[nodiscard]] inline std::size_t chunk_count_for(const ThreadPool* pool,
                                                 std::size_t n) noexcept {
  if (n == 0) return 0;
  if (pool == nullptr || pool->thread_count() == 0) return 1;
  const std::size_t want = static_cast<std::size_t>(pool->thread_count()) * 4;
  return n < want ? n : want;
}

/// Runs body(begin, end, chunk_index) over a deterministic chunking of
/// [0, n). Blocks until all chunks finished; rethrows the exception of the
/// lowest-indexed failing chunk.
template <typename Body>
void parallel_for_chunks(ThreadPool* pool, std::size_t n, Body&& body) {
  const std::size_t chunks = chunk_count_for(pool, n);
  if (chunks == 0) return;
  if (chunks == 1) {
    body(std::size_t{0}, n, std::size_t{0});
    return;
  }
  TaskGroup group(*pool);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * n / chunks;
    const std::size_t end = (c + 1) * n / chunks;
    group.run([&body, begin, end, c] { body(begin, end, c); });
  }
  group.wait();
}

/// Runs body(i) for every i in [0, n), chunked as above.
template <typename Body>
void parallel_for(ThreadPool* pool, std::size_t n, Body&& body) {
  parallel_for_chunks(pool, n,
                      [&body](std::size_t begin, std::size_t end, std::size_t) {
                        for (std::size_t i = begin; i < end; ++i) body(i);
                      });
}

/// Maps each chunk [begin, end) to one T; returns the chunk results in chunk
/// index order. T must be default-constructible (the usual case: a vector
/// the chunk fills).
template <typename T, typename Map>
[[nodiscard]] std::vector<T> parallel_map_chunks(ThreadPool* pool, std::size_t n,
                                                 Map&& map) {
  const std::size_t chunks = chunk_count_for(pool, n);
  std::vector<T> results(chunks);
  parallel_for_chunks(pool, n,
                      [&](std::size_t begin, std::size_t end, std::size_t c) {
                        results[c] = map(begin, end);
                      });
  return results;
}

/// Maps `chunks` chunks of [0, n) (clamped to [1, n]) to one T each, in
/// waves of `window`: after each wave's barrier its results are handed to
/// consume(chunk_index, T&&) in chunk-index order before the next wave
/// starts. Unlike the adaptive skeletons, the chunk count never collapses on
/// a serial pool — without workers the chunks run in order on the calling
/// thread — because callers use it to bound something besides parallelism
/// (a shard's transient memory). At most `window` chunk results are ever
/// alive at once — the memory bound the spill tier's shard merge needs —
/// while chunk boundaries and consume order do not depend on the window, so
/// the consumed sequence is byte-equal for any window and any thread count.
/// (A wave barrier, not a producer-blocking queue: the pool pops its own
/// queue LIFO, so low-index chunks finish last and a bounded queue would
/// either stall every worker or buffer every result.)
template <typename T, typename Map, typename Consume>
void parallel_map_waves_n(ThreadPool* pool, std::size_t n, std::size_t chunks,
                          std::size_t window, Map&& map, Consume&& consume) {
  if (n == 0) return;
  chunks = std::max<std::size_t>(1, std::min(chunks, n));
  window = std::max<std::size_t>(1, window);
  const bool serial = pool == nullptr || pool->thread_count() == 0;
  for (std::size_t wave = 0; wave < chunks; wave += window) {
    const std::size_t wave_end = std::min(chunks, wave + window);
    std::vector<T> results(wave_end - wave);
    if (serial) {
      for (std::size_t c = wave; c < wave_end; ++c) {
        results[c - wave] = map(c * n / chunks, (c + 1) * n / chunks);
      }
    } else {
      TaskGroup group(*pool);
      for (std::size_t c = wave; c < wave_end; ++c) {
        group.run([&map, &results, wave, c, n, chunks] {
          results[c - wave] = map(c * n / chunks, (c + 1) * n / chunks);
        });
      }
      group.wait();
    }
    for (std::size_t c = wave; c < wave_end; ++c) {
      consume(c, std::move(results[c - wave]));
    }
  }
}

/// Maps every index to one T; returns results in index order.
template <typename T, typename Map>
[[nodiscard]] std::vector<T> parallel_map(ThreadPool* pool, std::size_t n,
                                          Map&& map) {
  std::vector<T> results(n);
  parallel_for(pool, n, [&](std::size_t i) { results[i] = map(i); });
  return results;
}

/// Resizes `v` to `n` value-initialized elements, faulting in the pages of
/// the new elements on `pool` first. A large fresh allocation is a new
/// mapping whose every page traps to the kernel on its first write; taking
/// those traps on every worker leaves the serial value-initialization only
/// warm stores. The touch constructs one element per page in the reserved
/// storage, which the resize then constructs over, so it stays defined for
/// any trivially destructible T. On a serial pool it is a plain resize.
template <typename T>
void resize_first_touch(ThreadPool* pool, std::vector<T>& v, std::size_t n) {
  static_assert(std::is_trivially_destructible_v<T>,
                "the resize constructs over the touched elements");
  if (pool != nullptr && pool->thread_count() > 0 && n > v.size()) {
    v.reserve(n);
    constexpr std::size_t kStride = std::max<std::size_t>(1, 4096 / sizeof(T));
    T* const first = v.data() + v.size();
    parallel_for(pool, (n - v.size() + kStride - 1) / kStride,
                 [first](std::size_t page) {
                   std::construct_at(first + page * kStride);
                 });
  }
  v.resize(n);
}

/// Concatenates per-chunk vectors (in chunk order) into one vector — the
/// ordered merge used by every record-emitting stage.
template <typename T>
[[nodiscard]] std::vector<T> concat(std::vector<std::vector<T>> parts) {
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  std::vector<T> out;
  out.reserve(total);
  for (auto& p : parts) {
    out.insert(out.end(), std::make_move_iterator(p.begin()),
               std::make_move_iterator(p.end()));
  }
  return out;
}

}  // namespace dm::exec
