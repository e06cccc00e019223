// exec::radix_sort must be a stable sort equivalent to std::stable_sort
// over the extracted key, for u64 and packed 128-bit keys alike — the
// canonical record order's correctness rests on both properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "exec/radix_sort.h"
#include "util/rng.h"

namespace dm::exec {
namespace {

struct Item {
  std::uint64_t key = 0;
  std::uint32_t tag = 0;  ///< original position, for stability checks
};

std::vector<Item> random_items(std::size_t n, std::uint64_t key_range,
                               std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Item> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    items[i].key = key_range == 0 ? rng() : rng.below(key_range);
    items[i].tag = static_cast<std::uint32_t>(i);
  }
  return items;
}

void expect_matches_stable_sort(std::vector<Item> items) {
  auto expected = items;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Item& a, const Item& b) { return a.key < b.key; });
  radix_sort(items, [](const Item& it) { return it.key; });
  ASSERT_EQ(items.size(), expected.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(items[i].key, expected[i].key) << "index " << i;
    EXPECT_EQ(items[i].tag, expected[i].tag) << "index " << i;
  }
}

TEST(RadixSort, EmptyAndSingleElement) {
  std::vector<Item> empty;
  radix_sort(empty, [](const Item& it) { return it.key; });
  EXPECT_TRUE(empty.empty());

  std::vector<Item> one{{42, 0}};
  radix_sort(one, [](const Item& it) { return it.key; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].key, 42u);
}

TEST(RadixSort, MatchesStableSortOnRandomU64Keys) {
  // Below and above the small-input comparison-sort cutoff.
  for (std::size_t n : {2u, 16u, 63u, 64u, 65u, 1000u, 4096u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    expect_matches_stable_sort(random_items(n, 0, 7 * n + 1));
  }
}

TEST(RadixSort, StableOnHeavilyDuplicatedKeys) {
  // key_range 8 over 2000 items: ~250 duplicates per key — stability means
  // every duplicate run keeps ascending tags.
  auto items = random_items(2000, 8, 99);
  radix_sort(items, [](const Item& it) { return it.key; });
  for (std::size_t i = 1; i < items.size(); ++i) {
    ASSERT_LE(items[i - 1].key, items[i].key);
    if (items[i - 1].key == items[i].key) {
      EXPECT_LT(items[i - 1].tag, items[i].tag) << "index " << i;
    }
  }
}

TEST(RadixSort, AllEqualKeysPreserveOrder) {
  auto items = random_items(500, 1, 3);
  radix_sort(items, [](const Item& it) { return it.key; });
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(items[i].tag, i);
  }
}

TEST(RadixSort, SortedAndReversedInputs) {
  std::vector<Item> asc(300), desc(300);
  for (std::uint32_t i = 0; i < 300; ++i) {
    asc[i] = {i, i};
    desc[i] = {299u - i, i};
  }
  expect_matches_stable_sort(asc);
  expect_matches_stable_sort(desc);
}

TEST(RadixSort, Key128OrdersHiThenLo) {
  EXPECT_LT((Key128{0, 5}), (Key128{1, 0}));
  EXPECT_LT((Key128{3, 1}), (Key128{3, 2}));
  EXPECT_EQ((Key128{3, 1}), (Key128{3, 1}));

  util::Rng rng(2015);
  std::vector<Key128> keys(800);
  for (auto& k : keys) {
    // Narrow ranges in both words force cross-word ordering decisions and
    // exercise the skipped-pass path (most high bytes are constant).
    k = Key128{rng.below(4), rng.below(1000)};
  }
  auto expected = keys;
  std::stable_sort(expected.begin(), expected.end());
  radix_sort(keys, [](const Key128& k) { return k; });
  EXPECT_EQ(keys, expected);
}

TEST(RadixSort, Key128MatchesStableSortWithPayload) {
  struct Wide {
    Key128 key;
    std::uint32_t tag = 0;
  };
  util::Rng rng(77);
  std::vector<Wide> items(3000);
  for (std::uint32_t i = 0; i < items.size(); ++i) {
    items[i].key = Key128{rng.below(16) << 60 | rng.below(256), rng()};
    items[i].tag = i;
  }
  auto expected = items;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Wide& a, const Wide& b) { return a.key < b.key; });
  radix_sort(items, [](const Wide& w) { return w.key; });
  for (std::size_t i = 0; i < items.size(); ++i) {
    ASSERT_EQ(items[i].key, expected[i].key) << "index " << i;
    ASSERT_EQ(items[i].tag, expected[i].tag) << "index " << i;
  }
}

}  // namespace
}  // namespace dm::exec
