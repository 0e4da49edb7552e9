#include "sample/reservoir.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "common/macros.h"

namespace zsky {

namespace {

// Open-addressing set of row ids for Floyd's sampler: a power-of-two
// table at least twice the sample size, linear probing, kEmpty marks a
// free slot (row ids are < n <= kEmpty).
class RowSet {
 public:
  explicit RowSet(size_t k)
      : slots_(std::bit_ceil(std::max<size_t>(2 * k, 16)), kEmpty),
        shift_(64 - std::countr_zero(slots_.size())) {}

  // Inserts `row`; false when it was already present.
  bool Insert(uint32_t row) {
    const size_t mask = slots_.size() - 1;
    // Fibonacci hashing: the top bits of row * 2^64 / phi.
    size_t at = static_cast<size_t>((row * 0x9E3779B97F4A7C15ULL) >> shift_);
    while (slots_[at] != kEmpty) {
      if (slots_[at] == row) return false;
      at = (at + 1) & mask;
    }
    slots_[at] = row;
    return true;
  }

 private:
  static constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> slots_;
  int shift_;
};

}  // namespace

std::vector<uint32_t> ReservoirSampleIndices(size_t n, size_t k, Rng& rng) {
  if (k >= n) {
    std::vector<uint32_t> all(n);
    std::iota(all.begin(), all.end(), 0u);
    return all;
  }
  // Row ids are uint32_t throughout the pipeline.
  ZSKY_DCHECK(n <= std::numeric_limits<uint32_t>::max());
  // Floyd's algorithm: for j = n-k .. n-1, draw t uniform in [0, j] and
  // take t, or j itself when t is already taken (j never is: every earlier
  // pick is below it). Every k-subset comes out equally likely, after k
  // draws.
  RowSet taken(k);
  std::vector<uint32_t> rows;
  rows.reserve(k);
  for (size_t j = n - k; j < n; ++j) {
    uint32_t pick = static_cast<uint32_t>(rng.NextBounded(j + 1));
    if (!taken.Insert(pick)) {
      pick = static_cast<uint32_t>(j);
      taken.Insert(pick);
    }
    rows.push_back(pick);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

PointSet ReservoirSample(const DatasetView& points, size_t k, Rng& rng) {
  // Ascending row order: a disk-backed columnar view is gathered with a
  // forward-moving access pattern (at most one fault per touched page).
  return points.Gather(ReservoirSampleIndices(points.size(), k, rng));
}

}  // namespace zsky
