#ifndef ZSKY_TESTS_MASK_KERNEL_CASES_H_
#define ZSKY_TESTS_MASK_KERNEL_CASES_H_

// Inputs for the SZB mask kernel tests (mask_wave_test, simd_dispatch_test):
// a block of SoA wave rows, a filter block, and the per-row answer of the
// per-pair Dominates oracle. The cases span both sides of the column-wise
// / row-wise crossover, dimensions on both sides of the 4/8-lane vector
// widths and of kMaxVectorDim, row ranges with 4- and 8-row tails, ties,
// rows equal to a filter point, all-max rows and coordinates on both sides
// of 2^31 (where a signed compare would order them wrongly).

#include <cstdint>
#include <utility>
#include <vector>

#include "common/dominance.h"
#include "common/dominance_block.h"
#include "common/dominance_kernels.h"
#include "common/rng.h"

namespace zsky::mask_cases {

inline std::vector<size_t> FilterSizes() {
  return {1,
          2,
          7,
          8,
          9,
          simd::kMaskColumnwiseMaxFilter,
          simd::kMaskColumnwiseMaxFilter + 1,
          3000};
}

inline std::vector<uint32_t> Dims() {
  return {1, 2, 7, 8, 16, simd::kMaxVectorDim + 1};
}

inline constexpr size_t kRows = 75;

// [begin, end) row ranges over kRows rows: the whole block, ranges whose
// ends are multiples of neither 4 nor 8 (so every vector tier runs a
// partial tail group), and a single row.
inline std::vector<std::pair<size_t, size_t>> Ranges() {
  return {{0, kRows}, {3, kRows - 2}, {9, 22}, {5, 6}};
}

struct MaskCase {
  uint32_t dim = 0;
  size_t stride = 0;  // Row lane stride, deliberately != kRows.
  std::vector<Coord> soa;
  DominanceBlock filter;
  std::vector<uint8_t> dominated;  // Oracle, one entry per row.

  explicit MaskCase(uint32_t d) : dim(d), filter(d) {}

  std::vector<Coord> Row(size_t i) const {
    std::vector<Coord> row(dim);
    for (uint32_t k = 0; k < dim; ++k) row[k] = soa[k * stride + i];
    return row;
  }

  // The oracle's mask and count over rows [begin, end).
  std::vector<uint8_t> Expect(size_t begin, size_t end) const {
    return {dominated.begin() + static_cast<ptrdiff_t>(begin),
            dominated.begin() + static_cast<ptrdiff_t>(end)};
  }
  size_t ExpectCount(size_t begin, size_t end) const {
    size_t count = 0;
    for (size_t i = begin; i < end; ++i) count += dominated[i];
    return count;
  }
};

// A small, ordered alphabet: many ties, and values on both sides of 2^31.
inline Coord Letter(Rng& rng) {
  static constexpr Coord kLetters[] = {0,           1,           2,
                                       3,           0x7FFFFFFFu, 0x80000000u,
                                       0x80000001u, 0xFFFFFFFEu};
  return kLetters[rng.NextBounded(8)];
}

inline MaskCase MakeCase(uint32_t dim, size_t filt_size, uint64_t seed) {
  Rng rng(seed);
  MaskCase c(dim);
  const Coord kMax = ~Coord{0};
  std::vector<std::vector<Coord>> filter(filt_size, std::vector<Coord>(dim));
  for (size_t f = 0; f < filt_size; ++f) {
    if (f % 5 == 4) {
      filter[f] = filter[rng.NextBounded(f)];  // A duplicate point.
    } else if (f == 2) {
      filter[f].assign(dim, kMax);  // Dominates nothing.
    } else {
      for (Coord& v : filter[f]) v = Letter(rng);
    }
    c.filter.Append(filter[f]);
  }

  c.stride = kRows + 13;
  c.soa.assign(c.stride * dim, 0);
  std::vector<Coord> row(dim);
  for (size_t i = 0; i < kRows; ++i) {
    const std::vector<Coord>& f = filter[rng.NextBounded(filt_size)];
    const uint32_t bump = static_cast<uint32_t>(rng.NextBounded(dim));
    switch (i % 6) {
      case 0:  // Random letters.
        for (Coord& v : row) v = Letter(rng);
        break;
      case 1:  // Equal to a filter point: that point does not dominate it.
        row = f;
        break;
      case 2:  // One coordinate above a filter point: dominated by it.
        row = f;
        if (row[bump] != kMax) ++row[bump];
        break;
      case 3:  // All-max: dominated by any point that is not all-max.
        row.assign(dim, kMax);
        break;
      case 4:  // One coordinate below a filter point.
        row = f;
        if (row[bump] != 0) --row[bump];
        break;
      default:  // The origin: dominated by nothing.
        row.assign(dim, 0);
        break;
    }
    for (uint32_t k = 0; k < dim; ++k) c.soa[k * c.stride + i] = row[k];
    uint8_t hit = 0;
    for (size_t g = 0; g < filt_size && hit == 0; ++g) {
      hit = static_cast<uint8_t>(Dominates(filter[g], row));
    }
    c.dominated.push_back(hit);
  }
  return c;
}

}  // namespace zsky::mask_cases

#endif  // ZSKY_TESTS_MASK_KERNEL_CASES_H_
