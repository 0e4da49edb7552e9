#include "reference.h"

#include <algorithm>
#include <numeric>
#include <thread>

#include "common/macros.h"

namespace zskybench {
namespace {

// Number of strict dominators of `p` among `band` rows, stopping at `k`.
uint32_t CountDominators(const zsky::Coord* p, const zsky::Coord* band,
                         size_t band_rows, uint32_t dim, uint32_t k) {
  uint32_t count = 0;
  for (size_t b = 0; b < band_rows; ++b) {
    const zsky::Coord* q = band + b * dim;
    bool le = true;
    bool lt = false;
    for (uint32_t d = 0; d < dim; ++d) {
      if (q[d] > p[d]) {
        le = false;
        break;
      }
      lt |= q[d] < p[d];
    }
    if (le && lt && ++count >= k) return count;
  }
  return count;
}

constexpr size_t kBatchRows = 4096;

}  // namespace

std::vector<uint32_t> ReferenceBand(const zsky::PointSet& points, uint32_t k,
                                    unsigned threads) {
  ZSKY_CHECK(k >= 1);
  threads = std::max(1u, threads);
  const uint32_t dim = points.dim();
  const size_t n = points.size();
  const zsky::Coord* coords = points.raw().data();
  std::vector<uint64_t> sum(n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t d = 0; d < dim; ++d) sum[i] += coords[i * dim + d];
  }
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return sum[a] != sum[b] ? sum[a] < sum[b] : a < b;
  });

  std::vector<zsky::Coord> band;  // Row-major coordinates of band rows.
  std::vector<uint32_t> band_rows;
  std::vector<uint32_t> counts(kBatchRows);
  for (size_t begin = 0; begin < n; begin += kBatchRows) {
    const size_t end = std::min(n, begin + kBatchRows);
    const size_t band_size = band_rows.size();
    auto scan = [&](unsigned t) {
      for (size_t i = begin + t; i < end; i += threads) {
        counts[i - begin] = CountDominators(coords + size_t{order[i]} * dim,
                                            band.data(), band_size, dim, k);
      }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads; ++t) pool.emplace_back(scan, t);
    scan(0);
    for (std::thread& th : pool) th.join();
    // In-batch pass: earlier band members of this batch may add dominators.
    for (size_t i = begin; i < end; ++i) {
      uint32_t c = counts[i - begin];
      if (c >= k) continue;
      const zsky::Coord* p = coords + size_t{order[i]} * dim;
      c += CountDominators(p, band.data() + band_size * dim,
                           band_rows.size() - band_size, dim, k - c);
      if (c < k) {
        band.insert(band.end(), p, p + dim);
        band_rows.push_back(order[i]);
      }
    }
  }
  std::sort(band_rows.begin(), band_rows.end());
  return band_rows;
}

}  // namespace zskybench
