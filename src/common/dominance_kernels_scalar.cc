// Portable tile kernels: compare whole tiles of kDominanceTile points
// dimension-by-dimension into uint8 flag buffers (loops a compiler
// auto-vectorizes at baseline arch flags), with an early exit per tile.

#include <algorithm>
#include <vector>

#include "common/dominance_block.h"
#include "common/dominance_kernels.h"

namespace zsky::simd {

bool AnyDominatesScalar(const Coord* base, size_t stride, uint32_t dim,
                        size_t begin, size_t end, const Coord* p) {
  uint8_t leq[kDominanceTile];
  uint8_t lt[kDominanceTile];
  const Coord p0 = p[0];
  for (size_t at = begin; at < end; at += kDominanceTile) {
    const size_t m = std::min(kDominanceTile, end - at);
    const Coord* lane0 = base + at;
    for (size_t j = 0; j < m; ++j) {
      leq[j] = static_cast<uint8_t>(lane0[j] <= p0);
      lt[j] = static_cast<uint8_t>(lane0[j] < p0);
    }
    for (uint32_t k = 1; k < dim; ++k) {
      const Coord* lane = base + k * stride + at;
      const Coord pk = p[k];
      for (size_t j = 0; j < m; ++j) {
        leq[j] &= static_cast<uint8_t>(lane[j] <= pk);
        lt[j] |= static_cast<uint8_t>(lane[j] < pk);
      }
    }
    uint8_t any = 0;
    for (size_t j = 0; j < m; ++j) {
      any |= static_cast<uint8_t>(leq[j] & lt[j]);
    }
    if (any) return true;
  }
  return false;
}

size_t CountDominatorsScalar(const Coord* base, size_t stride, uint32_t dim,
                             size_t begin, size_t end, const Coord* p) {
  uint8_t leq[kDominanceTile];
  uint8_t lt[kDominanceTile];
  size_t count = 0;
  const Coord p0 = p[0];
  for (size_t at = begin; at < end; at += kDominanceTile) {
    const size_t m = std::min(kDominanceTile, end - at);
    const Coord* lane0 = base + at;
    for (size_t j = 0; j < m; ++j) {
      leq[j] = static_cast<uint8_t>(lane0[j] <= p0);
      lt[j] = static_cast<uint8_t>(lane0[j] < p0);
    }
    for (uint32_t k = 1; k < dim; ++k) {
      const Coord* lane = base + k * stride + at;
      const Coord pk = p[k];
      for (size_t j = 0; j < m; ++j) {
        leq[j] &= static_cast<uint8_t>(lane[j] <= pk);
        lt[j] |= static_cast<uint8_t>(lane[j] < pk);
      }
    }
    for (size_t j = 0; j < m; ++j) {
      count += static_cast<size_t>(leq[j] & lt[j]);
    }
  }
  return count;
}

size_t MarkDominatedByScalar(const Coord* base, size_t stride, uint32_t dim,
                             size_t begin, size_t end, const Coord* p,
                             uint8_t* out) {
  uint8_t geq[kDominanceTile];
  uint8_t gt[kDominanceTile];
  size_t count = 0;
  const Coord p0 = p[0];
  for (size_t at = begin; at < end; at += kDominanceTile) {
    const size_t m = std::min(kDominanceTile, end - at);
    const Coord* lane0 = base + at;
    for (size_t j = 0; j < m; ++j) {
      geq[j] = static_cast<uint8_t>(lane0[j] >= p0);
      gt[j] = static_cast<uint8_t>(lane0[j] > p0);
    }
    for (uint32_t k = 1; k < dim; ++k) {
      const Coord* lane = base + k * stride + at;
      const Coord pk = p[k];
      for (size_t j = 0; j < m; ++j) {
        geq[j] &= static_cast<uint8_t>(lane[j] >= pk);
        gt[j] |= static_cast<uint8_t>(lane[j] > pk);
      }
    }
    uint8_t* slab = out + (at - begin);
    for (size_t j = 0; j < m; ++j) {
      slab[j] = static_cast<uint8_t>(geq[j] & gt[j]);
      count += slab[j];
    }
  }
  return count;
}

size_t MaskAnyDominatedScalar(const Coord* base, size_t stride, uint32_t dim,
                              size_t begin, size_t end, const Coord* filt,
                              size_t filt_stride, size_t filt_size,
                              const MaskFilterPruning* pruning,
                              uint8_t* out) {
  // Per-row orientation: gather each wave row's coords out of the SoA
  // columns and run the AnyDominates scan over the filter block. The scan
  // stops at the first dominator, which retires dominated rows after a
  // handful of comparisons. Rows NO filter point dominates are the
  // expensive case — they must otherwise scan the whole block to prove
  // the miss — so with `pruning` each supertile, then each tile of a
  // qualifying supertile, is first checked for "min <= row in every
  // dimension"; groups failing it cannot hold a dominator and are skipped
  // (see dominance_kernels.h).
  std::vector<Coord> row(dim);
  const size_t num_tiles =
      (filt_size + kMaskTilePoints - 1) / kMaskTilePoints;
  const size_t num_supers =
      (num_tiles + kMaskTilesPerSuper - 1) / kMaskTilesPerSuper;
  size_t count = 0;
  for (size_t i = begin; i < end; ++i) {
    for (uint32_t k = 0; k < dim; ++k) row[k] = base[k * stride + i];
    bool dom = false;
    if (pruning != nullptr) {
      for (size_t s = 0; s < num_supers && !dom; ++s) {
        bool super_may = true;
        for (uint32_t k = 0; k < dim; ++k) {
          if (pruning->super_mins[k * pruning->super_stride + s] > row[k]) {
            super_may = false;
            break;
          }
        }
        if (!super_may) continue;
        const size_t tile_hi =
            std::min(num_tiles, (s + 1) * kMaskTilesPerSuper);
        for (size_t t = s * kMaskTilesPerSuper; t < tile_hi && !dom; ++t) {
          bool may_hold = true;
          for (uint32_t k = 0; k < dim; ++k) {
            if (pruning->tile_mins[k * pruning->tile_stride + t] > row[k]) {
              may_hold = false;
              break;
            }
          }
          if (!may_hold) continue;
          const size_t t0 = t * kMaskTilePoints;
          const size_t t1 = std::min(filt_size, t0 + kMaskTilePoints);
          dom =
              AnyDominatesScalar(filt, filt_stride, dim, t0, t1, row.data());
        }
      }
    } else {
      dom = AnyDominatesScalar(filt, filt_stride, dim, 0, filt_size,
                               row.data());
    }
    out[i - begin] = static_cast<uint8_t>(dom);
    count += static_cast<size_t>(dom);
  }
  return count;
}

size_t MaskAnyDominatedColumnwiseScalar(
    const Coord* base, size_t stride, uint32_t dim, size_t begin,
    size_t end, const Coord* filt, size_t filt_stride, size_t filt_size,
    const MaskFilterPruning* /*pruning*/, uint8_t* out) {
  // Column-wise orientation (see dominance_kernels.h): a tile of wave
  // rows stays put while the filter points stream past, each one a
  // MarkDominatedBy pass over the tile OR-ed into the tile's mask; the
  // tile is done once every row is dominated.
  std::vector<Coord> q(dim);
  uint8_t hit[kDominanceTile];
  size_t count = 0;
  for (size_t at = begin; at < end; at += kDominanceTile) {
    const size_t m = std::min(kDominanceTile, end - at);
    uint8_t* dom = out + (at - begin);
    std::fill_n(dom, m, uint8_t{0});
    size_t hits = 0;
    for (size_t j = 0; j < filt_size && hits < m; ++j) {
      for (uint32_t k = 0; k < dim; ++k) q[k] = filt[k * filt_stride + j];
      MarkDominatedByScalar(base, stride, dim, at, at + m, q.data(), hit);
      hits = 0;
      for (size_t r = 0; r < m; ++r) {
        dom[r] |= hit[r];
        hits += dom[r];
      }
    }
    count += hits;
  }
  return count;
}

}  // namespace zsky::simd
