// AVX2 dominance kernels: 8 points per __m256i, unsigned compares via the
// sign-flip trick (x < y unsigned  <=>  (x ^ MIN) < (y ^ MIN) signed).
// Only this TU is compiled with -mavx2; without compiler support it
// degrades to forwarding stubs (and runtime dispatch is hardware-gated
// regardless).

#include "common/dominance_kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <bit>

namespace zsky::simd {

namespace {

// Sign-flips the probe into `pf` so signed compares order unsigned
// coordinates. Returns false when the probe is too wide for the buffer.
inline bool FlipProbe(const Coord* p, uint32_t dim, int32_t* pf) {
  if (dim > kMaxVectorDim) return false;
  for (uint32_t k = 0; k < dim; ++k) {
    pf[k] = static_cast<int32_t>(p[k] ^ 0x80000000u);
  }
  return true;
}

}  // namespace

bool AnyDominatesAvx2(const Coord* base, size_t stride, uint32_t dim,
                      size_t begin, size_t end, const Coord* p) {
  int32_t pf[kMaxVectorDim];
  if (!FlipProbe(p, dim, pf)) {
    return AnyDominatesScalar(base, stride, dim, begin, end, p);
  }
  const __m256i sign = _mm256_set1_epi32(INT32_MIN);
  size_t at = begin;
  for (; at + 8 <= end; at += 8) {
    __m256i leq = _mm256_set1_epi32(-1);
    __m256i lt = _mm256_setzero_si256();
    for (uint32_t k = 0; k < dim; ++k) {
      const __m256i v = _mm256_xor_si256(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(base + k * stride + at)),
          sign);
      const __m256i pk = _mm256_set1_epi32(pf[k]);
      leq = _mm256_andnot_si256(_mm256_cmpgt_epi32(v, pk), leq);
      lt = _mm256_or_si256(lt, _mm256_cmpgt_epi32(pk, v));
      // No lane still <= the probe on every dimension seen: the whole
      // group is out, skip its remaining dimensions.
      if (_mm256_testz_si256(leq, leq)) break;
    }
    if (!_mm256_testz_si256(leq, lt)) return true;
  }
  return at < end && AnyDominatesScalar(base, stride, dim, at, end, p);
}

size_t CountDominatorsAvx2(const Coord* base, size_t stride, uint32_t dim,
                           size_t begin, size_t end, const Coord* p) {
  int32_t pf[kMaxVectorDim];
  if (!FlipProbe(p, dim, pf)) {
    return CountDominatorsScalar(base, stride, dim, begin, end, p);
  }
  const __m256i sign = _mm256_set1_epi32(INT32_MIN);
  size_t count = 0;
  size_t at = begin;
  for (; at + 8 <= end; at += 8) {
    __m256i leq = _mm256_set1_epi32(-1);
    __m256i lt = _mm256_setzero_si256();
    for (uint32_t k = 0; k < dim; ++k) {
      const __m256i v = _mm256_xor_si256(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(base + k * stride + at)),
          sign);
      const __m256i pk = _mm256_set1_epi32(pf[k]);
      leq = _mm256_andnot_si256(_mm256_cmpgt_epi32(v, pk), leq);
      lt = _mm256_or_si256(lt, _mm256_cmpgt_epi32(pk, v));
      if (_mm256_testz_si256(leq, leq)) break;
    }
    const __m256i dom = _mm256_and_si256(leq, lt);
    count += static_cast<size_t>(std::popcount(static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(dom)))));
  }
  if (at < end) {
    count += CountDominatorsScalar(base, stride, dim, at, end, p);
  }
  return count;
}

size_t MarkDominatedByAvx2(const Coord* base, size_t stride, uint32_t dim,
                           size_t begin, size_t end, const Coord* p,
                           uint8_t* out) {
  int32_t pf[kMaxVectorDim];
  if (!FlipProbe(p, dim, pf)) {
    return MarkDominatedByScalar(base, stride, dim, begin, end, p, out);
  }
  const __m256i sign = _mm256_set1_epi32(INT32_MIN);
  size_t count = 0;
  size_t at = begin;
  for (; at + 8 <= end; at += 8) {
    // Reversed orientation: flag stored points the probe dominates.
    __m256i geq = _mm256_set1_epi32(-1);
    __m256i gt = _mm256_setzero_si256();
    for (uint32_t k = 0; k < dim; ++k) {
      const __m256i v = _mm256_xor_si256(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(base + k * stride + at)),
          sign);
      const __m256i pk = _mm256_set1_epi32(pf[k]);
      geq = _mm256_andnot_si256(_mm256_cmpgt_epi32(pk, v), geq);
      gt = _mm256_or_si256(gt, _mm256_cmpgt_epi32(v, pk));
      if (_mm256_testz_si256(geq, geq)) break;
    }
    const uint32_t mask = static_cast<uint32_t>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_and_si256(geq, gt))));
    uint8_t* slab = out + (at - begin);
    for (uint32_t b = 0; b < 8; ++b) {
      slab[b] = static_cast<uint8_t>((mask >> b) & 1u);
    }
    count += static_cast<size_t>(std::popcount(mask));
  }
  if (at < end) {
    count += MarkDominatedByScalar(base, stride, dim, at, end, p,
                                   out + (at - begin));
  }
  return count;
}

size_t MaskAnyDominatedAvx2(const Coord* base, size_t stride, uint32_t dim,
                            size_t begin, size_t end, const Coord* filt,
                            size_t filt_stride, size_t filt_size,
                            const MaskFilterPruning* pruning, uint8_t* out) {
  if (dim > kMaxVectorDim) {
    return MaskAnyDominatedScalar(base, stride, dim, begin, end, filt,
                                  filt_stride, filt_size, pruning, out);
  }
  // Per-row orientation: gather the row straight out of the SoA columns
  // (no transpose buffer), then scan the filter with the AnyDominates
  // structure, which compares the row against 8 filter points per op and
  // exits at the first dominator — dominated rows retire within a vector
  // or two. Undominated rows are the expensive case (a full-block proof);
  // with `pruning` the supertile min-check runs first, 8 supertiles per
  // vector op, then the 8 tiles of each qualifying supertile get one more
  // vector min-check, and only tiles whose min is <= the row in every
  // dimension get their points scanned.
  // The column-wise orientation (MaskAnyDominatedColumnwiseAvx2: pin an
  // 8-row wave group in registers and stream filter points past it as
  // broadcasts) does ~dim× more vector work per (row, filter) pair and
  // can only exit once ALL eight rows are dominated. On large filters,
  // where pruning skips most tiles, that measured ~3× slower end to end;
  // on small ones in few dimensions it skips this path's per-row setup
  // and wins, hence the kMaskColumnwiseMaxFilter and kMaskColumnwiseMaxDim
  // dispatch in SoAMaskAnyDominated.
  static_assert(kMaskTilesPerSuper == 8,
                "supertile tile group must fill one __m256i");
  Coord row[kMaxVectorDim];
  int32_t pf[kMaxVectorDim];
  const __m256i sign = _mm256_set1_epi32(INT32_MIN);
  const size_t num_tiles =
      (filt_size + kMaskTilePoints - 1) / kMaskTilePoints;
  const size_t num_supers =
      (num_tiles + kMaskTilesPerSuper - 1) / kMaskTilesPerSuper;
  size_t count = 0;
  for (size_t i = begin; i < end; ++i) {
    for (uint32_t k = 0; k < dim; ++k) {
      row[k] = base[k * stride + i];
      pf[k] = static_cast<int32_t>(row[k] ^ 0x80000000u);
    }
    bool dom = false;
    if (pruning != nullptr) {
      for (size_t sg = 0; sg < num_supers && !dom; sg += 8) {
        // 8 supertiles at once: a lane stays set while its supertile min
        // is <= the row on every dimension seen so far. The group load is
        // always in-bounds (super_stride is padded to a multiple of 8).
        __m256i smay = _mm256_set1_epi32(-1);
        for (uint32_t k = 0; k < dim; ++k) {
          const __m256i mins = _mm256_xor_si256(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                  pruning->super_mins + k * pruning->super_stride + sg)),
              sign);
          const __m256i pk = _mm256_set1_epi32(pf[k]);
          smay = _mm256_andnot_si256(_mm256_cmpgt_epi32(mins, pk), smay);
          if (_mm256_testz_si256(smay, smay)) break;
        }
        uint32_t sm = static_cast<uint32_t>(
            _mm256_movemask_ps(_mm256_castsi256_ps(smay)));
        // An all-max row qualifies the ~0u padding lanes too; drop them —
        // their tile groups sit past the end of tile_mins.
        if (num_supers - sg < 8) sm &= (1u << (num_supers - sg)) - 1u;
        while (sm != 0 && !dom) {
          const size_t s = sg + static_cast<size_t>(std::countr_zero(sm));
          sm &= sm - 1;
          // The supertile's 8 tiles in one vector min-check; in-bounds by
          // the tile_stride == num_supers * kMaskTilesPerSuper invariant.
          const size_t tbase = s * kMaskTilesPerSuper;
          __m256i may = _mm256_set1_epi32(-1);
          for (uint32_t k = 0; k < dim; ++k) {
            const __m256i mins = _mm256_xor_si256(
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                    pruning->tile_mins + k * pruning->tile_stride + tbase)),
                sign);
            const __m256i pk = _mm256_set1_epi32(pf[k]);
            may = _mm256_andnot_si256(_mm256_cmpgt_epi32(mins, pk), may);
            if (_mm256_testz_si256(may, may)) break;
          }
          uint32_t qm = static_cast<uint32_t>(
              _mm256_movemask_ps(_mm256_castsi256_ps(may)));
          while (qm != 0 && !dom) {
            const size_t t = tbase + static_cast<size_t>(std::countr_zero(qm));
            qm &= qm - 1;
            const size_t t0 = t * kMaskTilePoints;
            const size_t t1 = std::min(filt_size, t0 + kMaskTilePoints);
            // A qualifying padding tile (possible for the same all-max
            // rows) has an empty range; skip it.
            if (t0 < t1) {
              dom = AnyDominatesAvx2(filt, filt_stride, dim, t0, t1, row);
            }
          }
        }
      }
    } else {
      dom = AnyDominatesAvx2(filt, filt_stride, dim, 0, filt_size, row);
    }
    out[i - begin] = static_cast<uint8_t>(dom);
    count += static_cast<size_t>(dom);
  }
  return count;
}

size_t MaskAnyDominatedColumnwiseAvx2(
    const Coord* base, size_t stride, uint32_t dim, size_t begin,
    size_t end, const Coord* filt, size_t filt_stride, size_t filt_size,
    const MaskFilterPruning* pruning, uint8_t* out) {
  if (dim > kMaxVectorDim) {
    return MaskAnyDominatedColumnwiseScalar(base, stride, dim, begin, end,
                                            filt, filt_stride, filt_size,
                                            pruning, out);
  }
  // Column-wise orientation (see dominance_kernels.h): 8 wave rows sit in
  // registers, one vector per dimension, and the filter points are
  // broadcast past them two at a time, which keeps two independent
  // compare chains in flight. Unsigned compares need no sign flip:
  // q <= row  <=>  min(q, row) == q. The dimension loop runs without early
  // exits: a data-dependent branch per dimension mispredicts more often
  // than it saves, so each pair costs one branch, taken only when some
  // open lane is >= a point on every dimension.
  __m256i rows[kMaxVectorDim];
  const __m256i ones = _mm256_set1_epi32(-1);
  const __m256i lane_ids = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  // Lanes whose row equals filter point j on every dimension: q <= row
  // there, yet q does not strictly dominate the row.
  auto equal_lanes = [&](size_t j) {
    __m256i eq = ones;
    for (uint32_t k = 0; k < dim; ++k) {
      const __m256i q =
          _mm256_set1_epi32(static_cast<int32_t>(filt[k * filt_stride + j]));
      eq = _mm256_and_si256(eq, _mm256_cmpeq_epi32(q, rows[k]));
    }
    return eq;
  };
  size_t count = 0;
  for (size_t at = begin; at < end; at += 8) {
    const size_t m = std::min<size_t>(8, end - at);
    // Lanes some filter point dominates so far. A row tail is padded to a
    // full group whose padding lanes start out dominated, so they never
    // keep the group open.
    __m256i dom;
    if (m == 8) {
      for (uint32_t k = 0; k < dim; ++k) {
        rows[k] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(base + k * stride + at));
      }
      dom = _mm256_setzero_si256();
    } else {
      alignas(32) Coord lanes[8] = {};
      for (uint32_t k = 0; k < dim; ++k) {
        std::copy_n(base + k * stride + at, m, lanes);
        rows[k] = _mm256_load_si256(reinterpret_cast<const __m256i*>(lanes));
      }
      dom = _mm256_cmpgt_epi32(
          lane_ids, _mm256_set1_epi32(static_cast<int32_t>(m) - 1));
    }
    for (size_t j0 = 0; j0 < filt_size; j0 += 2) {
      // An odd filter's last step tests its last point twice.
      const size_t j1 = std::min(j0 + 1, filt_size - 1);
      // Open lanes whose row is >= q0 (resp. q1) on every dimension.
      const __m256i open = _mm256_andnot_si256(dom, ones);
      __m256i le0 = open;
      __m256i le1 = open;
      for (uint32_t k = 0; k < dim; ++k) {
        const Coord* lane = filt + k * filt_stride;
        const __m256i q0 = _mm256_set1_epi32(static_cast<int32_t>(lane[j0]));
        const __m256i q1 = _mm256_set1_epi32(static_cast<int32_t>(lane[j1]));
        le0 = _mm256_and_si256(
            le0, _mm256_cmpeq_epi32(_mm256_min_epu32(q0, rows[k]), q0));
        le1 = _mm256_and_si256(
            le1, _mm256_cmpeq_epi32(_mm256_min_epu32(q1, rows[k]), q1));
      }
      const __m256i any = _mm256_or_si256(le0, le1);
      if (_mm256_testz_si256(any, any)) continue;
      dom = _mm256_or_si256(dom, _mm256_andnot_si256(equal_lanes(j0), le0));
      dom = _mm256_or_si256(dom, _mm256_andnot_si256(equal_lanes(j1), le1));
      if (_mm256_testc_si256(dom, ones)) break;
    }
    const uint32_t mask =
        static_cast<uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(dom))) &
        ((1u << m) - 1u);
    uint8_t* slab = out + (at - begin);
    for (size_t r = 0; r < m; ++r) {
      slab[r] = static_cast<uint8_t>((mask >> r) & 1u);
    }
    count += static_cast<size_t>(std::popcount(mask));
  }
  return count;
}

}  // namespace zsky::simd

#else  // !defined(__AVX2__)

namespace zsky::simd {

bool AnyDominatesAvx2(const Coord* base, size_t stride, uint32_t dim,
                      size_t begin, size_t end, const Coord* p) {
  return AnyDominatesScalar(base, stride, dim, begin, end, p);
}

size_t CountDominatorsAvx2(const Coord* base, size_t stride, uint32_t dim,
                           size_t begin, size_t end, const Coord* p) {
  return CountDominatorsScalar(base, stride, dim, begin, end, p);
}

size_t MarkDominatedByAvx2(const Coord* base, size_t stride, uint32_t dim,
                           size_t begin, size_t end, const Coord* p,
                           uint8_t* out) {
  return MarkDominatedByScalar(base, stride, dim, begin, end, p, out);
}

size_t MaskAnyDominatedAvx2(const Coord* base, size_t stride, uint32_t dim,
                            size_t begin, size_t end, const Coord* filt,
                            size_t filt_stride, size_t filt_size,
                            const MaskFilterPruning* pruning, uint8_t* out) {
  return MaskAnyDominatedScalar(base, stride, dim, begin, end, filt,
                                filt_stride, filt_size, pruning, out);
}

size_t MaskAnyDominatedColumnwiseAvx2(
    const Coord* base, size_t stride, uint32_t dim, size_t begin,
    size_t end, const Coord* filt, size_t filt_stride, size_t filt_size,
    const MaskFilterPruning* pruning, uint8_t* out) {
  return MaskAnyDominatedColumnwiseScalar(base, stride, dim, begin, end, filt,
                                          filt_stride, filt_size, pruning,
                                          out);
}

}  // namespace zsky::simd

#endif  // defined(__AVX2__)
