// SSE4.2 dominance kernels: 4 points per __m128i, unsigned compares via
// the sign-flip trick (see dominance_kernels_avx2.cc). Only this TU is
// compiled with -msse4.2; without compiler support it degrades to
// forwarding stubs.

#include "common/dominance_kernels.h"

#if defined(__SSE4_2__)

#include <smmintrin.h>

#include <algorithm>
#include <bit>

namespace zsky::simd {

namespace {

inline bool FlipProbe(const Coord* p, uint32_t dim, int32_t* pf) {
  if (dim > kMaxVectorDim) return false;
  for (uint32_t k = 0; k < dim; ++k) {
    pf[k] = static_cast<int32_t>(p[k] ^ 0x80000000u);
  }
  return true;
}

}  // namespace

bool AnyDominatesSse42(const Coord* base, size_t stride, uint32_t dim,
                       size_t begin, size_t end, const Coord* p) {
  int32_t pf[kMaxVectorDim];
  if (!FlipProbe(p, dim, pf)) {
    return AnyDominatesScalar(base, stride, dim, begin, end, p);
  }
  const __m128i sign = _mm_set1_epi32(INT32_MIN);
  size_t at = begin;
  for (; at + 4 <= end; at += 4) {
    __m128i leq = _mm_set1_epi32(-1);
    __m128i lt = _mm_setzero_si128();
    for (uint32_t k = 0; k < dim; ++k) {
      const __m128i v = _mm_xor_si128(
          _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(base + k * stride + at)),
          sign);
      const __m128i pk = _mm_set1_epi32(pf[k]);
      leq = _mm_andnot_si128(_mm_cmpgt_epi32(v, pk), leq);
      lt = _mm_or_si128(lt, _mm_cmpgt_epi32(pk, v));
      if (_mm_testz_si128(leq, leq)) break;
    }
    if (!_mm_testz_si128(leq, lt)) return true;
  }
  return at < end && AnyDominatesScalar(base, stride, dim, at, end, p);
}

size_t CountDominatorsSse42(const Coord* base, size_t stride, uint32_t dim,
                            size_t begin, size_t end, const Coord* p) {
  int32_t pf[kMaxVectorDim];
  if (!FlipProbe(p, dim, pf)) {
    return CountDominatorsScalar(base, stride, dim, begin, end, p);
  }
  const __m128i sign = _mm_set1_epi32(INT32_MIN);
  size_t count = 0;
  size_t at = begin;
  for (; at + 4 <= end; at += 4) {
    __m128i leq = _mm_set1_epi32(-1);
    __m128i lt = _mm_setzero_si128();
    for (uint32_t k = 0; k < dim; ++k) {
      const __m128i v = _mm_xor_si128(
          _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(base + k * stride + at)),
          sign);
      const __m128i pk = _mm_set1_epi32(pf[k]);
      leq = _mm_andnot_si128(_mm_cmpgt_epi32(v, pk), leq);
      lt = _mm_or_si128(lt, _mm_cmpgt_epi32(pk, v));
      if (_mm_testz_si128(leq, leq)) break;
    }
    const __m128i dom = _mm_and_si128(leq, lt);
    count += static_cast<size_t>(std::popcount(
        static_cast<uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(dom)))));
  }
  if (at < end) {
    count += CountDominatorsScalar(base, stride, dim, at, end, p);
  }
  return count;
}

size_t MarkDominatedBySse42(const Coord* base, size_t stride, uint32_t dim,
                            size_t begin, size_t end, const Coord* p,
                            uint8_t* out) {
  int32_t pf[kMaxVectorDim];
  if (!FlipProbe(p, dim, pf)) {
    return MarkDominatedByScalar(base, stride, dim, begin, end, p, out);
  }
  const __m128i sign = _mm_set1_epi32(INT32_MIN);
  size_t count = 0;
  size_t at = begin;
  for (; at + 4 <= end; at += 4) {
    __m128i geq = _mm_set1_epi32(-1);
    __m128i gt = _mm_setzero_si128();
    for (uint32_t k = 0; k < dim; ++k) {
      const __m128i v = _mm_xor_si128(
          _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(base + k * stride + at)),
          sign);
      const __m128i pk = _mm_set1_epi32(pf[k]);
      geq = _mm_andnot_si128(_mm_cmpgt_epi32(pk, v), geq);
      gt = _mm_or_si128(gt, _mm_cmpgt_epi32(v, pk));
      if (_mm_testz_si128(geq, geq)) break;
    }
    const uint32_t mask = static_cast<uint32_t>(
        _mm_movemask_ps(_mm_castsi128_ps(_mm_and_si128(geq, gt))));
    uint8_t* slab = out + (at - begin);
    for (uint32_t b = 0; b < 4; ++b) {
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

size_t MaskAnyDominatedSse42(const Coord* base, size_t stride, uint32_t dim,
                             size_t begin, size_t end, const Coord* filt,
                             size_t filt_stride, size_t filt_size,
                             const MaskFilterPruning* pruning, uint8_t* out) {
  if (dim > kMaxVectorDim) {
    return MaskAnyDominatedScalar(base, stride, dim, begin, end, filt,
                                  filt_stride, filt_size, pruning, out);
  }
  // Per-row orientation (see MaskAnyDominatedAvx2): gather the row from
  // the SoA columns, min-check supertiles 4 per vector op, the 8 tiles of
  // each qualifying supertile in two more vector ops, and scan only tiles
  // that may hold a dominator; the scan exits at the first dominator
  // found.
  static_assert(kMaskTilesPerSuper == 8,
                "supertile tile group must fill two __m128i");
  Coord row[kMaxVectorDim];
  int32_t pf[kMaxVectorDim];
  const __m128i sign = _mm_set1_epi32(INT32_MIN);
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
      for (size_t sg = 0; sg < num_supers && !dom; sg += 4) {
        // 4 supertiles at once; the group load is always in-bounds
        // (super_stride is padded to a multiple of 8).
        __m128i smay = _mm_set1_epi32(-1);
        for (uint32_t k = 0; k < dim; ++k) {
          const __m128i mins = _mm_xor_si128(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                  pruning->super_mins + k * pruning->super_stride + sg)),
              sign);
          const __m128i pk = _mm_set1_epi32(pf[k]);
          smay = _mm_andnot_si128(_mm_cmpgt_epi32(mins, pk), smay);
          if (_mm_testz_si128(smay, smay)) break;
        }
        uint32_t sm = static_cast<uint32_t>(
            _mm_movemask_ps(_mm_castsi128_ps(smay)));
        // An all-max row qualifies the ~0u padding lanes too; drop them —
        // their tile groups sit past the end of tile_mins.
        if (num_supers - sg < 4) sm &= (1u << (num_supers - sg)) - 1u;
        while (sm != 0 && !dom) {
          const size_t s = sg + static_cast<size_t>(std::countr_zero(sm));
          sm &= sm - 1;
          // The supertile's 8 tiles in two 4-lane min-checks; in-bounds by
          // the tile_stride == num_supers * kMaskTilesPerSuper invariant.
          const size_t tbase = s * kMaskTilesPerSuper;
          __m128i may_lo = _mm_set1_epi32(-1);
          __m128i may_hi = _mm_set1_epi32(-1);
          for (uint32_t k = 0; k < dim; ++k) {
            const Coord* lane =
                pruning->tile_mins + k * pruning->tile_stride + tbase;
            const __m128i pk = _mm_set1_epi32(pf[k]);
            const __m128i lo = _mm_xor_si128(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(lane)),
                sign);
            const __m128i hi = _mm_xor_si128(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(lane + 4)),
                sign);
            may_lo = _mm_andnot_si128(_mm_cmpgt_epi32(lo, pk), may_lo);
            may_hi = _mm_andnot_si128(_mm_cmpgt_epi32(hi, pk), may_hi);
            if (_mm_testz_si128(_mm_or_si128(may_lo, may_hi),
                                _mm_or_si128(may_lo, may_hi))) {
              break;
            }
          }
          uint32_t qm =
              static_cast<uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(may_lo))) |
              (static_cast<uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(may_hi)))
               << 4);
          while (qm != 0 && !dom) {
            const size_t t = tbase + static_cast<size_t>(std::countr_zero(qm));
            qm &= qm - 1;
            const size_t t0 = t * kMaskTilePoints;
            const size_t t1 = std::min(filt_size, t0 + kMaskTilePoints);
            // A qualifying padding tile (same all-max rows) has an empty
            // range; skip it.
            if (t0 < t1) {
              dom = AnyDominatesSse42(filt, filt_stride, dim, t0, t1, row);
            }
          }
        }
      }
    } else {
      dom = AnyDominatesSse42(filt, filt_stride, dim, 0, filt_size, row);
    }
    out[i - begin] = static_cast<uint8_t>(dom);
    count += static_cast<size_t>(dom);
  }
  return count;
}

size_t MaskAnyDominatedColumnwiseSse42(
    const Coord* base, size_t stride, uint32_t dim, size_t begin,
    size_t end, const Coord* filt, size_t filt_stride, size_t filt_size,
    const MaskFilterPruning* pruning, uint8_t* out) {
  if (dim > kMaxVectorDim) {
    return MaskAnyDominatedColumnwiseScalar(base, stride, dim, begin, end,
                                            filt, filt_stride, filt_size,
                                            pruning, out);
  }
  // Column-wise orientation (see dominance_kernels.h): 4 wave rows sit in
  // registers, one vector per dimension, and the filter points are
  // broadcast past them two at a time, which keeps two independent
  // compare chains in flight. Unsigned compares need no sign flip:
  // q <= row  <=>  min(q, row) == q. The dimension loop runs without early
  // exits: a data-dependent branch per dimension mispredicts more often
  // than it saves, so each pair costs one branch, taken only when some
  // open lane is >= a point on every dimension.
  __m128i rows[kMaxVectorDim];
  const __m128i ones = _mm_set1_epi32(-1);
  const __m128i lane_ids = _mm_setr_epi32(0, 1, 2, 3);
  // Lanes whose row equals filter point j on every dimension: q <= row
  // there, yet q does not strictly dominate the row.
  auto equal_lanes = [&](size_t j) {
    __m128i eq = ones;
    for (uint32_t k = 0; k < dim; ++k) {
      const __m128i q =
          _mm_set1_epi32(static_cast<int32_t>(filt[k * filt_stride + j]));
      eq = _mm_and_si128(eq, _mm_cmpeq_epi32(q, rows[k]));
    }
    return eq;
  };
  size_t count = 0;
  for (size_t at = begin; at < end; at += 4) {
    const size_t m = std::min<size_t>(4, end - at);
    // Lanes some filter point dominates so far. A row tail is padded to a
    // full group whose padding lanes start out dominated, so they never
    // keep the group open.
    __m128i dom;
    if (m == 4) {
      for (uint32_t k = 0; k < dim; ++k) {
        rows[k] = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(base + k * stride + at));
      }
      dom = _mm_setzero_si128();
    } else {
      alignas(16) Coord lanes[4] = {};
      for (uint32_t k = 0; k < dim; ++k) {
        std::copy_n(base + k * stride + at, m, lanes);
        rows[k] = _mm_load_si128(reinterpret_cast<const __m128i*>(lanes));
      }
      dom = _mm_cmpgt_epi32(
          lane_ids, _mm_set1_epi32(static_cast<int32_t>(m) - 1));
    }
    for (size_t j0 = 0; j0 < filt_size; j0 += 2) {
      // An odd filter's last step tests its last point twice.
      const size_t j1 = std::min(j0 + 1, filt_size - 1);
      // Open lanes whose row is >= q0 (resp. q1) on every dimension.
      const __m128i open = _mm_andnot_si128(dom, ones);
      __m128i le0 = open;
      __m128i le1 = open;
      for (uint32_t k = 0; k < dim; ++k) {
        const Coord* lane = filt + k * filt_stride;
        const __m128i q0 = _mm_set1_epi32(static_cast<int32_t>(lane[j0]));
        const __m128i q1 = _mm_set1_epi32(static_cast<int32_t>(lane[j1]));
        le0 = _mm_and_si128(
            le0, _mm_cmpeq_epi32(_mm_min_epu32(q0, rows[k]), q0));
        le1 = _mm_and_si128(
            le1, _mm_cmpeq_epi32(_mm_min_epu32(q1, rows[k]), q1));
      }
      const __m128i any = _mm_or_si128(le0, le1);
      if (_mm_testz_si128(any, any)) continue;
      dom = _mm_or_si128(dom, _mm_andnot_si128(equal_lanes(j0), le0));
      dom = _mm_or_si128(dom, _mm_andnot_si128(equal_lanes(j1), le1));
      if (_mm_testc_si128(dom, ones)) break;
    }
    const uint32_t mask =
        static_cast<uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(dom))) &
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

#else  // !defined(__SSE4_2__)

namespace zsky::simd {

bool AnyDominatesSse42(const Coord* base, size_t stride, uint32_t dim,
                       size_t begin, size_t end, const Coord* p) {
  return AnyDominatesScalar(base, stride, dim, begin, end, p);
}

size_t CountDominatorsSse42(const Coord* base, size_t stride, uint32_t dim,
                            size_t begin, size_t end, const Coord* p) {
  return CountDominatorsScalar(base, stride, dim, begin, end, p);
}

size_t MarkDominatedBySse42(const Coord* base, size_t stride, uint32_t dim,
                            size_t begin, size_t end, const Coord* p,
                            uint8_t* out) {
  return MarkDominatedByScalar(base, stride, dim, begin, end, p, out);
}

size_t MaskAnyDominatedSse42(const Coord* base, size_t stride, uint32_t dim,
                             size_t begin, size_t end, const Coord* filt,
                             size_t filt_stride, size_t filt_size,
                             const MaskFilterPruning* pruning, uint8_t* out) {
  return MaskAnyDominatedScalar(base, stride, dim, begin, end, filt,
                                filt_stride, filt_size, pruning, out);
}

size_t MaskAnyDominatedColumnwiseSse42(
    const Coord* base, size_t stride, uint32_t dim, size_t begin,
    size_t end, const Coord* filt, size_t filt_stride, size_t filt_size,
    const MaskFilterPruning* pruning, uint8_t* out) {
  return MaskAnyDominatedColumnwiseScalar(base, stride, dim, begin, end, filt,
                                          filt_stride, filt_size, pruning,
                                          out);
}

}  // namespace zsky::simd

#endif  // defined(__SSE4_2__)
