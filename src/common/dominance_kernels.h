#ifndef ZSKY_COMMON_DOMINANCE_KERNELS_H_
#define ZSKY_COMMON_DOMINANCE_KERNELS_H_

#include <cstdint>

#include "common/cpu.h"
#include "common/point_set.h"

// Per-ISA implementations of the block dominance primitives and the
// function-pointer table the public SoA* wrappers (dominance_block.h)
// dispatch through. Each ISA lives in its own translation unit so the
// vector variants can be compiled with -msse4.2 / -mavx2 without those
// flags leaking into the rest of the build:
//
//   dominance_kernels_scalar.cc  portable C++ (the PR-1 tile kernels)
//   dominance_kernels_sse42.cc   128-bit __m128i kernels
//   dominance_kernels_avx2.cc    256-bit __m256i kernels
//
// When the compiler cannot target an ISA, that TU compiles forwarding
// stubs to the scalar kernels instead — the build always succeeds, and
// runtime dispatch never selects a tier the *hardware* lacks anyway.
//
// All variants return bit-identical results for the same inputs: the
// primitives' outputs (a bool, a count, a 0/1 bitmap) are fully
// determined by the point data, independent of tile width or early-exit
// granularity. Enforced by tests/simd_dispatch_test.cc and by
// `scripts/check.sh simd` (whole-suite runs under each ZSKY_FORCE_ISA).

namespace zsky::simd {

// Signatures mirror the SoA* wrappers in dominance_block.h, with the
// probe passed as a raw pointer of `dim` coordinates.
using AnyDominatesFn = bool (*)(const Coord* base, size_t stride,
                                uint32_t dim, size_t begin, size_t end,
                                const Coord* p);
using CountDominatorsFn = size_t (*)(const Coord* base, size_t stride,
                                     uint32_t dim, size_t begin, size_t end,
                                     const Coord* p);
using MarkDominatedByFn = size_t (*)(const Coord* base, size_t stride,
                                     uint32_t dim, size_t begin, size_t end,
                                     const Coord* p, uint8_t* out);
// The plain map-wave primitive: both operands are SoA. For each
// wave row i in [begin, end), sets out[i - begin] to 1 iff some point of
// the filter block (filt, filt_stride, filt_size) strictly dominates it;
// returns the number of dominated rows. Equivalent to running
// MarkDominatedBy once per filter point and OR-ing the bitmaps, which is
// why every tier produces bit-identical output regardless of early exits.
//
// Min-pruning metadata for the mask kernel (built by MaskFilterIndex in
// dominance_block.h). The filter is grouped into tiles of kMaskTilePoints
// consecutive points and supertiles of kMaskTilesPerSuper consecutive
// tiles; `tile_mins` / `super_mins` hold the per-dimension minimum of
// each, SoA like the filter itself (the min of dimension k for tile t
// lives at tile_mins[k * tile_stride + t]). A tile (or supertile) can
// contain a dominator of row p only if its min is <= p in EVERY dimension
// — a dominator q satisfies q <= p componentwise and the min is <= q —
// so groups failing the test are skipped without touching their points.
// Rows no filter point dominates are the expensive case (they otherwise
// scan the whole block to prove the miss) and reject almost every
// supertile this way when the tiles are spatially clustered. Pruning
// never skips a group that holds a dominator, so output stays
// bit-identical with and without it.
//
// Both strides are padded to a multiple of 8 lanes and padding lanes hold
// ~0u: vector tiers may sweep whole 8-lane groups without bounds checks —
// a padding lane never passes the min test (and its scan range would be
// empty anyway).
struct MaskFilterPruning {
  const Coord* tile_mins;
  size_t tile_stride;
  const Coord* super_mins;
  size_t super_stride;
};

using MaskAnyDominatedFn = size_t (*)(const Coord* base, size_t stride,
                                      uint32_t dim, size_t begin, size_t end,
                                      const Coord* filt, size_t filt_stride,
                                      size_t filt_size,
                                      const MaskFilterPruning* pruning,
                                      uint8_t* out);

// Filter points per tile / tiles per supertile of the min-pruning index.
inline constexpr size_t kMaskTilePoints = 8;
inline constexpr size_t kMaskTilesPerSuper = 8;

// The mask kernel comes in two orientations per tier, and
// SoAMaskAnyDominated picks one by filter size and dimensionality:
//
//   row-wise     (mask_any_dominated) one wave row at a time: gather the
//                row, min-check supertiles and tiles, scan the qualifying
//                tiles until the first dominator. Its fixed cost per row
//                (a gather plus the min-checks) pays off on large
//                filters, where pruning skips most tiles.
//   column-wise  (mask_any_dominated_columnwise) one group of rows at a
//                time (8 on AVX2, 4 on SSE4.2, a 128-row tile on the
//                scalar tier), loaded straight from the SoA columns; the
//                filter points stream past as broadcasts, their dominance
//                masks are OR-ed, and the group stops once every row is
//                dominated. No per-row setup, so it wins while the filter
//                is small; it ignores `pruning`.
//
// Filters of at most kMaskColumnwiseMaxFilter points in at most
// kMaskColumnwiseMaxDim dimensions take the column-wise orientation. The
// crossover comes from bench_simd's mask sweep (512k rows at
// kMaskColumnwiseMaxDim, filters cut from sample skylines, `mask_sweep`
// in BENCH_simd.json): up to 1024 points the column-wise kernel was at
// least 20% faster on correlated, independent and anticorrelated rows; at
// 1536 independent rows it led by only ~14%, and from 3072 on it was
// slower there (still faster on anticorrelated rows). The sweep measures
// one dimensionality, so wider points keep the row-wise kernel: the
// column-wise one does `dim` compares per (row, filter point) pair with no
// per-dimension exit and no pruning, while the row-wise min-checks get
// sharper as dimensions are added, and above kMaxVectorDim the column-wise
// kernel is the scalar tier's. Both orientations give bit-identical
// masks, so these constants move cost, never answers.
inline constexpr size_t kMaskColumnwiseMaxFilter = 1024;
inline constexpr uint32_t kMaskColumnwiseMaxDim = 8;

struct KernelTable {
  AnyDominatesFn any_dominates;
  CountDominatorsFn count_dominators;
  MarkDominatedByFn mark_dominated_by;
  MaskAnyDominatedFn mask_any_dominated;
  MaskAnyDominatedFn mask_any_dominated_columnwise;
};

// The table for one tier (for tests/benches that pin a tier in-process).
const KernelTable& KernelTableFor(Isa isa);

// The table for ActiveIsa(); what the SoA* wrappers use.
const KernelTable& ActiveKernelTable();

// Vector kernels keep the sign-flipped probe in a fixed stack buffer;
// probes wider than this fall back to the scalar kernel (dominance tests
// at such dimensionality are region-pruned long before the inner loops
// matter).
inline constexpr uint32_t kMaxVectorDim = 64;

bool AnyDominatesScalar(const Coord* base, size_t stride, uint32_t dim,
                        size_t begin, size_t end, const Coord* p);
size_t CountDominatorsScalar(const Coord* base, size_t stride, uint32_t dim,
                             size_t begin, size_t end, const Coord* p);
size_t MarkDominatedByScalar(const Coord* base, size_t stride, uint32_t dim,
                             size_t begin, size_t end, const Coord* p,
                             uint8_t* out);
size_t MaskAnyDominatedScalar(const Coord* base, size_t stride, uint32_t dim,
                              size_t begin, size_t end, const Coord* filt,
                              size_t filt_stride, size_t filt_size,
                              const MaskFilterPruning* pruning,
                              uint8_t* out);
size_t MaskAnyDominatedColumnwiseScalar(
    const Coord* base, size_t stride, uint32_t dim, size_t begin,
    size_t end, const Coord* filt, size_t filt_stride, size_t filt_size,
    const MaskFilterPruning* pruning, uint8_t* out);

bool AnyDominatesSse42(const Coord* base, size_t stride, uint32_t dim,
                       size_t begin, size_t end, const Coord* p);
size_t CountDominatorsSse42(const Coord* base, size_t stride, uint32_t dim,
                            size_t begin, size_t end, const Coord* p);
size_t MarkDominatedBySse42(const Coord* base, size_t stride, uint32_t dim,
                            size_t begin, size_t end, const Coord* p,
                            uint8_t* out);
size_t MaskAnyDominatedSse42(const Coord* base, size_t stride, uint32_t dim,
                             size_t begin, size_t end, const Coord* filt,
                             size_t filt_stride, size_t filt_size,
                             const MaskFilterPruning* pruning,
                             uint8_t* out);
size_t MaskAnyDominatedColumnwiseSse42(
    const Coord* base, size_t stride, uint32_t dim, size_t begin,
    size_t end, const Coord* filt, size_t filt_stride, size_t filt_size,
    const MaskFilterPruning* pruning, uint8_t* out);

bool AnyDominatesAvx2(const Coord* base, size_t stride, uint32_t dim,
                      size_t begin, size_t end, const Coord* p);
size_t CountDominatorsAvx2(const Coord* base, size_t stride, uint32_t dim,
                           size_t begin, size_t end, const Coord* p);
size_t MarkDominatedByAvx2(const Coord* base, size_t stride, uint32_t dim,
                           size_t begin, size_t end, const Coord* p,
                           uint8_t* out);
size_t MaskAnyDominatedAvx2(const Coord* base, size_t stride, uint32_t dim,
                            size_t begin, size_t end, const Coord* filt,
                            size_t filt_stride, size_t filt_size,
                            const MaskFilterPruning* pruning,
                            uint8_t* out);
size_t MaskAnyDominatedColumnwiseAvx2(
    const Coord* base, size_t stride, uint32_t dim, size_t begin,
    size_t end, const Coord* filt, size_t filt_stride, size_t filt_size,
    const MaskFilterPruning* pruning, uint8_t* out);

}  // namespace zsky::simd

#endif  // ZSKY_COMMON_DOMINANCE_KERNELS_H_
