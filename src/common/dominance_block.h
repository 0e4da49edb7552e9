#ifndef ZSKY_COMMON_DOMINANCE_BLOCK_H_
#define ZSKY_COMMON_DOMINANCE_BLOCK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/dominance_kernels.h"
#include "common/point_set.h"

namespace zsky {

// Points per inner tile of the block dominance kernels. A tile is small
// enough for its uint8 flag buffers to stay in L1 yet wide enough that the
// per-dimension compare loops auto-vectorize.
inline constexpr size_t kDominanceTile = 128;

// Structure-of-arrays dominance kernels. Each scans points [begin, end) of
// a column-major block whose k-th coordinate lane starts at
// `base + k * stride` (stride >= end). They replace per-pair Dominates()
// calls on hot paths: instead of short-circuiting per point, whole tiles
// are compared dimension-by-dimension over contiguous lanes, with an
// early exit per tile.
//
// Each call dispatches to the best instruction set the CPU supports
// (scalar / SSE4.2 / AVX2 — see common/cpu.h and dominance_kernels.h);
// all variants return bit-identical results. ZSKY_FORCE_ISA pins a tier.

// True iff some scanned point strictly dominates `p`.
bool SoAAnyDominates(const Coord* base, size_t stride, uint32_t dim,
                     size_t begin, size_t end, std::span<const Coord> p);

// Number of scanned points strictly dominating `p`.
size_t SoACountDominators(const Coord* base, size_t stride, uint32_t dim,
                          size_t begin, size_t end, std::span<const Coord> p);

// Flags the scanned points strictly dominated by `p`:
// out[i - begin] = 1 iff point i is dominated, 0 otherwise. `out` must hold
// end - begin entries. Returns the number of flagged points.
size_t SoAMarkDominatedBy(const Coord* base, size_t stride, uint32_t dim,
                          size_t begin, size_t end, std::span<const Coord> p,
                          uint8_t* out);

// Column-at-a-time SZB probe for the plain map wave: both sides stay SoA
// (the wave rows are mapped `.zsc` columns or a transposed heap tile).
// Flags every wave row in [begin, end) that some point of the filter
// block (filt / filt_stride / filt_size, same lane layout) strictly
// dominates: out[i - begin] = 1 iff row i is dominated. Returns the number
// of dominated rows. filt_size == 0 leaves out all-zero. Filters of at
// most simd::kMaskColumnwiseMaxFilter points in at most
// simd::kMaskColumnwiseMaxDim dimensions run the column-wise kernel, all
// others the min-pruned row-wise kernel (dominance_kernels.h).
//
// `pruning` is optional (pass nullptr for a full scan): the two-level
// min-pruning descriptor built by MaskFilterIndex (see
// dominance_kernels.h for the layout and skipping rule), which only the
// row-wise kernel reads. A tile or supertile whose min exceeds the row on
// any dimension cannot hold a dominator and is skipped, which turns the
// full-block proof an undominated row otherwise pays into a handful of
// min-checks. Pruning never skips a dominator, so output is bit-identical
// with and without the index.
size_t SoAMaskAnyDominated(const Coord* base, size_t stride, uint32_t dim,
                           size_t begin, size_t end, const Coord* filt,
                           size_t filt_stride, size_t filt_size,
                           const simd::MaskFilterPruning* pruning,
                           uint8_t* out);

// A growable batch of points in structure-of-arrays layout, answering
// dominance questions against the whole batch with the kernels above.
// Skyline windows (sort-based BNL passes, the BNL window itself) are the
// intended use: append accepted points, test each incoming point against
// the batch.
class DominanceBlock {
 public:
  explicit DominanceBlock(uint32_t dim) : dim_(dim) { ZSKY_CHECK(dim >= 1); }

  uint32_t dim() const { return dim_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Reserve(size_t n) {
    if (n > capacity_) Regrow(n);
  }

  void Clear() { size_ = 0; }

  // Appends one point (must have dim() coordinates).
  void Append(std::span<const Coord> p);

  // Appends every point of `points` (dimensions must match).
  void AppendAll(const PointSet& points);

  // True iff some stored point strictly dominates `p`.
  bool AnyDominates(std::span<const Coord> p) const {
    return SoAAnyDominates(data_.data(), capacity_, dim_, 0, size_, p);
  }

  // Number of stored points strictly dominating `p`.
  size_t CountDominators(std::span<const Coord> p) const {
    return SoACountDominators(data_.data(), capacity_, dim_, 0, size_, p);
  }

  // Sets out[i] = 1 iff `p` strictly dominates stored point i (out is
  // resized to size()). Returns the number of dominated points.
  size_t DominatedBitmap(std::span<const Coord> p,
                         std::vector<uint8_t>& out) const;

  // Removes every point whose flag is set, preserving the order of the
  // survivors. `flags` must have size() entries.
  void Remove(const std::vector<uint8_t>& flags);

  // Copies stored point `i` out (row-major), mainly for tests.
  void CopyPoint(size_t i, std::span<Coord> out) const;

  // Raw SoA view of the batch, for kernels that take the block as the
  // *filter* side (SoAMaskAnyDominated): lane k of point i lives at
  // lanes()[k * lane_stride() + i]. Invalidated by Append/Reserve/Remove.
  const Coord* lanes() const { return data_.data(); }
  size_t lane_stride() const { return capacity_; }

 private:
  void Regrow(size_t min_capacity);

  uint32_t dim_;
  size_t size_ = 0;
  size_t capacity_ = 0;
  // Lane k occupies [k * capacity_, k * capacity_ + size_).
  std::vector<Coord> data_;
};

// A min-pruned probe index over a DominanceBlock, feeding
// SoAMaskAnyDominated's tile skipping. Holds a copy of the filter sorted
// by Morton (bit-interleaved) order — so consecutive points are spatially
// close and each tile's per-dimension min stays tight — plus the SoA
// minima of every kMaskTilePoints-sized tile. "Does any filter point
// dominate p" is invariant under permutation of the filter, so probing
// the reordered copy answers identically to probing the source block; the
// clustering only makes the min test selective. The SZB filter
// (core/query_plan.h) builds one per filter and keeps only this copy: the
// map wave's mask kernel and the per-point probes (AnyDominates) both
// read it.
struct MaskFilterIndex {
  DominanceBlock block;
  // Per-dimension tile minima: min of dimension k over tile t lives at
  // tile_mins[k * tile_stride + t]; super_mins fold kMaskTilesPerSuper
  // consecutive tiles the same way. Both strides are padded to a multiple
  // of 8 lanes with ~0u in the padding, so a vector min-check never
  // qualifies a padding lane (and its scan range would be empty anyway).
  // tile_stride equals num_supers * kMaskTilesPerSuper exactly, so the
  // tile group of supertile s — 8 lanes at offset s * kMaskTilesPerSuper —
  // is always a full in-bounds vector load.
  std::vector<Coord> tile_mins;
  size_t tile_stride = 0;
  std::vector<Coord> super_mins;
  size_t super_stride = 0;

  explicit MaskFilterIndex(const DominanceBlock& src);

  size_t size() const { return block.size(); }

  // True iff some filter point strictly dominates `p`: the min-pruned
  // mask probe for one point (a row-major point is a one-row SoA block of
  // stride 1), for callers outside the mask wave. A lone row has no group
  // to amortize the column-wise orientation over, so it always takes the
  // row-wise kernel, whatever the filter's size.
  bool AnyDominates(std::span<const Coord> p) const {
    ZSKY_DCHECK(p.size() == block.dim());
    const simd::MaskFilterPruning prune = pruning();
    uint8_t dominated = 0;
    simd::ActiveKernelTable().mask_any_dominated(
        p.data(), 1, block.dim(), 0, 1, block.lanes(), block.lane_stride(),
        block.size(), &prune, &dominated);
    return dominated != 0;
  }

  // The descriptor SoAMaskAnyDominated takes; valid while *this lives.
  simd::MaskFilterPruning pruning() const {
    return {tile_mins.data(), tile_stride, super_mins.data(), super_stride};
  }
};

}  // namespace zsky

#endif  // ZSKY_COMMON_DOMINANCE_BLOCK_H_
