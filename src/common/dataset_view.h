#ifndef ZSKY_COMMON_DATASET_VIEW_H_
#define ZSKY_COMMON_DATASET_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/macros.h"
#include "common/point_set.h"

namespace zsky {

// A non-owning, layout-polymorphic read view over a dataset.
//
// The pipeline (plan build, both MR jobs, the planner) consumes points
// through this view so the same code serves two physical layouts:
//  - row-major: a heap-resident PointSet (the in-memory path). Rows are
//    contiguous; `row()` is a zero-copy span.
//  - columnar: one contiguous array per dimension, typically sections of
//    an mmap'd `.zsc` file (io/columnar.h). Rows are gathered on access;
//    bulk consumers should iterate via RowBlockCursor, which transposes
//    block-at-a-time with sequential per-column reads (page-cache
//    friendly) instead of per-row strided loads.
//
// The view does not own storage: the backing PointSet / ColumnarDataset
// must outlive it. Copying a view is cheap (a few pointers).
class DatasetView {
 public:
  // Optional residency hook (columnar backings only): called by
  // RowBlockCursor after a row range has been copied out, so an mmap
  // backing under a memory budget can drop the pages behind the scan
  // (madvise(MADV_DONTNEED)). Plain function pointer + context to keep
  // common/ free of io/ dependencies.
  using ReleaseRangeFn = void (*)(void* ctx, size_t row_begin,
                                  size_t row_end);

  // Optional readahead hook (columnar backings only): called by scan
  // consumers for the row range they will need *next*, so an mmap backing
  // can fault the pages in on a worker thread while the current range is
  // being processed (io/columnar.h's async readahead). Same
  // function-pointer shape as the release hook, for the same layering
  // reason. Must be cheap and non-blocking: implementations enqueue.
  using PrefetchRangeFn = void (*)(void* ctx, size_t row_begin,
                                   size_t row_end);

  // Empty view (dim 1, no rows).
  DatasetView() = default;

  // Row-major view over a PointSet. Implicit on purpose: every call site
  // that used to take `const PointSet&` keeps working unchanged.
  DatasetView(const PointSet& points)  // NOLINT(runtime/explicit)
      : dim_(points.dim()),
        size_(points.size()),
        rows_(points.raw().data()) {}

  // Row-major view over raw storage (`data` holds size*dim coords).
  static DatasetView RowMajor(const Coord* data, size_t size, uint32_t dim) {
    DatasetView view;
    view.dim_ = dim;
    view.size_ = size;
    view.rows_ = data;
    return view;
  }

  // Columnar view: `columns[d]` points to a contiguous array of `size`
  // coords for dimension d. The pointer array itself must stay alive too
  // (it is borrowed, not copied).
  static DatasetView Columnar(const Coord* const* columns, size_t size,
                              uint32_t dim) {
    DatasetView view;
    view.dim_ = dim;
    view.size_ = size;
    view.cols_ = columns;
    view.soa_stride_ = DetectUniformStride(columns, size, dim);
    return view;
  }

  uint32_t dim() const { return dim_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool columnar() const { return cols_ != nullptr; }

  // Columnar backings only: dimension d's contiguous column.
  const Coord* column(uint32_t d) const {
    ZSKY_DCHECK(columnar() && d < dim_);
    return cols_[d];
  }

  // In-place SoA entry point: when the columns sit at one uniform
  // element stride (always true for `.zsc` files, whose columns are
  // uniformly sized and 64-byte aligned inside one mapping), exposes the
  // whole dataset as a single SoA block the dominance kernels can consume
  // in place — lane d of row i at base[d * stride + i], no transpose.
  // Returns false (outputs untouched) for row-major views and for
  // columnar views assembled from unrelated allocations.
  bool SoaSpan(const Coord** base, size_t* stride) const {
    if (soa_stride_ == 0) return false;
    *base = cols_[0];
    *stride = soa_stride_;
    return true;
  }

  // Row-major backings only: zero-copy row span.
  std::span<const Coord> row(size_t i) const {
    ZSKY_DCHECK(!columnar() && i < size_);
    return {rows_ + i * dim_, dim_};
  }

  Coord at(size_t i, uint32_t d) const {
    ZSKY_DCHECK(i < size_ && d < dim_);
    return columnar() ? cols_[d][i] : rows_[i * dim_ + d];
  }

  // Copies row `i` into `out[0..dim)`. Works for both layouts.
  void CopyRow(size_t i, Coord* out) const {
    ZSKY_DCHECK(i < size_);
    if (columnar()) {
      for (uint32_t d = 0; d < dim_; ++d) out[d] = cols_[d][i];
    } else {
      const Coord* src = rows_ + i * dim_;
      for (uint32_t d = 0; d < dim_; ++d) out[d] = src[d];
    }
  }

  // Materializes the listed rows into a heap PointSet (the pipeline's
  // gather for local skylines / merge trees: only survivors are copied,
  // the base data stays in the page cache).
  PointSet Gather(std::span<const uint32_t> rows) const;

  // Materializes rows [begin, end) into a heap PointSet.
  PointSet Materialize(size_t begin, size_t end) const;
  PointSet Materialize() const { return Materialize(0, size_); }

  // Materializes the rows whose `alive` flag is non-zero, in row order
  // (every row when `alive` is null) — the write path's merge gather
  // (docs/updates.md). `alive`, when set, must have size() entries.
  // Streams via RowBlockCursor, so an mmap'd columnar backing is read
  // sequentially and released behind the scan.
  PointSet GatherAlive(const uint8_t* alive) const;

  void SetReleaseHook(ReleaseRangeFn fn, void* ctx) {
    release_fn_ = fn;
    release_ctx_ = ctx;
  }
  bool has_release_hook() const { return release_fn_ != nullptr; }
  void ReleaseRows(size_t row_begin, size_t row_end) const {
    if (release_fn_ != nullptr && row_end > row_begin) {
      release_fn_(release_ctx_, row_begin, row_end);
    }
  }

  void SetPrefetchHook(PrefetchRangeFn fn, void* ctx) {
    prefetch_fn_ = fn;
    prefetch_ctx_ = ctx;
  }
  bool has_prefetch_hook() const { return prefetch_fn_ != nullptr; }
  // Drops the readahead hook from this copy of the view — the
  // ExecutorOptions::readahead ablation switch (the backing's worker is
  // untouched; it just never hears from this scan).
  void DisarmPrefetch() {
    prefetch_fn_ = nullptr;
    prefetch_ctx_ = nullptr;
  }
  void WillNeedRows(size_t row_begin, size_t row_end) const {
    if (prefetch_fn_ != nullptr && row_end > row_begin) {
      prefetch_fn_(prefetch_ctx_, row_begin, row_end);
    }
  }

  // Per-block min/max sketch (columnar backings whose file carries the
  // sketch trailer — io/columnar.h). Block b of `block_rows` rows has
  // per-dimension bounds mins[b * dim + d] / maxs[b * dim + d]. Absent
  // (num_blocks() == 0) on heap views and on pre-sketch `.zsc` files, in
  // which case constrained scans simply do not prune.
  void SetSketch(const Coord* mins, const Coord* maxs, size_t block_rows,
                 size_t num_blocks) {
    sketch_mins_ = mins;
    sketch_maxs_ = maxs;
    sketch_block_rows_ = block_rows;
    sketch_blocks_ = num_blocks;
  }
  bool has_sketch() const { return sketch_blocks_ != 0; }
  size_t sketch_block_rows() const { return sketch_block_rows_; }
  size_t sketch_blocks() const { return sketch_blocks_; }
  const Coord* sketch_mins(size_t block) const {
    ZSKY_DCHECK(block < sketch_blocks_);
    return sketch_mins_ + block * dim_;
  }
  const Coord* sketch_maxs(size_t block) const {
    ZSKY_DCHECK(block < sketch_blocks_);
    return sketch_maxs_ + block * dim_;
  }

 private:
  static size_t DetectUniformStride(const Coord* const* columns, size_t size,
                                    uint32_t dim) {
    if (size == 0) return 0;
    if (dim == 1) return size;
    // uintptr_t arithmetic: columns from one mapping have a well-defined
    // uniform spacing; columns from unrelated heap allocations (tests,
    // ad-hoc views) almost never do, and then scans go through
    // RowBlockCursor.
    const uintptr_t first = reinterpret_cast<uintptr_t>(columns[0]);
    const uintptr_t second = reinterpret_cast<uintptr_t>(columns[1]);
    if (second <= first) return 0;
    const uintptr_t byte_stride = second - first;
    if (byte_stride % sizeof(Coord) != 0) return 0;
    const size_t stride = byte_stride / sizeof(Coord);
    if (stride < size) return 0;
    for (uint32_t d = 2; d < dim; ++d) {
      if (reinterpret_cast<uintptr_t>(columns[d]) !=
          first + static_cast<uintptr_t>(d) * byte_stride) {
        return 0;
      }
    }
    return stride;
  }

  uint32_t dim_ = 1;
  size_t size_ = 0;
  const Coord* rows_ = nullptr;        // Row-major base, or null.
  const Coord* const* cols_ = nullptr; // Per-dimension bases, or null.
  size_t soa_stride_ = 0;              // Uniform column stride, or 0.
  ReleaseRangeFn release_fn_ = nullptr;
  void* release_ctx_ = nullptr;
  PrefetchRangeFn prefetch_fn_ = nullptr;
  void* prefetch_ctx_ = nullptr;
  const Coord* sketch_mins_ = nullptr;
  const Coord* sketch_maxs_ = nullptr;
  size_t sketch_block_rows_ = 0;
  size_t sketch_blocks_ = 0;
};

// Iterates a row range of a DatasetView in blocks, presenting every block
// as row-major coords — the access pattern the desc-aware mapper and the
// gathers want. The plain map wave transposes each block into SoA tiles
// for the mask kernel, unless the view has an in-place SoaSpan.
//
//  - Row-major views yield ONE zero-copy block covering the whole range:
//    byte-for-byte the pre-view behavior of slicing the PointSet.
//  - Columnar views yield blocks of up to `block_rows` rows transposed
//    into an internal buffer. Each column is read sequentially per block;
//    after the copy the consumed range is reported to the view's release
//    hook (if any), so a budget-bounded mmap backing can immediately drop
//    the pages behind the scan.
class RowBlockCursor {
 public:
  // ~256 KiB of buffered rows at 8 dimensions: big enough to amortize the
  // transpose, small enough to stay cache- and budget-resident.
  static constexpr size_t kDefaultBlockRows = 8192;

  struct Block {
    const Coord* data = nullptr;  // Row-major, rows * view.dim() coords.
    size_t first_row = 0;         // Global row index of data[0].
    size_t rows = 0;
  };

  RowBlockCursor(const DatasetView& view, size_t begin, size_t end,
                 size_t block_rows = kDefaultBlockRows);

  // Fills `block` with the next block; returns false when exhausted.
  bool Next(Block* block);

 private:
  const DatasetView* view_;
  size_t pos_;
  size_t end_;
  size_t block_rows_;
  std::vector<Coord> buffer_;  // Columnar transpose scratch.
};

}  // namespace zsky

#endif  // ZSKY_COMMON_DATASET_VIEW_H_
