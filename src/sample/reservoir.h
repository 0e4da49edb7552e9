#ifndef ZSKY_SAMPLE_RESERVOIR_H_
#define ZSKY_SAMPLE_RESERVOIR_H_

#include <cstdint>
#include <vector>

#include "common/dataset_view.h"
#include "common/point_set.h"
#include "common/rng.h"

namespace zsky {

// The paper's preprocessing sampler (Section 5.1): a uniform sample of
// `k` distinct row indices out of `n`, in ascending order; every row when
// k >= n. The paper reservoir-samples a stream (Algorithm R, one draw per
// row); the row count of a dataset is known up front here, so this draws
// the same uniform sample without replacement with Floyd's algorithm: k
// draws, O(k) memory, integer arithmetic only.
std::vector<uint32_t> ReservoirSampleIndices(size_t n, size_t k, Rng& rng);

// Convenience: gathers a uniform sample of `k` points from `points`.
// If k >= points.size(), returns a copy of all points. Only the k sampled
// rows are materialized (gathered in ascending row order, so an mmap'd
// columnar backing is read near-sequentially), never the full dataset —
// this is what lets plan construction stream over out-of-core datasets.
PointSet ReservoirSample(const DatasetView& points, size_t k, Rng& rng);

}  // namespace zsky

#endif  // ZSKY_SAMPLE_RESERVOIR_H_
