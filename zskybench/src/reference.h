#ifndef ZSKYBENCH_REFERENCE_H_
#define ZSKYBENCH_REFERENCE_H_

// The benchmark's own reference answers. They share no code with the
// program under test beyond the PointSet container, so a defect in the
// pipeline, its dominance kernels or its oracle cannot hide by being
// repeated in the reference.

#include <cstdint>
#include <vector>

#include "common/point_set.h"

namespace zskybench {

// The k-skyband of `points` (rows with fewer than k strict dominators,
// minimization), as ascending row indices. Sort-filter-skyline over the
// coordinate sum: every dominator of a row has a strictly smaller sum, so
// rows are decided in sum order against the band built so far (a row with
// k dominators always has k of them inside the band, by induction on sum
// order). Batches of rows are tested against the band on `threads`
// threads, then against the batch's own earlier band members in order.
std::vector<uint32_t> ReferenceBand(const zsky::PointSet& points, uint32_t k,
                                    unsigned threads);

}  // namespace zskybench

#endif  // ZSKYBENCH_REFERENCE_H_
