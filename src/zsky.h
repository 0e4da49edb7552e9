#ifndef ZSKY_ZSKY_H_
#define ZSKY_ZSKY_H_

// Umbrella header: the zsky public API.
//
// Typical usage (see examples/quickstart.cc):
//   1. Put your data in a PointSet (quantize real values via Quantizer).
//   2. Configure ExecutorOptions (partitioning/local/merge strategy, M).
//   3. ParallelSkylineExecutor(options).Execute(points) -> skyline rows
//      plus per-phase metrics.
// Centralized algorithms (BnlSkyline, SortBasedSkyline, ZSearchSkyline)
// and the index primitives (ZBTree, DynamicSkyline, ZMerge) are usable on
// their own.

#include "algo/bnl.h"
#include "algo/dnc.h"
#include "algo/ranked.h"
#include "algo/skyband.h"
#include "algo/skyline.h"
#include "algo/sort_based.h"
#include "algo/subspace.h"
#include "algo/verify.h"
#include "common/cpu.h"
#include "common/dataset_view.h"
#include "common/dominance.h"
#include "common/point_set.h"
#include "common/quantizer.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "core/analysis.h"
#include "core/calibration_io.h"
#include "core/executor.h"
#include "core/mr_gpmrs.h"
#include "core/metrics_json.h"
#include "core/metrics_registry.h"
#include "core/options.h"
#include "core/pipeline.h"
#include "core/planner.h"
#include "core/query_plan.h"
#include "core/query_service.h"
#include "core/report.h"
#include "core/skyband_executor.h"
#include "core/streaming.h"
#include "core/windowed_skyline.h"
#include "gen/synthetic.h"
#include "io/binary.h"
#include "io/columnar.h"
#include "io/csv.h"
#include "index/bbs.h"
#include "index/constrained.h"
#include "index/dynamic_skyline.h"
#include "index/rtree.h"
#include "index/zbtree.h"
#include "index/zmerge.h"
#include "index/zsearch.h"
#include "partition/angle_partitioner.h"
#include "partition/dominance_volume.h"
#include "partition/grid_partitioner.h"
#include "partition/partitioner.h"
#include "partition/quadtree_partitioner.h"
#include "partition/random_partitioner.h"
#include "partition/zorder_grouping.h"
#include "sample/reservoir.h"
#include "zorder/rz_region.h"
#include "zorder/zaddress.h"
#include "zorder/zorder_codec.h"

#endif  // ZSKY_ZSKY_H_
