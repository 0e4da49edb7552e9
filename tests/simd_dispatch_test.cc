// Parity tests for the runtime CPU dispatch layer: every ISA tier of the
// dominance kernels and every Z-order codec path must produce
// bit-identical results, and the whole pipeline must be invariant to the
// active tier. `scripts/check.sh simd` additionally re-runs the entire
// suite under each ZSKY_FORCE_ISA value.

#include <gtest/gtest.h>

#include <vector>

#include "common/cpu.h"
#include "common/dominance.h"
#include "common/dominance_block.h"
#include "common/dominance_kernels.h"
#include "common/point_set.h"
#include "common/rng.h"
#include "core/executor.h"
#include "gen/synthetic.h"
#include "mask_kernel_cases.h"
#include "zorder/zorder_codec.h"

namespace zsky {
namespace {

// Restores the dispatch tier active at construction (tests must not leak
// a pinned tier into the rest of the suite).
class ScopedIsa {
 public:
  ScopedIsa() : saved_(ActiveIsa()) {}
  ~ScopedIsa() { SetActiveIsa(saved_); }

 private:
  Isa saved_;
};

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> isas = {Isa::kScalar};
  if (IsaSupported(Isa::kSse42)) isas.push_back(Isa::kSse42);
  if (IsaSupported(Isa::kAvx2)) isas.push_back(Isa::kAvx2);
  return isas;
}

PointSet RandomBatch(uint32_t dim, size_t n, uint64_t seed, Coord alphabet) {
  Rng rng(seed);
  PointSet ps(dim);
  std::vector<Coord> p(dim);
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t k = 0; k < dim; ++k) {
      p[k] = static_cast<Coord>(rng.NextBounded(alphabet));
    }
    ps.Append(p);
  }
  return ps;
}

TEST(CpuDispatchTest, ActiveIsaIsSupportedAndNamesRoundTrip) {
  EXPECT_TRUE(IsaSupported(ActiveIsa()));
  for (Isa isa : {Isa::kScalar, Isa::kSse42, Isa::kAvx2}) {
    Isa parsed;
    ASSERT_TRUE(ParseIsa(IsaName(isa), &parsed));
    EXPECT_EQ(parsed, isa);
  }
  Isa ignored;
  EXPECT_FALSE(ParseIsa("neon", &ignored));
  EXPECT_FALSE(ParseIsa("", &ignored));
}

TEST(CpuDispatchTest, ScalarTierDisablesBmi2Codec) {
  ScopedIsa guard;
  SetActiveIsa(Isa::kScalar);
  EXPECT_FALSE(UseBmi2Codec());
  ZOrderCodec codec(4, 8);
  EXPECT_FALSE(codec.uses_bmi2());
}

// Every dispatched kernel tier must agree with the scalar tier (and the
// scalar tier with per-pair Dominates) on random batches whose sizes
// straddle the 4/8-point vector groups and the 128-point scalar tile.
TEST(KernelIsaParityTest, AllTiersAgreeWithScalar) {
  const size_t sizes[] = {1,  3,  4,   5,   7,   8,   9,  31, 32,
                          33, 65, 127, 128, 129, 300, 1000};
  const auto isas = SupportedIsas();
  for (uint32_t dim = 2; dim <= 16; ++dim) {
    for (size_t n : sizes) {
      for (Coord alphabet : {Coord{4}, Coord{100000}}) {
        const uint64_t seed = dim * 7919 + n * 271 + alphabet;
        const PointSet batch = RandomBatch(dim, n, seed, alphabet);
        const PointSet probes = RandomBatch(dim, 16, seed + 1, alphabet);
        // Column-major mirror with a stride larger than n, to exercise
        // the strided-lane form the ZB-tree and DominanceBlock use.
        const size_t stride = n + 13;
        std::vector<Coord> soa(stride * dim, 0);
        for (size_t i = 0; i < n; ++i) {
          for (uint32_t k = 0; k < dim; ++k) soa[k * stride + i] = batch[i][k];
        }
        const auto& scalar = simd::KernelTableFor(Isa::kScalar);
        for (size_t q = 0; q < probes.size(); ++q) {
          const Coord* p = probes[q].data();
          const bool ref_any =
              scalar.any_dominates(soa.data(), stride, dim, 0, n, p);
          const size_t ref_count =
              scalar.count_dominators(soa.data(), stride, dim, 0, n, p);
          std::vector<uint8_t> ref_flags(n, 0);
          scalar.mark_dominated_by(soa.data(), stride, dim, 0, n, p,
                                   ref_flags.data());
          // Scalar tier vs the per-pair definition.
          bool pair_any = false;
          for (size_t i = 0; i < n && !pair_any; ++i) {
            pair_any = Dominates(batch[i], probes[q]);
          }
          ASSERT_EQ(ref_any, pair_any) << "dim=" << dim << " n=" << n;
          for (Isa isa : isas) {
            const auto& table = simd::KernelTableFor(isa);
            EXPECT_EQ(table.any_dominates(soa.data(), stride, dim, 0, n, p),
                      ref_any)
                << IsaName(isa) << " dim=" << dim << " n=" << n;
            EXPECT_EQ(
                table.count_dominators(soa.data(), stride, dim, 0, n, p),
                ref_count)
                << IsaName(isa) << " dim=" << dim << " n=" << n;
            std::vector<uint8_t> flags(n, 0);
            table.mark_dominated_by(soa.data(), stride, dim, 0, n, p,
                                    flags.data());
            EXPECT_EQ(flags, ref_flags)
                << IsaName(isa) << " dim=" << dim << " n=" << n;
          }
        }
      }
    }
  }
}

// Nonzero begin: kernels must honor sub-ranges (leaf scans use them).
TEST(KernelIsaParityTest, SubrangeScansAgree) {
  const uint32_t dim = 6;
  const size_t n = 200;
  const PointSet batch = RandomBatch(dim, n, 1234, 50);
  std::vector<Coord> soa(n * dim);
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t k = 0; k < dim; ++k) soa[k * n + i] = batch[i][k];
  }
  const PointSet probes = RandomBatch(dim, 8, 77, 50);
  const auto& scalar = simd::KernelTableFor(Isa::kScalar);
  for (Isa isa : SupportedIsas()) {
    const auto& table = simd::KernelTableFor(isa);
    for (size_t q = 0; q < probes.size(); ++q) {
      const Coord* p = probes[q].data();
      for (size_t begin : {size_t{0}, size_t{1}, size_t{13}, size_t{130}}) {
        for (size_t end : {size_t{14}, size_t{131}, n}) {
          if (begin >= end) continue;
          EXPECT_EQ(table.any_dominates(soa.data(), n, dim, begin, end, p),
                    scalar.any_dominates(soa.data(), n, dim, begin, end, p));
          EXPECT_EQ(
              table.count_dominators(soa.data(), n, dim, begin, end, p),
              scalar.count_dominators(soa.data(), n, dim, begin, end, p));
        }
      }
    }
  }
}

// Both orientations of the SZB mask kernel, called straight from every
// tier's table (so each is covered on both sides of the size crossover
// SoAMaskAnyDominated applies), must match the per-pair Dominates oracle
// bit for bit: the row-wise kernel with and without min-pruning, the
// column-wise kernel (which ignores the pruning descriptor) with both.
TEST(KernelIsaParityTest, MaskOrientationsMatchOracle) {
  for (const uint32_t dim : mask_cases::Dims()) {
    for (const size_t filt_size : mask_cases::FilterSizes()) {
      const mask_cases::MaskCase c =
          mask_cases::MakeCase(dim, filt_size, dim * 104729 + filt_size);
      const MaskFilterIndex index(c.filter);
      const simd::MaskFilterPruning pruning = index.pruning();
      for (Isa isa : SupportedIsas()) {
        const auto& table = simd::KernelTableFor(isa);
        const struct {
          const char* name;
          simd::MaskAnyDominatedFn kernel;
          bool pruned;
        } runs[] = {{"row-wise", table.mask_any_dominated, false},
                    {"row-wise pruned", table.mask_any_dominated, true},
                    {"column-wise", table.mask_any_dominated_columnwise,
                     false},
                    {"column-wise pruned",
                     table.mask_any_dominated_columnwise, true}};
        for (const auto& run : runs) {
          // The pruned runs probe the index's Morton-ordered copy.
          const DominanceBlock& filt = run.pruned ? index.block : c.filter;
          for (const auto& [begin, end] : mask_cases::Ranges()) {
            std::vector<uint8_t> mask(end - begin, 0xCC);
            const size_t count = run.kernel(
                c.soa.data(), c.stride, dim, begin, end, filt.lanes(),
                filt.lane_stride(), filt.size(),
                run.pruned ? &pruning : nullptr, mask.data());
            EXPECT_EQ(count, c.ExpectCount(begin, end))
                << IsaName(isa) << " " << run.name << " dim=" << dim
                << " filter=" << filt_size << " rows=[" << begin << ", "
                << end << ")";
            EXPECT_EQ(mask, c.Expect(begin, end))
                << IsaName(isa) << " " << run.name << " dim=" << dim
                << " filter=" << filt_size << " rows=[" << begin << ", "
                << end << ")";
          }
        }
      }
    }
  }
}

// Reference Z-order encoder: the seed's bit-by-bit interleave, kept here
// as the ground truth both fast paths must match.
ZAddress ReferenceEncode(const ZOrderCodec& codec,
                         std::span<const Coord> point) {
  ZAddress address(codec.num_words());
  size_t t = 0;
  for (uint32_t level = 0; level < codec.bits(); ++level) {
    const uint32_t coord_bit = codec.bits() - 1 - level;
    for (uint32_t k = 0; k < codec.dim(); ++k, ++t) {
      if ((point[k] >> coord_bit) & 1u) address.SetBit(t, true);
    }
  }
  return address;
}

PointSet RandomCoords(uint32_t dim, uint32_t bits, size_t n, uint64_t seed) {
  Rng rng(seed);
  const Coord max_value = bits == 32 ? 0xFFFFFFFFu : ((Coord{1} << bits) - 1);
  PointSet ps(dim);
  std::vector<Coord> row(dim);
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t k = 0; k < dim; ++k) {
      row[k] = static_cast<Coord>(rng.NextBounded(uint64_t{max_value} + 1));
    }
    ps.Append(row);
  }
  return ps;
}

void CheckCodecGeometry(uint32_t dim, uint32_t bits) {
  const ZOrderCodec codec(dim, bits);
  const PointSet ps = RandomCoords(dim, bits, 8, dim * 1000003 + bits);
  std::vector<uint64_t> scalar_words(codec.num_words());
  std::vector<uint64_t> fast_words(codec.num_words());
  std::vector<Coord> back(dim);
  for (size_t i = 0; i < ps.size(); ++i) {
    const ZAddress ref = ReferenceEncode(codec, ps[i]);
    codec.EncodeToScalar(ps[i], scalar_words);
    codec.EncodeTo(ps[i], fast_words);
    for (size_t w = 0; w < codec.num_words(); ++w) {
      ASSERT_EQ(scalar_words[w], ref.words()[w])
          << "scalar dim=" << dim << " bits=" << bits << " word=" << w;
      ASSERT_EQ(fast_words[w], ref.words()[w])
          << "dispatched dim=" << dim << " bits=" << bits << " word=" << w;
    }
    codec.DecodeScalar(ref, back);
    for (uint32_t k = 0; k < dim; ++k) ASSERT_EQ(back[k], ps[i][k]);
    codec.Decode(ref, back);
    for (uint32_t k = 0; k < dim; ++k) ASSERT_EQ(back[k], ps[i][k]);
  }
}

// Full randomized sweep of the geometries the pipeline uses: dims 2-16
// (pow2 magic shuffle and odd-dim soft paths) x every bit width.
TEST(CodecIsaParityTest, EncodeDecodeParityDims2To16AllBits) {
  for (uint32_t dim = 2; dim <= 16; ++dim) {
    for (uint32_t bits = 1; bits <= 32; ++bits) {
      CheckCodecGeometry(dim, bits);
    }
  }
}

TEST(CodecIsaParityTest, EncodeDecodeParityEdgeGeometries) {
  for (uint32_t dim : {1u, 20u, 33u, 64u, 100u}) {
    for (uint32_t bits : {1u, 7u, 13u, 32u}) {
      CheckCodecGeometry(dim, bits);
    }
  }
}

// The BMI2 path must be pinned off under a forced scalar tier, and the
// scalar reference must match it when it is on.
TEST(CodecIsaParityTest, Bmi2GateFollowsActiveTier) {
  ScopedIsa guard;
  for (Isa isa : SupportedIsas()) {
    SetActiveIsa(isa);
    ZOrderCodec codec(8, 16);
    if (isa != Isa::kAvx2 || !HostCpuFeatures().bmi2) {
      EXPECT_FALSE(codec.uses_bmi2()) << IsaName(isa);
    }
  }
}

// The whole pipeline must return the identical skyline under every
// dispatch tier (codec words, tree shapes and kernel answers all shift,
// the result may not). Also covers the batched SZB filter toggle.
TEST(ExecutorIsaInvarianceTest, SkylineIdenticalAcrossTiersAndFilterModes) {
  ScopedIsa guard;
  const PointSet points = GenerateQuantized(Distribution::kAnticorrelated,
                                            20000, 8, 42, Quantizer(16));
  ExecutorOptions options;
  options.partitioning = PartitioningScheme::kZdg;
  options.local = LocalAlgorithm::kZSearch;
  options.merge = MergeAlgorithm::kZMerge;
  options.num_groups = 4;
  options.num_map_tasks = 8;
  options.num_threads = 2;
  options.bits = 16;

  SetActiveIsa(Isa::kScalar);
  options.batch_szb_filter = false;
  const SkylineIndices reference =
      ParallelSkylineExecutor(options).Execute(points).skyline;
  ASSERT_FALSE(reference.empty());

  for (Isa isa : SupportedIsas()) {
    SetActiveIsa(isa);
    for (bool batch : {false, true}) {
      options.batch_szb_filter = batch;
      const SkylineIndices skyline =
          ParallelSkylineExecutor(options).Execute(points).skyline;
      EXPECT_EQ(skyline, reference)
          << IsaName(isa) << " batch_szb_filter=" << batch;
    }
  }
}

// Oversized sample skylines split the batched filter into block + rest
// tree; force that split with a tiny workload by checking the toggle on a
// high-dim anticorrelated set (large skyline fraction).
TEST(ExecutorIsaInvarianceTest, BatchedFilterSplitMatchesTreeWalk) {
  const PointSet points = GenerateQuantized(Distribution::kAnticorrelated,
                                            6000, 10, 7, Quantizer(16));
  ExecutorOptions options;
  options.num_groups = 4;
  options.num_map_tasks = 4;
  options.num_threads = 2;
  options.bits = 16;
  options.sample_ratio = 0.5;  // Big sample -> sample skyline > block cap.
  options.batch_szb_filter = true;
  const SkylineIndices batched =
      ParallelSkylineExecutor(options).Execute(points).skyline;
  options.batch_szb_filter = false;
  const SkylineIndices walked =
      ParallelSkylineExecutor(options).Execute(points).skyline;
  EXPECT_EQ(batched, walked);
}

}  // namespace
}  // namespace zsky
