#ifndef ZSKYBENCH_OPTRACE_H_
#define ZSKYBENCH_OPTRACE_H_

// Seeded op traces for serve-write, plus the seed draws every workload
// uses (data, batch sampling seeds). Every op is a pure function of
// (seed, op index), so a trace replays identically across runs and
// machines, and its hash identifies it in the provenance. The mix is
// stratified: each block of ops holds the exact kind counts of the mix in
// a seeded order, so every prefix a timed run gets through carries the
// mix's ratios to within one block (a run's median cannot flip between
// op kinds because one run happened to draw more of them).

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/point_set.h"
#include "common/query_desc.h"

namespace zskybench {

// Counter-based RNG: splitmix64 finalizer over (seed, stream, index).
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
inline uint64_t Draw(uint64_t seed, uint64_t stream, uint64_t index) {
  return Mix64(Mix64(Mix64(seed) ^ stream) ^ index);
}
inline double DrawUnit(uint64_t seed, uint64_t stream, uint64_t index) {
  return static_cast<double>(Draw(seed, stream, index) >> 11) * 0x1.0p-53;
}

// Streams: independent draws for each use of the seed.
enum Stream : uint64_t {
  kStreamData = 1,
  kStreamReadKind = 2,
  kStreamReadVariant = 3,
  kStreamWriteKind = 4,
  kStreamWriteArg = 5,
  kStreamBoxes = 6,
  kStreamSample = 7,  // Batch queries' sampling seeds.
};

enum class ReadKind : uint8_t { kDefault, kBox };
std::string_view ReadKindName(ReadKind kind);

struct ReadOp {
  ReadKind kind = ReadKind::kDefault;
  uint32_t variant = 0;  // Box placement index.
};

// serve-write readers: per block of kReadBlock reads, kReadBoxesPerBlock
// box queries and default queries for the rest (95% default, 5% box).
inline constexpr uint32_t kReadBlock = 20;
inline constexpr uint32_t kReadBoxesPerBlock = 1;

inline constexpr uint32_t kBoxPlacements = 32;
// Share of the domain each box placement covers.
inline constexpr double kBoxVolume = 0.10;

ReadOp ReadTraceOp(uint64_t seed, uint64_t index);

enum class WriteKind : uint8_t { kInsert, kDelete };
std::string_view WriteKindName(WriteKind kind);

struct WriteOp {
  WriteKind kind = WriteKind::kInsert;
  // Insert: seed of the batch's rows. Delete: a draw whose value modulo
  // the alive row count picks the victim among the alive ids.
  uint64_t arg = 0;
};

// serve-write writer: 4 insert batches per single-id delete.
inline constexpr uint32_t kWriteBlock = 5;
inline constexpr uint32_t kWriteDeletesPerBlock = 1;
inline constexpr uint32_t kInsertBatchRows = 64;

WriteOp WriteTraceOp(uint64_t seed, uint64_t index);

// FNV-1a hashes of the first `ops` ops of a trace.
uint64_t ReadTraceHash(uint64_t seed, uint64_t ops);
uint64_t WriteTraceHash(uint64_t seed, uint64_t ops);

// The seeded query shapes the read traces index into, over kDim
// dimensions of kBits bits: box placements of kBoxVolume of the domain
// (the same side length in every dimension, seeded corners).
struct ServeShapes {
  std::vector<zsky::QueryDesc> boxes;
};
ServeShapes MakeServeShapes(uint64_t seed);

// The desc a read op issues (default desc for kDefault).
zsky::QueryDesc DescFor(const ServeShapes& shapes, const ReadOp& op);

// Dense id of the op's desc among all descs the shapes can produce:
// 0 = default, 1 + placement for boxes.
uint32_t DescId(const ReadOp& op);

}  // namespace zskybench

#endif  // ZSKYBENCH_OPTRACE_H_
