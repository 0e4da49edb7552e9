#include "optrace.h"

#include <algorithm>
#include <cmath>

#include "harness.h"

namespace zskybench {
namespace {

// Seeded order of the kinds inside block `block` of a stratified mix:
// `counts[k]` slots of kind k, Fisher-Yates shuffled by the block's draws.
template <typename Kind>
Kind BlockSlot(uint64_t seed, uint64_t stream, uint64_t block,
               std::vector<Kind> slots, uint64_t slot) {
  for (size_t i = slots.size(); i > 1; --i) {
    const size_t j = Draw(seed, stream, block * 64 + i) % i;
    std::swap(slots[i - 1], slots[j]);
  }
  return slots[slot];
}

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

}  // namespace

std::string_view ReadKindName(ReadKind kind) {
  switch (kind) {
    case ReadKind::kDefault:
      return "default";
    case ReadKind::kBox:
      return "box";
  }
  return "?";
}

std::string_view WriteKindName(WriteKind kind) {
  return kind == WriteKind::kInsert ? "insert" : "delete";
}

ReadOp ReadTraceOp(uint64_t seed, uint64_t index) {
  std::vector<ReadKind> slots(kReadBlock, ReadKind::kDefault);
  std::fill_n(slots.begin(), kReadBoxesPerBlock, ReadKind::kBox);
  ReadOp op;
  op.kind = BlockSlot(seed, kStreamReadKind, index / kReadBlock,
                      std::move(slots), index % kReadBlock);
  if (op.kind == ReadKind::kBox) {
    op.variant = Draw(seed, kStreamReadVariant, index) % kBoxPlacements;
  }
  return op;
}

WriteOp WriteTraceOp(uint64_t seed, uint64_t index) {
  std::vector<WriteKind> slots(kWriteBlock, WriteKind::kInsert);
  std::fill_n(slots.begin(), kWriteDeletesPerBlock, WriteKind::kDelete);
  WriteOp op;
  op.kind = BlockSlot(seed, kStreamWriteKind, index / kWriteBlock,
                      std::move(slots), index % kWriteBlock);
  op.arg = Draw(seed, kStreamWriteArg, index);
  return op;
}

uint64_t ReadTraceHash(uint64_t seed, uint64_t ops) {
  uint64_t h = kFnvBasis;
  for (uint64_t i = 0; i < ops; ++i) {
    const ReadOp op = ReadTraceOp(seed, i);
    h = Fnv1a(h, (static_cast<uint64_t>(op.kind) << 32) | op.variant);
  }
  return h;
}

uint64_t WriteTraceHash(uint64_t seed, uint64_t ops) {
  uint64_t h = kFnvBasis;
  for (uint64_t i = 0; i < ops; ++i) {
    const WriteOp op = WriteTraceOp(seed, i);
    h = Fnv1a(Fnv1a(h, static_cast<uint64_t>(op.kind)), op.arg);
  }
  return h;
}

ServeShapes MakeServeShapes(uint64_t seed) {
  constexpr zsky::Coord max_coord = (zsky::Coord{1} << kBits) - 1;
  const double side_frac = std::pow(kBoxVolume, 1.0 / kDim);
  const auto side = static_cast<zsky::Coord>(side_frac * max_coord);
  ServeShapes shapes;
  uint64_t draw = 0;
  for (uint32_t b = 0; b < kBoxPlacements; ++b) {
    zsky::QueryDesc desc;
    desc.box_lo.resize(kDim);
    desc.box_hi.resize(kDim);
    for (uint32_t d = 0; d < kDim; ++d) {
      const auto lo = static_cast<zsky::Coord>(
          DrawUnit(seed, kStreamBoxes, draw++) * (max_coord - side));
      desc.box_lo[d] = lo;
      desc.box_hi[d] = lo + side;
    }
    desc.Canonicalize();
    shapes.boxes.push_back(std::move(desc));
  }
  return shapes;
}

zsky::QueryDesc DescFor(const ServeShapes& shapes, const ReadOp& op) {
  switch (op.kind) {
    case ReadKind::kDefault:
      return {};
    case ReadKind::kBox:
      return shapes.boxes[op.variant];
  }
  return {};
}

uint32_t DescId(const ReadOp& op) {
  switch (op.kind) {
    case ReadKind::kDefault:
      return 0;
    case ReadKind::kBox:
      return 1 + op.variant;
  }
  return 0;
}

}  // namespace zskybench
