#include "core/options.h"

namespace zsky {

namespace {

// Inverse of a ...Name function over every value of its enum.
template <typename Enum, size_t N>
std::optional<Enum> FromName(std::string_view name, const Enum (&values)[N],
                             std::string_view (*name_of)(Enum)) {
  for (const Enum value : values) {
    if (name_of(value) == name) return value;
  }
  return std::nullopt;
}

}  // namespace

std::string_view PartitioningSchemeName(PartitioningScheme s) {
  switch (s) {
    case PartitioningScheme::kRandom:
      return "random";
    case PartitioningScheme::kGrid:
      return "grid";
    case PartitioningScheme::kAngle:
      return "angle";
    case PartitioningScheme::kQuadTree:
      return "quadtree";
    case PartitioningScheme::kNaiveZ:
      return "naive-z";
    case PartitioningScheme::kZhg:
      return "zhg";
    case PartitioningScheme::kZdg:
      return "zdg";
  }
  return "unknown";
}

std::string_view LocalAlgorithmName(LocalAlgorithm a) {
  switch (a) {
    case LocalAlgorithm::kSortBased:
      return "sb";
    case LocalAlgorithm::kZSearch:
      return "zs";
    case LocalAlgorithm::kBbs:
      return "bbs";
  }
  return "unknown";
}

std::string_view MergeAlgorithmName(MergeAlgorithm m) {
  switch (m) {
    case MergeAlgorithm::kSortBased:
      return "sb";
    case MergeAlgorithm::kZSearch:
      return "zs";
    case MergeAlgorithm::kZMerge:
      return "zm";
    case MergeAlgorithm::kParallelZMerge:
      return "pzm";
  }
  return "unknown";
}

std::optional<PartitioningScheme> PartitioningSchemeFromName(
    std::string_view name) {
  constexpr PartitioningScheme kAll[] = {
      PartitioningScheme::kRandom, PartitioningScheme::kGrid,
      PartitioningScheme::kAngle,  PartitioningScheme::kQuadTree,
      PartitioningScheme::kNaiveZ, PartitioningScheme::kZhg,
      PartitioningScheme::kZdg};
  return FromName(name, kAll, PartitioningSchemeName);
}

std::optional<LocalAlgorithm> LocalAlgorithmFromName(std::string_view name) {
  constexpr LocalAlgorithm kAll[] = {LocalAlgorithm::kSortBased,
                                     LocalAlgorithm::kZSearch,
                                     LocalAlgorithm::kBbs};
  return FromName(name, kAll, LocalAlgorithmName);
}

std::optional<MergeAlgorithm> MergeAlgorithmFromName(std::string_view name) {
  constexpr MergeAlgorithm kAll[] = {
      MergeAlgorithm::kSortBased, MergeAlgorithm::kZSearch,
      MergeAlgorithm::kZMerge, MergeAlgorithm::kParallelZMerge};
  return FromName(name, kAll, MergeAlgorithmName);
}

std::string ExecutorOptions::Label() const {
  std::string label(PartitioningSchemeName(partitioning));
  label += '+';
  label += LocalAlgorithmName(local);
  label += '+';
  label += MergeAlgorithmName(merge);
  return label;
}

}  // namespace zsky
