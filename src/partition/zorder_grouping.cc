#include "partition/zorder_grouping.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "algo/sort_based.h"
#include "common/macros.h"
#include "partition/dominance_volume.h"

namespace zsky {

std::string_view GroupingStrategyName(GroupingStrategy s) {
  switch (s) {
    case GroupingStrategy::kNaiveZ:
      return "naive-z";
    case GroupingStrategy::kHeuristic:
      return "zhg";
    case GroupingStrategy::kDominance:
      return "zdg";
  }
  return "unknown";
}

ZOrderGroupedPartitioner::ZOrderGroupedPartitioner(const ZOrderCodec* codec,
                                                   const PointSet& sample,
                                                   const Options& options)
    : codec_(codec),
      options_(options),
      sorted_sample_(sample.dim()),
      sample_skyline_(sample.dim()) {
  ZSKY_CHECK(codec != nullptr);
  ZSKY_CHECK(!sample.empty());
  ZSKY_CHECK(options.num_groups >= 1);
  ZSKY_CHECK(options.expansion >= 1);

  // Z-sort the sample.
  const size_t n = sample.size();
  std::vector<ZAddress> addresses = codec_->EncodeAll(sample);
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return addresses[a] < addresses[b];
  });
  sorted_sample_.Reserve(n);
  sorted_addresses_.reserve(n);
  for (uint32_t src : perm) {
    sorted_sample_.AppendFrom(sample, src);
    sorted_addresses_.push_back(std::move(addresses[src]));
  }

  // Sample skyline (computeSkyline of Algorithms 1/2).
  std::vector<uint8_t> skyline_flags(n, 0);
  for (uint32_t idx : SortBasedSkyline(sorted_sample_)) {
    skyline_flags[idx] = 1;
    sample_skyline_.AppendFrom(sorted_sample_, idx);
  }
  const uint32_t total_skyline =
      static_cast<uint32_t>(sample_skyline_.size());

  // Initial equal-count cuts.
  const bool grouped = options_.strategy != GroupingStrategy::kNaiveZ;
  const size_t target_parts =
      std::min<size_t>(n, grouped ? static_cast<size_t>(options_.num_groups) *
                                        options_.expansion
                                  : options_.num_groups);
  std::vector<size_t> cuts{0};
  for (size_t j = 1; j < target_parts; ++j) {
    size_t pos = j * n / target_parts;
    // Align the cut with the start of a duplicate-address run so that a
    // partition boundary is a well-defined address.
    while (pos > 0 && sorted_addresses_[pos - 1] == sorted_addresses_[pos]) {
      --pos;
    }
    if (pos > cuts.back()) cuts.push_back(pos);
  }

  std::vector<Part> parts;
  BuildParts(cuts, skyline_flags, parts);

  if (grouped) {
    const uint32_t cap =
        std::max<uint32_t>(1, (total_skyline + options_.num_groups - 1) /
                                  options_.num_groups);
    RedistributeBySkyline(cap, skyline_flags, parts);
    // Recompute skyline counts after splitting.
    for (auto& part : parts) {
      part.skyline_count = 0;
      for (size_t i = part.begin; i < part.end; ++i) {
        part.skyline_count += skyline_flags[i];
      }
    }
  }

  std::vector<RZRegion> regions = ComputeRegions(parts);

  switch (options_.strategy) {
    case GroupingStrategy::kNaiveZ: {
      for (size_t i = 0; i < parts.size(); ++i) {
        parts[i].group = static_cast<int32_t>(i);
      }
      break;
    }
    case GroupingStrategy::kHeuristic: {
      GroupHeuristic(parts);
      break;
    }
    case GroupingStrategy::kDominance: {
      GroupDominance(parts, regions);
      break;
    }
  }

  Finalize(parts, std::move(regions));
}

void ZOrderGroupedPartitioner::BuildParts(
    const std::vector<size_t>& cuts, const std::vector<uint8_t>& skyline_flags,
    std::vector<Part>& parts) const {
  const size_t n = sorted_sample_.size();
  parts.clear();
  parts.reserve(cuts.size());
  for (size_t k = 0; k < cuts.size(); ++k) {
    Part part;
    part.begin = cuts[k];
    part.end = (k + 1 < cuts.size()) ? cuts[k + 1] : n;
    for (size_t i = part.begin; i < part.end; ++i) {
      part.skyline_count += skyline_flags[i];
    }
    parts.push_back(part);
  }
}

void ZOrderGroupedPartitioner::RedistributeBySkyline(
    uint32_t cap, const std::vector<uint8_t>& skyline_flags,
    std::vector<Part>& parts) const {
  std::vector<Part> out;
  out.reserve(parts.size());
  for (const Part& part : parts) {
    if (part.skyline_count <= cap) {
      out.push_back(part);
      continue;
    }
    // Split at every cap-th skyline point (procedure redistribute()).
    std::vector<size_t> splits;
    uint32_t seen = 0;
    for (size_t idx = part.begin; idx < part.end; ++idx) {
      if (!skyline_flags[idx]) continue;
      if (seen > 0 && seen % cap == 0) {
        size_t pos = idx;
        while (pos > 0 &&
               sorted_addresses_[pos - 1] == sorted_addresses_[pos]) {
          --pos;
        }
        if (pos > part.begin && (splits.empty() || pos > splits.back())) {
          splits.push_back(pos);
        }
      }
      ++seen;
    }
    size_t begin = part.begin;
    for (size_t split : splits) {
      Part piece;
      piece.begin = begin;
      piece.end = split;
      out.push_back(piece);
      begin = split;
    }
    Part last;
    last.begin = begin;
    last.end = part.end;
    out.push_back(last);
  }
  parts = std::move(out);
}

ZAddress ZOrderGroupedPartitioner::PartLowerAddress(const Part& part) const {
  return part.begin == 0 ? codec_->MinAddress()
                         : sorted_addresses_[part.begin];
}

std::vector<RZRegion> ZOrderGroupedPartitioner::ComputeRegions(
    const std::vector<Part>& parts) const {
  std::vector<RZRegion> regions;
  regions.reserve(parts.size());
  for (size_t i = 0; i < parts.size(); ++i) {
    const ZAddress lo = PartLowerAddress(parts[i]);
    const ZAddress hi = (i + 1 < parts.size())
                            ? PartLowerAddress(parts[i + 1]).Predecessor()
                            : codec_->MaxAddress();
    regions.push_back(RZRegion::FromAddresses(*codec_, lo, hi));
  }
  return regions;
}

void ZOrderGroupedPartitioner::GroupHeuristic(std::vector<Part>& parts) const {
  // Algorithm 1: sort by skyline count descending, then greedily fill
  // groups subject to skyline-count and point-count upper bounds.
  std::vector<size_t> order(parts.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (parts[a].skyline_count != parts[b].skyline_count) {
      return parts[a].skyline_count > parts[b].skyline_count;
    }
    return a < b;
  });

  uint64_t total_sky = 0;
  uint64_t total_n = 0;
  for (const Part& part : parts) {
    total_sky += part.skyline_count;
    total_n += part.end - part.begin;
  }
  const uint32_t m = options_.num_groups;
  const uint64_t scons = std::max<uint64_t>(1, (total_sky + m - 1) / m);
  const uint64_t tcons = std::max<uint64_t>(1, (total_n + m - 1) / m);

  // Sequential fill, capped at exactly m groups: a new group opens when
  // either bound would be exceeded; once all m groups exist, leftovers go
  // to the currently lightest group (keeps sizes balanced).
  std::vector<uint64_t> group_sky(m, 0);
  std::vector<uint64_t> group_n(m, 0);
  uint32_t group = 0;
  for (size_t idx : order) {
    const uint64_t sky = parts[idx].skyline_count;
    const uint64_t cnt = parts[idx].end - parts[idx].begin;
    if (group_n[group] > 0 && (group_sky[group] + sky > scons ||
                               group_n[group] + cnt > tcons)) {
      if (group + 1 < m) {
        ++group;
      } else {
        // All groups open: place into the lightest one.
        group = static_cast<uint32_t>(
            std::min_element(group_n.begin(), group_n.end()) -
            group_n.begin());
      }
    }
    parts[idx].group = static_cast<int32_t>(group);
    group_sky[group] += sky;
    group_n[group] += cnt;
  }
}

void ZOrderGroupedPartitioner::GroupDominance(
    std::vector<Part>& parts, const std::vector<RZRegion>& regions) {
  const size_t p = parts.size();

  // redistribute() also removes fully dominated partitions: a partition
  // whose RZ-region is dominated by another (non-empty) partition's region
  // cannot contain skyline points.
  for (size_t j = 0; j < p; ++j) {
    for (size_t i = 0; i < p; ++i) {
      if (i == j) continue;
      if (regions[i].DominatesRegion(regions[j])) {
        parts[j].pruned = true;
        break;
      }
    }
  }

  std::vector<size_t> alive;
  for (size_t i = 0; i < p; ++i) {
    if (!parts[i].pruned) alive.push_back(i);
  }
  ZSKY_CHECK(!alive.empty());

  // Dominance matrix + power over the surviving partitions.
  std::vector<RZRegion> alive_regions;
  alive_regions.reserve(alive.size());
  for (size_t i : alive) alive_regions.push_back(regions[i]);
  const std::vector<double> dm = DominanceMatrix(alive_regions,
                                                 codec_->bits());
  const std::vector<double> power = DominancePower(dm, alive.size());

  uint64_t total_sky = 0;
  uint64_t total_n = 0;
  for (size_t i : alive) {
    total_sky += parts[i].skyline_count;
    total_n += parts[i].end - parts[i].begin;
  }
  const uint32_t m = options_.num_groups;
  const uint64_t scons = std::max<uint64_t>(1, (total_sky + m - 1) / m);
  const uint64_t tcons = std::max<uint64_t>(1, (total_n + m - 1) / m);

  // Greedy grouping, capped at exactly m groups. Each group is seeded,
  // then extended by maxDominate() while both bounds hold; leftovers
  // after all m groups are full go to the lightest group.
  std::vector<uint8_t> assigned(alive.size(), 0);
  size_t num_assigned = 0;
  std::vector<uint64_t> group_sky;
  std::vector<uint64_t> group_n;
  std::vector<std::vector<size_t>> group_members;

  // maxDominate(): the unassigned partition with the largest total
  // dominance volume against the group's members. When no unassigned
  // partition has positive volume (common once the few dominating pairs
  // are consumed), fall back to Z-curve adjacency: the partition closest
  // to a member keeps the group contiguous, preserving the locality-based
  // pruning of plain Z-partitioning.
  // A dominance volume only overrides contiguity when it is substantial
  // relative to the average partition footprint (1/alive of the space):
  // tiny corner volumes predict negligible pruning and would fragment
  // groups for nothing.
  const double volume_floor = 0.05 / static_cast<double>(alive.size());
  auto max_dominate = [&](const std::vector<size_t>& members) {
    size_t best = alive.size();
    double best_volume = volume_floor;
    for (size_t ord = 0; ord < alive.size(); ++ord) {
      if (assigned[ord]) continue;
      double volume = 0.0;
      for (size_t member : members) {
        volume += dm[ord * alive.size() + member];
      }
      if (volume > best_volume) {
        best_volume = volume;
        best = ord;
      }
    }
    if (best == alive.size()) {
      size_t best_distance = std::numeric_limits<size_t>::max();
      for (size_t ord = 0; ord < alive.size(); ++ord) {
        if (assigned[ord]) continue;
        for (size_t member : members) {
          const size_t a = alive[ord];
          const size_t b = alive[member];
          const size_t distance = a > b ? a - b : b - a;
          if (distance < best_distance) {
            best_distance = distance;
            best = ord;
          }
        }
      }
    }
    return best;
  };

  // Seed each group with the lowest unassigned Z-range. Contiguous seeding
  // makes the grouping degenerate to plain Z-partitioning when no
  // dominance signal exists, so ZDG never prunes worse than Naive-Z;
  // dominance attachments then add their pruning on top. (The paper seeds
  // by dominance power; on weak-signal distributions that fragments
  // groups, see DESIGN.md.)
  size_t seed_cursor = 0;
  while (num_assigned < alive.size() && group_members.size() < m) {
    while (assigned[seed_cursor]) ++seed_cursor;
    const size_t seed = seed_cursor;
    assigned[seed] = 1;
    ++num_assigned;
    group_members.push_back({seed});
    group_sky.push_back(parts[alive[seed]].skyline_count);
    group_n.push_back(parts[alive[seed]].end - parts[alive[seed]].begin);
    auto& members = group_members.back();

    while (num_assigned < alive.size()) {
      const size_t best = max_dominate(members);
      ZSKY_CHECK(best < alive.size());
      const uint64_t sky = parts[alive[best]].skyline_count;
      const uint64_t cnt = parts[alive[best]].end - parts[alive[best]].begin;
      if (group_sky.back() + sky > scons || group_n.back() + cnt > tcons) {
        break;
      }
      members.push_back(best);
      assigned[best] = 1;
      ++num_assigned;
      group_sky.back() += sky;
      group_n.back() += cnt;
    }
  }
  // Leftovers: keep contiguity by joining the nearest group in Z-order,
  // unless that group is already overloaded — then take the lightest one.
  std::vector<int32_t> group_of_ordinal(alive.size(), -1);
  for (size_t g = 0; g < group_members.size(); ++g) {
    for (size_t member : group_members[g]) {
      group_of_ordinal[member] = static_cast<int32_t>(g);
    }
  }
  for (size_t ord = 0; ord < alive.size(); ++ord) {
    if (assigned[ord]) continue;
    size_t g = group_members.size();
    // Nearest assigned neighbour in z-order.
    for (size_t step = 1; step < alive.size(); ++step) {
      if (ord >= step && group_of_ordinal[ord - step] >= 0) {
        g = static_cast<size_t>(group_of_ordinal[ord - step]);
        break;
      }
      if (ord + step < alive.size() && group_of_ordinal[ord + step] >= 0) {
        g = static_cast<size_t>(group_of_ordinal[ord + step]);
        break;
      }
    }
    const uint64_t cnt = parts[alive[ord]].end - parts[alive[ord]].begin;
    if (g == group_members.size() || 4 * (group_n[g] + cnt) > 5 * tcons) {
      g = static_cast<size_t>(
          std::min_element(group_n.begin(), group_n.end()) -
          group_n.begin());
    }
    group_members[g].push_back(ord);
    group_of_ordinal[ord] = static_cast<int32_t>(g);
    group_sky[g] += parts[alive[ord]].skyline_count;
    group_n[g] += cnt;
    assigned[ord] = 1;
    ++num_assigned;
  }
  ZSKY_CHECK(num_assigned == alive.size());
  for (size_t g = 0; g < group_members.size(); ++g) {
    for (size_t member : group_members[g]) {
      parts[alive[member]].group = static_cast<int32_t>(g);
    }
  }
}

void ZOrderGroupedPartitioner::Finalize(const std::vector<Part>& parts,
                                        std::vector<RZRegion> regions) {
  lowers_.clear();
  group_of_.clear();
  sample_counts_.clear();
  skyline_counts_.clear();
  int32_t max_group = -1;
  pruned_count_ = 0;
  for (const Part& part : parts) {
    lowers_.push_back(PartLowerAddress(part));
    group_of_.push_back(part.pruned ? kDroppedGroup : part.group);
    sample_counts_.push_back(static_cast<uint32_t>(part.end - part.begin));
    skyline_counts_.push_back(part.skyline_count);
    if (part.pruned) {
      ++pruned_count_;
    } else {
      max_group = std::max(max_group, part.group);
    }
  }
  regions_ = std::move(regions);
  num_groups_ = static_cast<uint32_t>(max_group + 1);
  ZSKY_CHECK(num_groups_ >= 1);
}

int32_t ZOrderGroupedPartitioner::GroupOfAddress(const ZAddress& z) const {
  auto it = std::upper_bound(lowers_.begin(), lowers_.end(), z);
  ZSKY_DCHECK(it != lowers_.begin());
  const size_t idx = static_cast<size_t>(it - lowers_.begin()) - 1;
  return group_of_[idx];
}

size_t ZOrderGroupedPartitioner::PartitionOf(std::span<const Coord> p) const {
  // Allocation-free hot path: encode into a reused scratch buffer and
  // binary-search the partition lower bounds.
  thread_local std::vector<uint64_t> scratch;
  scratch.resize(codec_->num_words());
  codec_->EncodeTo(p, scratch);
  auto less_than_scratch_exclusive = [&](const ZAddress& lower) {
    // true iff scratch < lower (lower is strictly greater).
    const auto words = lower.words();
    for (size_t i = 0; i < words.size(); ++i) {
      if (scratch[i] != words[i]) return scratch[i] < words[i];
    }
    return false;
  };
  size_t lo = 0;
  size_t hi = lowers_.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (less_than_scratch_exclusive(lowers_[mid])) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  ZSKY_DCHECK(lo >= 1);
  return lo - 1;
}

int32_t ZOrderGroupedPartitioner::GroupOf(std::span<const Coord> p) const {
  return group_of_[PartitionOf(p)];
}

}  // namespace zsky
