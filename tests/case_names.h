#ifndef ZSKY_TESTS_CASE_NAMES_H_
#define ZSKY_TESTS_CASE_NAMES_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "gen/synthetic.h"

namespace zsky {

// Stable names for the seeded random-input suites. Without a name
// generator gtest names a case by its index, and CMake's test discovery
// puts the printed parameter into the CTest ID — for a plain struct its
// raw bytes, uninitialized padding included — so the IDs differ from one
// build to the next. Each such suite's parameter type defines CaseName()
// (its gtest name, built with SeededCaseName) and a PrintTo() printing the
// same string, and instantiates with CaseNameGenerator.
inline std::string SeededCaseName(Distribution distribution, size_t n,
                                  uint32_t dim, uint64_t seed,
                                  const std::string& extra = "") {
  return std::string(DistributionName(distribution)) + "_n" +
         std::to_string(n) + "_d" + std::to_string(dim) + extra + "_s" +
         std::to_string(seed);
}

// gtest name generator for any parameter type with an ADL-visible
// CaseName().
struct CaseNameGenerator {
  template <typename Param>
  std::string operator()(const ::testing::TestParamInfo<Param>& info) const {
    return CaseName(info.param);
  }
};

}  // namespace zsky

#endif  // ZSKY_TESTS_CASE_NAMES_H_
