// Build-type guard: the optimized build types must really be optimized.
//
// CMake leaves a custom build type's flags empty when the type is named on
// the command line, so `-DCMAKE_BUILD_TYPE=RelWithAssert` once compiled the
// whole tree at -O0 without any visible sign. This suite is compiled with
// the same per-configuration flags as the libraries and checks what the
// compiler actually saw.
#include <gtest/gtest.h>

#include <string>

namespace {

const std::string kBuildType = AVMON_BUILD_TYPE;

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#ifdef NDEBUG
constexpr bool kAssertionsOn = false;
#else
constexpr bool kAssertionsOn = true;
#endif

TEST(BuildFlagsTest, OptimizedBuildTypesAreOptimized) {
  if (kBuildType != "RelWithAssert" && kBuildType != "Release") {
    GTEST_SKIP() << "no optimization contract for build type '" << kBuildType
                 << "'";
  }
  EXPECT_TRUE(kOptimized) << kBuildType
                          << " build compiled without optimization";
}

TEST(BuildFlagsTest, RelWithAssertKeepsAssertions) {
  if (kBuildType != "RelWithAssert") {
    GTEST_SKIP() << "build type '" << kBuildType << "'";
  }
  EXPECT_TRUE(kAssertionsOn) << "RelWithAssert build defines NDEBUG";
}

}  // namespace
