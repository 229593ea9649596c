// Tests of the benchmark's statistics helpers. Exits non-zero on the first
// failed check; prints "stats_test OK" when every check passes.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int g_checks = 0;

#define CHECK(cond)                                                        \
  do {                                                                     \
    ++g_checks;                                                            \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, \
                   #cond);                                                 \
      std::exit(1);                                                        \
    }                                                                      \
  } while (0)

using perfbench::Interval;

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void TestPercentileRank() {
  // Nearest rank: p50 of 1..10 is 5, p90 is 9, p100 is 10, p0 clamps to 1.
  const std::vector<double> v = Iota(10);
  CHECK(perfbench::PercentileOfSorted(v, 50) == 5);
  CHECK(perfbench::PercentileOfSorted(v, 90) == 9);
  CHECK(perfbench::PercentileOfSorted(v, 100) == 10);
  CHECK(perfbench::PercentileOfSorted(v, 0) == 1);
  CHECK(perfbench::PercentileOfSorted({}, 50) == 0);
  CHECK(perfbench::SamplesBeyond(10, 50) == 5);
  CHECK(perfbench::SamplesBeyond(0, 50) == 0);
}

void TestPickTailPercentile() {
  // Too small for any percentile: fewer than 10 samples beyond the median.
  perfbench::PickedPercentile picked = perfbench::PickTailPercentile(Iota(19));
  CHECK(picked.p == 0);
  CHECK(picked.count == 19);

  // 20 samples: exactly 10 beyond p50, so p50 is the highest supported.
  picked = perfbench::PickTailPercentile(Iota(20));
  CHECK(picked.p == 50);
  CHECK(picked.value == 10);
  CHECK(picked.beyond == 10);

  // 100 samples: p90 leaves 10 beyond it, p99 only 1.
  picked = perfbench::PickTailPercentile(Iota(100));
  CHECK(picked.p == 90);
  CHECK(picked.value == 90);
  CHECK(picked.beyond == 10);

  // 1000 samples: p99 has rank 990, leaving exactly 10 beyond.
  picked = perfbench::PickTailPercentile(Iota(1000));
  CHECK(picked.p == 99);
  CHECK(picked.value == 990);
  CHECK(picked.beyond == 10);
  CHECK(picked.count == 1000);
  // 999 samples: p99 leaves only 9, so the picker falls back to p90.
  CHECK(perfbench::PickTailPercentile(Iota(999)).p == 90);

  // 100000 samples: p99.99 leaves 10 beyond, p99.999 leaves none.
  picked = perfbench::PickTailPercentile(Iota(100000));
  CHECK(picked.p == 99.99);
  CHECK(picked.value == 99990);
}

void TestMedian() {
  CHECK(perfbench::Median({}) == 0);
  CHECK(perfbench::Median({3, 1, 2}) == 2);
  CHECK(perfbench::Median({4, 1, 3, 2}) == 2.5);
}

void TestUnionAndOverlap() {
  CHECK(perfbench::UnionLength({}) == 0);
  // Overlapping, nested, touching and empty intervals.
  CHECK(perfbench::UnionLength({{0, 10}, {5, 15}, {6, 7}, {15, 20}, {30, 30}}) == 20);
  CHECK(perfbench::UnionLength({{40, 50}, {0, 10}}) == 20);

  const auto a = perfbench::MergeIntervals({{0, 10}, {20, 30}});
  const auto b = perfbench::MergeIntervals({{5, 25}});
  CHECK(perfbench::OverlapLength(a, b) == 10);
  CHECK(perfbench::OverlapLength(a, {}) == 0);
  CHECK(perfbench::OverlapLength(a, a) == 20);
}

void TestSelfTime() {
  const Interval parent{100, 200};
  // No children: all of the span is self time.
  CHECK(perfbench::SelfTime(parent, {}) == 100);
  // Disjoint children are subtracted.
  CHECK(perfbench::SelfTime(parent, {{110, 120}, {150, 170}}) == 70);
  // Overlapping and nested children count once.
  CHECK(perfbench::SelfTime(parent, {{110, 140}, {120, 150}, {125, 130}}) == 60);
  // Children reaching outside the parent are clipped to it.
  CHECK(perfbench::SelfTime(parent, {{50, 110}, {190, 260}}) == 80);
  // Children entirely outside contribute nothing.
  CHECK(perfbench::SelfTime(parent, {{0, 50}, {300, 400}}) == 100);
  // A child covering the parent leaves no self time.
  CHECK(perfbench::SelfTime(parent, {{0, 400}}) == 0);
}

}  // namespace

int main() {
  TestPercentileRank();
  TestPickTailPercentile();
  TestMedian();
  TestUnionAndOverlap();
  TestSelfTime();
  std::printf("stats_test OK (%d checks)\n", g_checks);
  return 0;
}
