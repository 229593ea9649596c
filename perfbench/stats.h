// Statistics helpers of the checkpoint benchmark: percentile picking with
// the sample counts behind each figure, and interval arithmetic over timing
// spans (union length, overlap, self time).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Tail percentiles the benchmark may report, lowest first.
inline constexpr double kPercentileLadder[] = {50.0, 90.0, 99.0, 99.9, 99.99, 99.999};

/// A percentile needs at least this many samples strictly above it.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank index of percentile p in a sorted sample of size n (n > 0).
inline size_t PercentileRank(size_t n, double p) {
  // The epsilon keeps exact ranks (p99.99 of 100000) from rounding up.
  const double rank = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-7);
  return std::min(n - 1, static_cast<size_t>(std::max(rank, 1.0)) - 1);
}

/// Samples strictly beyond the nearest-rank position of percentile p.
inline size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - 1 - PercentileRank(n, p);
}

/// True when the sample has at least kMinSamplesBeyond samples beyond p.
inline bool PercentileSupported(size_t n, double p) {
  return SamplesBeyond(n, p) >= kMinSamplesBeyond;
}

/// Nearest-rank percentile of an ascending sample (0 for an empty one).
inline double PercentileOfSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[PercentileRank(sorted.size(), p)];
}

struct PickedPercentile {
  double p = 0;        // percentile picked (0 when the sample is too small)
  double value = 0;    // its value
  size_t count = 0;    // sample size
  size_t beyond = 0;   // samples strictly above the picked value's rank
};

/// The highest ladder percentile that has at least kMinSamplesBeyond
/// samples beyond it. `sorted` must be ascending.
inline PickedPercentile PickTailPercentile(const std::vector<double>& sorted) {
  PickedPercentile picked;
  picked.count = sorted.size();
  for (const double p : kPercentileLadder) {
    if (!PercentileSupported(sorted.size(), p)) break;
    picked.p = p;
    picked.value = PercentileOfSorted(sorted, p);
    picked.beyond = SamplesBeyond(sorted.size(), p);
  }
  return picked;
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

/// Half-open time interval [begin, end) in nanoseconds.
struct Interval {
  int64_t begin = 0;
  int64_t end = 0;
};

/// Sorts and merges overlapping or touching intervals; drops empty ones.
inline std::vector<Interval> MergeIntervals(std::vector<Interval> intervals) {
  std::erase_if(intervals, [](const Interval& i) { return i.end <= i.begin; });
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  std::vector<Interval> merged;
  for (const Interval& i : intervals) {
    if (!merged.empty() && i.begin <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, i.end);
    } else {
      merged.push_back(i);
    }
  }
  return merged;
}

/// Length of the union of the intervals.
inline int64_t UnionLength(std::vector<Interval> intervals) {
  int64_t total = 0;
  for (const Interval& i : MergeIntervals(std::move(intervals))) total += i.end - i.begin;
  return total;
}

/// Length of the intersection of two merged (sorted, disjoint) interval sets.
inline int64_t OverlapLength(const std::vector<Interval>& a, const std::vector<Interval>& b) {
  int64_t total = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const int64_t lo = std::max(a[i].begin, b[j].begin);
    const int64_t hi = std::min(a[i].end, b[j].end);
    if (hi > lo) total += hi - lo;
    if (a[i].end < b[j].end) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

/// Self time of a span: its duration minus the union of its children,
/// each clipped to the parent (children may nest or overlap each other).
inline int64_t SelfTime(const Interval& parent, const std::vector<Interval>& children) {
  std::vector<Interval> clipped;
  clipped.reserve(children.size());
  for (const Interval& c : children) {
    clipped.push_back({std::max(c.begin, parent.begin), std::min(c.end, parent.end)});
  }
  return std::max<int64_t>(0, parent.end - parent.begin) - UnionLength(std::move(clipped));
}

}  // namespace perfbench
