#include "candidate/features.h"

#include "common/error.h"

namespace sybiltd::candidate {

namespace {
inline double sq(double v) { return v * v; }
}  // namespace

SeriesProfile profile_of(std::span<const double> series) {
  SeriesProfile p;
  p.length = series.size();
  if (series.empty()) return p;
  p.first = series.front();
  p.last = series.back();
  for (double v : series) {
    if (v < p.lo) p.lo = v;
    if (v > p.hi) p.hi = v;
  }
  return p;
}

void SeriesTable::append(std::span<const double> task_series,
                         std::span<const double> time_series) {
  SYBILTD_CHECK(task_series.size() == time_series.size(),
                "task and timestamp series differ in length");
  task.insert(task.end(), task_series.begin(), task_series.end());
  time.insert(time.end(), time_series.begin(), time_series.end());
  offset.push_back(task.size());
}

std::vector<TrajectoryFingerprint> fingerprints_of(const SeriesTable& series) {
  std::vector<TrajectoryFingerprint> fps(series.accounts());
  for (std::size_t i = 0; i < fps.size(); ++i) {
    fps[i].task = profile_of(series.task_of(i));
    fps[i].time = profile_of(series.time_of(i));
  }
  return fps;
}

double envelope_bound(std::span<const double> query,
                      const SeriesProfile& candidate) {
  double bound = 0.0;
  for (double v : query) {
    if (v > candidate.hi) {
      bound += sq(v - candidate.hi);
    } else if (v < candidate.lo) {
      bound += sq(candidate.lo - v);
    }
  }
  return bound;
}

}  // namespace sybiltd::candidate
