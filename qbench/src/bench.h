// Shared pieces of the qbench benchmark: clocks, order statistics and the
// result of one loaded run.
#ifndef QBENCH_BENCH_H_
#define QBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace qbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}
inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Nearest-rank quantile q in [0,1] of `values` (0 when empty).
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMib();

/// Windows a measured run is cut into; each end-to-end metric is the median
/// of its per-window values, which keeps a short stall from moving it.
constexpr size_t kWindows = 10;

/// Tallies of one time window of a loaded run. Latencies are microseconds.
struct Window {
  uint64_t validated = 0;  ///< requests completed and validated
  uint64_t sessions = 0;   ///< sessions replayed to close and validated
  std::vector<double> first_question_us;
  std::vector<double> ask_us;
  std::vector<double> tell_us;
};

/// What one closed-loop loaded run measured. The golden workload cuts the
/// run into equal time windows, each event counted in the window it
/// completed in, and report each end-to-end metric as its median over
/// windows. learn-large instead groups events by engine (`by_engine`): its
/// latencies mix four engines whose costs differ by orders of magnitude, so
/// a pooled quantile would jump between engines with the run's mix; it
/// reports the geometric mean of the four per-engine quantiles instead.
struct LoadResult {
  double seconds = 0;         ///< measured wall time
  uint64_t attempted = 0;     ///< requests issued
  uint64_t errors = 0;        ///< requests that returned an error
  uint64_t mismatches = 0;    ///< byte or semantic mismatches
  uint64_t hibernate_errors = 0;
  double questions_per_session = 0;
  std::vector<Window> windows = std::vector<Window>(1);
  Clock::time_point start;
  Clock::duration width = Clock::duration::max();
  bool by_engine = false;
  std::vector<std::string> notes;  ///< first few failures, for stderr

  /// Cuts the run starting at `begin` into `count` windows of `seconds`
  /// each; events after the last window count in the last.
  void StartWindows(Clock::time_point begin, double seconds, size_t count);
  Window& At(Clock::time_point t);
  /// The group of engine `engine` (learn-large).
  Window& Group(size_t engine) {
    if (windows.size() <= engine) windows.resize(engine + 1);
    return windows[engine];
  }

  uint64_t failed() const { return errors + mismatches + hibernate_errors; }
  uint64_t validated() const;
  uint64_t sessions() const;
  /// One latency series pooled over all windows.
  std::vector<double> All(std::vector<double> Window::*series) const;
  /// Folds another thread's tallies into this one, window by window (not
  /// `seconds`).
  void Merge(LoadResult&& other);
  void Note(const std::string& note) {
    if (notes.size() < 8) notes.push_back(note);
  }
};

}  // namespace qbench

#endif  // QBENCH_BENCH_H_
