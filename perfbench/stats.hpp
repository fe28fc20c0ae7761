// The benchmark's own statistics: nearest-rank percentiles that refuse
// to report a tail the sample cannot support, the grouped median of
// iteration counts, the windowed work rate, and the open-loop sender that
// times every request from its due time.  Header-only so the self-test
// exercises exactly the code the benchmark runs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; otherwise it would be a guess about the tail.
inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of quantile q in n samples: the smallest k with
/// k >= q * n (k >= 1).
[[nodiscard]] inline std::size_t nearest_rank_index(std::size_t n, double q) {
  const auto k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(k, 1, n);
}

/// Samples lying strictly beyond the nearest-rank q-percentile of n.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank_index(n, q);
}

/// Nearest-rank q-percentile (0 < q <= 1) of unsorted samples; nullopt
/// for an empty sample.  Use for medians and other central values.
[[nodiscard]] inline std::optional<double> percentile(std::vector<double> s,
                                                     double q) {
  if (s.empty()) return std::nullopt;
  const std::size_t k = nearest_rank_index(s.size(), q) - 1;
  std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(k),
                   s.end());
  return s[k];
}

/// Tail percentile: as percentile(), but omitted (nullopt) unless at
/// least kMinBeyond samples lie beyond it.
[[nodiscard]] inline std::optional<double> tail_percentile(
    std::vector<double> s, double q) {
  if (samples_beyond(s.size(), q) < kMinBeyond) return std::nullopt;
  return percentile(std::move(s), q);
}

[[nodiscard]] inline double median(std::vector<double> s) {
  return percentile(std::move(s), 0.5).value_or(0.0);
}

/// Median of integer-valued samples (iteration counts) read as grouped
/// data: value k stands for the interval [k - 1/2, k + 1/2) and the median
/// is interpolated inside the interval that holds it.  Equals k when every
/// sample is k, and moves by a fraction of an iteration, not by a whole
/// one, when the sample median sits on the boundary between two counts.
[[nodiscard]] inline double grouped_median(std::vector<double> s) {
  if (s.empty()) return 0.0;
  std::sort(s.begin(), s.end());
  const double half = 0.5 * static_cast<double>(s.size());
  const double k = s[nearest_rank_index(s.size(), 0.5) - 1];
  const auto lo = std::lower_bound(s.begin(), s.end(), k);
  const auto hi = std::upper_bound(s.begin(), s.end(), k);
  const auto below = static_cast<double>(lo - s.begin());
  const auto count = static_cast<double>(hi - lo);
  return k - 0.5 + (half - below) / count;
}

/// One unit of completed work for windowed_rate().
struct Completion {
  double start_s = 0.0;  ///< when the request started (or was due)
  double end_s = 0.0;    ///< when it completed
  double weight = 0.0;   ///< work it carried (e.g. RHS solved)
};

/// Work rate (e.g. RHS solved per second): the median over `windows`
/// equal windows of [0, duration) of the work done in each, per second.
/// A request's work is spread over its own [start, end) interval, so the
/// rate of a window does not jump by a whole request as one crosses its
/// edge, and a burst of outside load that slows one or two windows does
/// not move the median, as it would a total over the run.
[[nodiscard]] inline double windowed_rate(const std::vector<Completion>& done,
                                          double duration, int windows = 5) {
  if (duration <= 0.0 || windows < 1) return 0.0;
  const double w = duration / windows;
  std::vector<double> work(static_cast<std::size_t>(windows), 0.0);
  for (const Completion& c : done) {
    const double a = std::clamp(c.start_s, 0.0, duration);
    const double b = std::clamp(c.end_s, a, duration);
    if (b <= a) {  // instantaneous, or entirely outside the window range
      const auto k = std::clamp<long>(static_cast<long>(a / w), 0, windows - 1);
      work[static_cast<std::size_t>(k)] += c.weight;
      continue;
    }
    for (int k = static_cast<int>(a / w); k < windows && k * w < b; ++k) {
      const double overlap = std::min(b, (k + 1) * w) - std::max(a, k * w);
      if (overlap > 0.0)
        work[static_cast<std::size_t>(k)] += c.weight * overlap / (b - a);
    }
  }
  for (double& x : work) x /= w;
  return percentile(std::move(work), 0.5).value_or(0.0);
}

[[nodiscard]] inline double mean(const std::vector<double>& s) {
  if (s.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : s) sum += v;
  return sum / static_cast<double>(s.size());
}

/// Due times (seconds from the start) of `n` arrivals of a Poisson process
/// over [0, duration), conditioned on the count: sorted uniform times.
/// Fixing the count keeps the offered load identical across seeds.
[[nodiscard]] inline std::vector<double> poisson_arrivals(std::mt19937_64& rng,
                                                          std::size_t n,
                                                          double duration) {
  std::uniform_real_distribution<double> u(0.0, duration);
  std::vector<double> due(n);
  for (double& t : due) t = u(rng);
  std::sort(due.begin(), due.end());
  return due;
}

/// Per-request timing of an open-loop run.
struct OpenLoopSample {
  double due_s = 0.0;      ///< due time, seconds from the start
  double late_s = 0.0;     ///< send time minus due time
  double latency_s = 0.0;  ///< completion time minus DUE time
};

/// Drive one open-loop sender: request i is due at t0 + due[i]; it is
/// sent then, or at once if the previous request has not returned yet.
/// Latency runs from the due time, so a stall inflates the latency of
/// every request queued behind it instead of hiding as a slow sender.
/// `serve(i)` performs request i, blocks until its reply and returns the
/// time the reply came in: work the caller does after that (checking the
/// answer) is not charged to the request, though it can delay the next
/// send if that is already due.
template <class Serve>
std::vector<OpenLoopSample> run_open_loop(const std::vector<double>& due,
                                          Clock::time_point t0,
                                          Serve&& serve) {
  std::vector<OpenLoopSample> out;
  out.reserve(due.size());
  for (std::size_t i = 0; i < due.size(); ++i) {
    const auto due_at =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(due[i]));
    std::this_thread::sleep_until(due_at);
    const auto sent = Clock::now();
    const Clock::time_point done = serve(i);
    out.push_back({due[i], std::chrono::duration<double>(sent - due_at).count(),
                   std::chrono::duration<double>(done - due_at).count()});
  }
  return out;
}

}  // namespace perfbench
