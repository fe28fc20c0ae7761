// pfem_perfbench — the repository benchmark.
//
//   pfem_perfbench --workload paper_static|wire_open|tenant_churn
//                  --seed N --seconds S --trace 0|1 [--workdir DIR]
//                  [--git-sha SHA] [--git-dirty 0|1] [--src-digest HEX]
//   pfem_perfbench --manifest      # print BENCHMARK.json
//
// Every layer is measured from outside: the benchmark times calls into
// public functions and reads what those calls already return
// (DistSolve/BatchSolveResult counters, ServiceStats, Completed and
// SolveResponseMsg queue/solve seconds).  With --trace 0 it prints the
// end-to-end metrics; with --trace 1 it runs the same untraced phase,
// then a traced phase (the library's own span trace switched on through
// its public options) and a set of layer probes, and prints the
// per-layer metrics.  The last stdout line is the result object.  Every
// returned solution is checked against the global assembled operator;
// a wrong answer sets "correct": false and the exit code to 1.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/edd_batch.hpp"
#include "core/edd_solver.hpp"
#include "exp/experiments.hpp"
#include "fem/families.hpp"
#include "fem/problems.hpp"
#include "metrics.hpp"
#include "net/proto.hpp"
#include "obs/export.hpp"
#include "par/comm.hpp"
#include "record.hpp"
#include "stats.hpp"
#include "svc/remote.hpp"
#include "svc/service.hpp"

#ifndef PFEM_BENCH_BUILD_TYPE
#define PFEM_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace pfem;
namespace pb = perfbench;
using pb::Clock;

constexpr int kSetupReps = 5;
constexpr double kTol = 1e-6;
/// wire_open's total open-loop arrival rate (requests/s over both
/// clients), frozen so every commit sees the same offered load.  At 150
/// req/s (about half the closed-loop capacity of the two connections on
/// a quiet host) runs on a busy shared host saturated the service and
/// the median latency ranged 3.6-92 ms over ten seeds; 50 req/s keeps
/// headroom for that and still gives >1000 samples for a p99.
constexpr double kWireRate = 50.0;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Idle-priority (SCHED_IDLE) loops, one per CPU, that yield the CPU to
/// any runnable thread at once but keep a virtual CPU from halting.  On a
/// VM an idle virtual CPU halts and the host deschedules it; the first
/// second of work after that ran up to six times slower on the shared
/// 4-vCPU host the benchmark was written on, and in an open loop at low
/// load every request pays a wake-up: wire_open's median latency ranged
/// 3.2-6.9 ms in interleaved runs without the loops, 2.8-3.2 ms with them.
/// On the always-busy closed-loop workloads the loops only cost CPU budget
/// (paper_static ran ~20% slower with them), so those pause them after
/// the first second.  pause() lets the CPUs idle for real.  With the
/// loops running, wire_open cannot show the halted-CPU part of a wake-up
/// (thread park/wake still shows); par.wake_after_idle_ms, measured with
/// the loops paused, is the metric for idle-wake claims.
class KeepAwake {
 public:
  KeepAwake() {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < n; ++i)
      threads_.emplace_back([this] {
        sched_param sp{};
        if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &sp) != 0) {
          failed_.store(true);
          return;  // never spin at normal priority
        }
        while (!stop_.load(std::memory_order_relaxed)) {
          if (paused_.load(std::memory_order_relaxed)) {
            std::unique_lock lock(m_);
            cv_.wait(lock, [this] { return stop_.load() || !paused_.load(); });
            continue;
          }
          sched_yield();  // hand the CPU to any runnable thread at once
        }
      });
  }
  ~KeepAwake() {
    {
      std::scoped_lock lock(m_);
      stop_.store(true);
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

  void pause(bool p) {
    {
      std::scoped_lock lock(m_);
      paused_.store(p);
    }
    cv_.notify_all();
  }
  [[nodiscard]] bool paused() const { return paused_.load(); }
  [[nodiscard]] bool failed() const { return failed_.load(); }

 private:
  std::mutex m_;  ///< with cv_: parks paused loops; stop_/paused_ change under it
  std::condition_variable cv_;
  std::atomic<bool> stop_{false}, paused_{false}, failed_{false};
  std::vector<std::thread> threads_;  ///< last: started after the state above
};

/// The run's KeepAwake (set by main before any workload runs).
KeepAwake* g_keep_awake = nullptr;

// ---- arguments --------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = pb::kRunSeconds;
  bool trace = false;
  std::string workdir = ".";
  std::string git_sha = "unknown";
  std::string git_dirty = "unknown";
  std::string src_digest = "unknown";
  bool manifest = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--manifest") {
      a.manifest = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << k << "\n";
      return false;
    }
    const std::string v = argv[++i];
    try {
      if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
    } catch (const std::exception&) {
      std::cerr << "bad value for " << k << ": " << v << "\n";
      return false;
    }
    if (k == "--workload") a.workload = v;
    else if (k == "--seed" || k == "--seconds") continue;
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--workdir") a.workdir = v;
    else if (k == "--git-sha") a.git_sha = v;
    else if (k == "--git-dirty") a.git_dirty = v;
    else if (k == "--src-digest") a.src_digest = v;
    else {
      std::cerr << "unknown flag " << k << "\n";
      return false;
    }
  }
  if (a.manifest) return true;
  if (pb::find_workload(a.workload) == nullptr) {
    std::cerr << "unknown workload '" << a.workload << "'\n";
    return false;
  }
  return a.seconds > 0.0;
}

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  std::ostringstream os;
  os << std::setprecision(10) << v;
  return os.str();
}

// ---- results ----------------------------------------------------------------

/// One run's output: metrics by name (validated against the tables),
/// pass/fail tallies, and provenance notes.
struct Report {
  std::map<std::string, double> values;
  std::map<std::string, std::string> notes;  ///< why a value is 0 / n/a
  std::map<std::string, double> counts;      ///< sample counts etc.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::vector<std::string> errors;

  void set(const std::string& name, double v) { values[name] = v; }
  void not_applicable(const std::string& name, const std::string& why) {
    values[name] = 0.0;
    notes[name] = why;
  }
  void error(const std::string& e) {
    if (errors.size() < 8) errors.push_back(e);
  }
};

// ---- correctness ------------------------------------------------------------

/// Independent residual check on the global assembled operator from the
/// fem problem: ||f - (K + drift diag K) u|| / ||f||.  The solver stops on
/// the norm-1-SCALED residual, ||D r|| <= tol ||D f|| with
/// D = diag(d)^(-1/2); so the unscaled relative residual is bounded by
/// tol * kappa(D), kappa(D) = sqrt(max d / min d), with d the
/// partition's summed local row 1-norms (what the distributed scaling
/// uses).  The limit doubles that bound to cover diagonal drift.
struct Checker {
  const sparse::CsrMatrix* k = nullptr;
  Vector diag;
  double limit = 0.0;

  Checker(const sparse::CsrMatrix& kg, const partition::EddPartition& part)
      : k(&kg), diag(kg.diagonal()) {
    Vector d(static_cast<std::size_t>(part.n_global), 0.0);
    for (const auto& s : part.subs) {
      const auto norms = s.k_loc.row_norms1();
      for (std::size_t i = 0; i < norms.size(); ++i)
        d[static_cast<std::size_t>(s.local_to_global[i])] += norms[i];
    }
    const auto [lo, hi] = std::minmax_element(d.begin(), d.end());
    limit = 2.0 * kTol * std::sqrt(*hi / *lo);
  }

  [[nodiscard]] double relres(const Vector& f, const Vector& u,
                              double drift = 0.0) const {
    if (u.size() != f.size()) return 1.0;
    Vector r(f.size());
    k->spmv(u, r);
    double rn = 0.0, fn = 0.0;
    for (std::size_t i = 0; i < f.size(); ++i) {
      const double ri = f[i] - r[i] - drift * diag[i] * u[i];
      rn += ri * ri;
      fn += f[i] * f[i];
    }
    return fn > 0.0 ? std::sqrt(rn / fn) : std::sqrt(rn);
  }

  [[nodiscard]] bool ok(const Vector& f, const Vector& u,
                        double drift = 0.0) const {
    const double rr = relres(f, u, drift);
    return std::isfinite(rr) && rr <= limit;
  }
};

/// One load case: the problem's own load (an edge traction) modulated by
/// a smooth random profile 1 + 0.2 sin(2 pi k.x / L + phi) over the dof
/// coordinates, with integer wave numbers k in 1..3 and phase phi drawn
/// from `rng` — a physically plain variant of the load.
Vector load_case(const Vector& load, const Vector& coords, int dim,
                 std::mt19937_64& rng) {
  constexpr double kTwoPi = 6.283185307179586;
  const auto nd = static_cast<std::size_t>(dim);
  const std::size_t n = load.size();
  std::vector<double> lo(nd, 1e300), hi(nd, -1e300), k(nd);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t d = 0; d < nd; ++d) {
      lo[d] = std::min(lo[d], coords[i * nd + d]);
      hi[d] = std::max(hi[d], coords[i * nd + d]);
    }
  std::uniform_int_distribution<int> wave(1, 3);
  for (double& kd : k) kd = wave(rng);
  const double phi = std::uniform_real_distribution<double>(0.0, kTwoPi)(rng);
  Vector f = load;
  for (std::size_t i = 0; i < n; ++i) {
    double arg = phi;
    for (std::size_t d = 0; d < nd; ++d)
      if (hi[d] > lo[d])
        arg += kTwoPi * k[d] * (coords[i * nd + d] - lo[d]) / (hi[d] - lo[d]);
    f[i] *= 1.0 + 0.2 * std::sin(arg);
  }
  return f;
}

/// Per-rank copies of the partition's matrices with every diagonal entry
/// scaled by (1 + drift): SPD-preserving operator drift whose global
/// assembly is K + drift * diag(K).
std::shared_ptr<const std::vector<sparse::CsrMatrix>> drifted(
    const partition::EddPartition& part, double drift) {
  auto mats = std::make_shared<std::vector<sparse::CsrMatrix>>();
  for (const auto& sub : part.subs) {
    sparse::CsrMatrix a = sub.k_loc;
    const auto rp = a.row_ptr();
    const auto ci = a.col_idx();
    auto vals = a.values();
    for (index_t i = 0; i < a.rows(); ++i)
      for (index_t p = rp[static_cast<std::size_t>(i)];
           p < rp[static_cast<std::size_t>(i) + 1]; ++p)
        if (ci[static_cast<std::size_t>(p)] == i)
          vals[static_cast<std::size_t>(p)] *= 1.0 + drift;
    mats->push_back(std::move(a));
  }
  return mats;
}

std::uint64_t vector_digest(const Vector& x) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double v : x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    h = (h ^ bits) * 1099511628211ull;
  }
  return h;
}

// ---- per-phase samples ------------------------------------------------------

/// Counter totals over the solves of a phase (setup slice excluded).
struct CounterTally {
  par::PerfCounters all;  ///< summed over ranks
  par::PerfCounters rank0;
  double iterations = 0.0;  ///< Arnoldi steps behind the counters
  double rhs_iterations = 0.0;  ///< per-RHS iterations summed
  double setup_seconds = 0.0;
  double total_seconds = 0.0;

  void add(const std::vector<par::PerfCounters>& full,
           const std::vector<par::PerfCounters>& setup, double steps,
           double rhs_iters) {
    for (std::size_t r = 0; r < full.size(); ++r) {
      const par::PerfCounters d =
          r < setup.size() ? full[r].delta_since(setup[r]) : full[r];
      all += d;
      if (r == 0) rank0 += d;
      total_seconds += full[r].total_seconds;
      if (r < setup.size()) setup_seconds += setup[r].total_seconds;
    }
    iterations += steps;
    rhs_iterations += rhs_iters;
  }
};

struct Phase {
  Clock::time_point t0 = Clock::now();  ///< completion times count from here
  std::vector<pb::Completion> done;  ///< per solved request, from t0
  std::vector<double> latency_ms;
  std::vector<double> iterations;  ///< per RHS
  std::vector<double> ms_per_iter;
  std::vector<double> restarts;    ///< per RHS
  std::vector<double> queue_ms, solve_ms, overhead_ms, late_ms;
  std::vector<double> hit_ms, miss_ms;
  std::uint64_t attempted = 0, failed = 0, wrong = 0, rhs_ok = 0;
  double elapsed_s = 0.0;
  CounterTally ctr;
  std::vector<std::string> errors;

  void merge(Phase&& o) {
    auto cat = [](std::vector<double>& a, std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    done.insert(done.end(), o.done.begin(), o.done.end());
    cat(latency_ms, o.latency_ms);
    cat(iterations, o.iterations);
    cat(ms_per_iter, o.ms_per_iter);
    cat(restarts, o.restarts);
    cat(queue_ms, o.queue_ms);
    cat(solve_ms, o.solve_ms);
    cat(overhead_ms, o.overhead_ms);
    cat(late_ms, o.late_ms);
    cat(hit_ms, o.hit_ms);
    cat(miss_ms, o.miss_ms);
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    rhs_ok += o.rhs_ok;
    ctr.all += o.ctr.all;
    ctr.rank0 += o.ctr.rank0;
    ctr.iterations += o.ctr.iterations;
    ctr.rhs_iterations += o.ctr.rhs_iterations;
    ctr.setup_seconds += o.ctr.setup_seconds;
    ctr.total_seconds += o.ctr.total_seconds;
    for (auto& e : o.errors)
      if (errors.size() < 8) errors.push_back(std::move(e));
  }
  /// A request that ran from `start` to `end` (its reply, before the
  /// benchmark's own residual check) solved `rhs` right-hand sides.
  void solved(Clock::time_point start, Clock::time_point end, std::size_t rhs) {
    rhs_ok += rhs;
    const auto rel = [&](Clock::time_point t) {
      return std::chrono::duration<double>(t - t0).count();
    };
    done.push_back({rel(start), rel(end), static_cast<double>(rhs)});
  }
  void fail(const std::string& e, bool wrong_answer = false) {
    ++failed;
    if (wrong_answer) ++wrong;
    if (errors.size() < 8) errors.push_back(e);
  }
};

/// Span self-time ledger accumulated over traced solves.
struct Ledger {
  std::map<std::string, double> self_us;  ///< all lanes
  double rank0_us = 0.0;  ///< rank-0 lane time covered by any span
  double latency_us = 0.0;  ///< client latency of the traced ops
  std::uint64_t dropped = 0;

  /// Self time per span name from each lane's recorded nesting
  /// (obs::span_stats, the in-memory form of obs::io::span_summary; a JSON
  /// round trip of a service-lifetime trace took over a minute).
  void add(const obs::Trace& trace) {
    dropped += trace.dropped_total();
    const auto lane = [&](const obs::Tracer& t, bool rank0) {
      const std::vector<obs::Record> recs = t.records();
      for (const obs::SpanStat& st : obs::span_stats(recs)) {
        const double us = static_cast<double>(st.self_ns) * 1e-3;
        self_us[st.name] += us;
        if (rank0) rank0_us += us;
      }
    };
    for (int r = 0; r < trace.nranks(); ++r) lane(trace.rank(r), r == 0);
    lane(trace.aux(), false);
  }

  void report(Report& rep) const {
    double total = 0.0;
    for (const auto& [name, us] : self_us) total += us;
    for (const char* name :
         {"spmv", "poly_apply", "exchange", "allreduce", "gram_schmidt",
          "coarse_correct", "build_operator", "dispatch"}) {
      const auto it = self_us.find(name);
      const double v = it == self_us.end() || total <= 0.0
                           ? 0.0
                           : it->second / total;
      rep.set(std::string("obs.") + name + "_self_frac", v);
    }
    const double gap =
        latency_us > 0.0 ? 1.0 - rank0_us / latency_us : 0.0;
    rep.set("obs.unattributed_frac", std::clamp(gap, 0.0, 1.0));
    rep.counts["obs.traced_self_us"] = total;
    rep.counts["obs.dropped_records"] = static_cast<double>(dropped);
  }
};

// ---- shared end-to-end and layer reporting ----------------------------------

void tally(const Phase& ph, Report& rep) {
  rep.attempted += ph.attempted;
  rep.failed += ph.failed;
  rep.wrong += ph.wrong;
  for (const auto& e : ph.errors) rep.error(e);
}

/// A p99 metric, or 0 marked not applicable when fewer than ten samples
/// lie beyond it.
void set_p99(const std::string& name, const std::vector<double>& samples,
             Report& rep) {
  rep.counts[name + ".samples"] = static_cast<double>(samples.size());
  if (const auto v = pb::tail_percentile(samples, 0.99))
    rep.set(name, *v);
  else
    rep.not_applicable(name, "fewer than 10 samples beyond p99 (" +
                                 std::to_string(samples.size()) + " samples)");
}

void report_end_to_end(const Phase& ph, Report& rep) {
  rep.set("latency_p50_ms", pb::median(ph.latency_ms));
  set_p99("loadgen.latency_p99_ms", ph.latency_ms, rep);
  rep.set("throughput_rhs_per_s",
          pb::windowed_rate(ph.done, ph.elapsed_s));
  rep.counts["rhs_solved"] = static_cast<double>(ph.rhs_ok);
  rep.set("iterations_p50", pb::grouped_median(ph.iterations));
  rep.set("solved_frac",
          ph.attempted > 0 ? 1.0 - static_cast<double>(ph.failed) /
                                       static_cast<double>(ph.attempted)
                           : 0.0);
  rep.counts["latency_samples"] = static_cast<double>(ph.latency_ms.size());
  rep.counts["rhs_samples"] = static_cast<double>(ph.iterations.size());
  tally(ph, rep);
}

/// setup_s is the median of the set-up repetitions; each is kept raw.
void report_setup(const std::vector<double>& setup, Report& rep) {
  rep.set("setup_s", pb::median(setup));
  rep.counts["setup.reps"] = static_cast<double>(setup.size());
  for (std::size_t i = 0; i < setup.size(); ++i)
    rep.counts["setup_s.rep" + std::to_string(i)] = setup[i];
}

void report_counters(const CounterTally& c, Report& rep) {
  const double tot = c.all.total_seconds;
  rep.set("par.compute_frac", tot > 0 ? c.all.compute_seconds() / tot : 0.0);
  rep.set("par.neighbor_wait_frac",
          tot > 0 ? c.all.neighbor_wait_seconds / tot : 0.0);
  rep.set("par.reduce_wait_frac",
          tot > 0 ? c.all.reduce_wait_seconds / tot : 0.0);
  const double it = c.iterations > 0 ? c.iterations : 1.0;
  rep.set("par.neighbor_exchanges_per_iter",
          static_cast<double>(c.rank0.neighbor_exchanges) / it);
  rep.set("par.neighbor_bytes_per_iter",
          static_cast<double>(c.all.neighbor_bytes) / it);
  rep.set("par.reductions_per_iter",
          static_cast<double>(c.rank0.global_reductions) / it);
  rep.set("core.coarse_solves_per_iter",
          c.rhs_iterations > 0
              ? static_cast<double>(c.rank0.coarse_solves) / c.rhs_iterations
              : 0.0);
  rep.counts["ctr.iterations"] = c.iterations;
  rep.counts["ctr.matvecs_per_iter"] =
      static_cast<double>(c.rank0.matvecs) / it;
}

void report_service_phase(const Phase& ph, Report& rep) {
  rep.set("svc.queue_wait_p50_ms", pb::median(ph.queue_ms));
  set_p99("svc.queue_wait_p99_ms", ph.queue_ms, rep);
  rep.set("svc.solve_p50_ms", pb::median(ph.solve_ms));
  rep.set("core.ms_per_iteration", pb::median(ph.ms_per_iter));
}

// ---- layer probes -----------------------------------------------------------

/// Median of `reps` timings of fn, in seconds.
double time_median(int reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(since(t0));
  }
  return pb::median(t);
}

/// Seconds per call of fn: calls in batches of `batch` until `min_s`
/// of work, the median batch.
double per_call(std::size_t batch, double min_s,
                const std::function<void()>& fn) {
  std::vector<double> t;
  const auto start = Clock::now();
  while (t.size() < 5 || since(start) < min_s) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn();
    t.push_back(since(t0) / static_cast<double>(batch));
  }
  return pb::median(t);
}

/// Single-thread STREAM-style triad a[i] += s * b[i] (24 bytes moved per
/// element, as counted by STREAM) on arrays at least four times the
/// last-level cache; GB/s of the median pass.
double triad_gbps(Report& rep) {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (llc <= 0) llc = 32l << 20;
  const std::size_t n = 4 * static_cast<std::size_t>(llc) / sizeof(double) + 1;
  rep.counts["triad.llc_bytes"] = static_cast<double>(llc);
  rep.counts["triad.array_bytes"] = static_cast<double>(n * sizeof(double));
  std::vector<double> a(n, 1.0), b(n, 2.0);
  std::vector<double> t;
  for (int pass = 0; pass < 5; ++pass) {
    const double s = 1e-3 * (pass + 1);
    const auto t0 = Clock::now();
    double* __restrict pa = a.data();
    const double* __restrict pb_ = b.data();
    for (std::size_t i = 0; i < n; ++i) pa[i] += s * pb_[i];
    t.push_back(since(t0));
  }
  volatile double sink = a[n / 2];
  (void)sink;
  return 24.0 * static_cast<double>(n) / pb::median(t) / 1e9;
}

/// Kernel-level probe on rank 0 of a built operator.
void probe_kernels(const core::EddOperatorState& op,
                   const partition::EddPartition& part,
                   double matvecs_per_iter, Report& rep) {
  const core::RankKernel& k = op.kern.at(0);
  const std::size_t n = static_cast<std::size_t>(k.rows());
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  Vector x(n), y(n);
  for (double& v : x) v = u(rng);
  const double apply_s = per_call(200, 0.3, [&] { k.apply(x, y); });
  rep.set("sparse.apply_us", apply_s * 1e6);

  constexpr int kLanes = 4;
  std::vector<Vector> xs(kLanes, x), ys(kLanes, Vector(n));
  std::vector<const Vector*> xp;
  std::vector<Vector*> yp;
  for (int l = 0; l < kLanes; ++l) {
    xp.push_back(&xs[static_cast<std::size_t>(l)]);
    yp.push_back(&ys[static_cast<std::size_t>(l)]);
  }
  const double many_s =
      per_call(50, 0.3, [&] { k.apply_many(xp, yp); });
  rep.set("sparse.apply_many_us_per_lane", many_s * 1e6 / kLanes);

  std::uint64_t flops_all = 0;
  for (const auto& kr : op.kern) flops_all += kr.apply_flops();
  rep.set("sparse.flops_per_iteration",
          matvecs_per_iter * static_cast<double>(flops_all));

  // Computed bytes of one apply from the CSR storage of the rank-0
  // operator: values + column indices + row pointers + x read + y write.
  // Ignores cache reuse of x and the SELL padding.
  const auto& a0 = part.subs.at(0).k_loc;
  const double bytes =
      static_cast<double>(a0.nnz()) * (sizeof(real_t) + sizeof(index_t)) +
      static_cast<double>(n + 1) * sizeof(index_t) +
      2.0 * static_cast<double>(n) * sizeof(real_t);
  rep.set("sparse.bytes_per_dof", bytes / static_cast<double>(n));
  const double achieved = bytes / apply_s / 1e9;
  rep.set("sparse.achieved_gbps", achieved);
  rep.counts["sparse.rank0_rows"] = static_cast<double>(n);
  rep.counts["sparse.rank0_nnz"] = static_cast<double>(a0.nnz());
  rep.counts["sparse.rank0_bytes_computed"] = bytes;
}

/// Runtime probes on a team of the workload's size: empty-job dispatch
/// latency and scalar allreduce cost.
void probe_team(par::Team& team, Report& rep) {
  for (int i = 0; i < 200; ++i) team.run([](par::Comm&) {});
  std::vector<double> us;
  for (int i = 0; i < 2000; ++i) {
    const auto t0 = Clock::now();
    team.run([](par::Comm&) {});
    us.push_back(since(t0) * 1e6);
  }
  rep.set("par.team_run_p50_us", pb::median(us));
  set_p99("par.team_run_p99_us", us, rep);
  constexpr int kReduce = 2000;
  std::vector<double> per;
  for (int rep_i = 0; rep_i < 5; ++rep_i) {
    double s = 0.0;
    team.run([&](par::Comm& c) {
      const auto t0 = Clock::now();
      double acc = 0.0;
      for (int i = 0; i < kReduce; ++i) acc += c.allreduce_sum(1.0);
      if (c.rank() == 0) s = since(t0);
      (void)acc;
    });
    per.push_back(s / kReduce * 1e6);
  }
  rep.set("par.allreduce_us", pb::median(per));
}

/// Solve-sized job after an idle gap, minus the same job run steady.
void probe_wake(const std::function<void()>& solve, Report& rep) {
  for (int i = 0; i < 3; ++i) solve();
  const double steady = time_median(5, solve);
  std::vector<double> after_idle;
  for (int i = 0; i < 3; ++i) {
    const bool was_paused = g_keep_awake->paused();
    g_keep_awake->pause(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(1000));
    const auto t0 = Clock::now();
    solve();
    after_idle.push_back(since(t0));
    g_keep_awake->pause(was_paused);
  }
  rep.set("par.wake_after_idle_ms", (pb::median(after_idle) - steady) * 1e3);
  rep.counts["par.steady_solve_ms"] = steady * 1e3;
}

/// Wire serialization cost of one request/response round trip of the
/// workload's own shape (1 RHS, solution returned).
void probe_proto(const Vector& f, const Vector& x, Report& rep) {
  net::proto::SolveRequestMsg req;
  req.req_id = 1;
  req.operator_key = "op";
  req.want_solution = true;
  req.rhs.push_back(f);
  net::proto::SolveResponseMsg resp;
  resp.req_id = 1;
  resp.status = net::proto::SolveStatus::Completed;
  resp.items.push_back({true, false, 30, 1e-7});
  resp.solution.push_back(x);
  net::ByteBuffer qb, rb;
  net::proto::encode_solve_request(qb, req);
  net::proto::encode_solve_response(rb, resp);
  rep.set("net.request_bytes", static_cast<double>(qb.size()));
  rep.set("net.response_bytes", static_cast<double>(rb.size()));
  const double enc = per_call(20, 0.2, [&] {
    qb.clear();
    rb.clear();
    net::proto::encode_solve_request(qb, req);
    net::proto::encode_solve_response(rb, resp);
  });
  const std::span<const unsigned char> qbody(qb.data() + net::proto::kProtoHeaderBytes,
                                             qb.size() - net::proto::kProtoHeaderBytes);
  const std::span<const unsigned char> rbody(rb.data() + net::proto::kProtoHeaderBytes,
                                             rb.size() - net::proto::kProtoHeaderBytes);
  bool ok = true;
  const double dec = per_call(20, 0.2, [&] {
    net::proto::SolveRequestMsg q2;
    net::proto::SolveResponseMsg r2;
    ok = ok && net::proto::decode_solve_request(qbody, q2) ==
                   net::proto::DecodeStatus::Ok;
    ok = ok && net::proto::decode_solve_response(rbody, r2) ==
                   net::proto::DecodeStatus::Ok;
  });
  if (!ok) rep.error("proto round trip failed to decode");
  rep.set("net.encode_us", enc * 1e6);
  rep.set("net.decode_us", dec * 1e6);
}

/// Counts a probe solve in the run's tallies; a wrong answer fails the run
/// like any other.
void check_probe(bool converged, const Checker& chk, const Vector& f,
                 const Vector& x, const char* what, Report& rep) {
  ++rep.attempted;
  if (converged && chk.ok(f, x)) return;
  ++rep.failed;
  if (converged) ++rep.wrong;
  rep.error(std::string(what) + " failed its residual check");
}

/// core.solve_setup_frac of the warm-path workloads: the setup share of
/// one cold solve_edd on the workload's main operator.
void report_cold_setup_frac(const partition::EddPartition& part,
                            const Vector& f,
                            const core::DeflationOptions& defl,
                            const Checker& chk, Report& rep) {
  core::SolveOptions o;
  o.deflation = defl;
  const core::DistSolve cold = core::solve_edd(part, f, core::PolySpec{}, o);
  check_probe(cold.converged, chk, f, cold.x, "cold setup-share solve", rep);
  CounterTally ct;
  ct.add(cold.rank_counters, cold.setup_counters, 1, 1);
  rep.set("core.solve_setup_frac",
          ct.total_seconds > 0 ? ct.setup_seconds / ct.total_seconds : 0.0);
}

/// Probes shared by every workload, on a fresh team of size P and the
/// workload's main operator.
void probe_layers(const partition::EddPartition& part, const Vector& f,
                  const core::DeflationOptions& defl, const Checker& chk,
                  double matvecs_per_iter, Report& rep) {
  par::Team team(part.nparts());
  const core::PolySpec poly;
  core::EddOperatorState op;
  const double build_s = time_median(5, [&] {
    op = core::build_edd_operator(team, part, poly, nullptr, nullptr, {},
                                  defl);
  });
  rep.set("core.build_operator_ms", build_s * 1e3);
  probe_kernels(op, part, matvecs_per_iter, rep);
  probe_team(team, rep);
  const std::vector<Vector> one{f};
  Vector x;
  probe_wake([&] {
    auto r = core::solve_edd_batch(team, part, op, one);
    const bool converged = r.items.size() == 1 && r.items[0].converged;
    x = r.x.empty() ? Vector{} : std::move(r.x[0]);
    check_probe(converged, chk, f, x, "idle-wake probe solve", rep);
  }, rep);
  probe_proto(f, x, rep);
}

// ---- paper_static -----------------------------------------------------------

struct PaperStack {
  fem::CantileverProblem prob;
  partition::EddPartition part;
};

struct PaperDigest {
  index_t iterations = -1;
  std::uint64_t x = 0;
};

/// One cold solve_edd; checks convergence, the independent residual,
/// and that iterations and solution bits match the run's first solve.
void paper_op(const PaperStack& st, const Checker& chk, const Vector& f,
              const core::SolveOptions& opts, PaperDigest& dig, Phase& ph,
              Ledger* ledger) {
  ++ph.attempted;
  const auto t0 = Clock::now();
  core::DistSolve r = core::solve_edd(st.part, f, core::PolySpec{}, opts);
  const auto t1 = Clock::now();
  const double ms = std::chrono::duration<double>(t1 - t0).count() * 1e3;
  if (!r.converged || r.comm_failed()) {
    ph.fail("paper_static solve did not converge");
    return;
  }
  if (!chk.ok(f, r.x)) {
    ph.fail("paper_static residual " + num(chk.relres(f, r.x)) +
                " above " + num(chk.limit),
            true);
    return;
  }
  const std::uint64_t h = vector_digest(r.x);
  if (dig.iterations < 0) dig = {r.iterations, h};
  if (r.iterations != dig.iterations || h != dig.x) {
    ph.fail("paper_static not bit-deterministic: iterations " +
                std::to_string(r.iterations) + " vs " +
                std::to_string(dig.iterations),
            true);
    return;
  }
  ph.latency_ms.push_back(ms);
  ph.iterations.push_back(static_cast<double>(r.iterations));
  ph.ms_per_iter.push_back(ms / static_cast<double>(r.iterations));
  ph.restarts.push_back(static_cast<double>(r.restarts));
  ph.solved(t0, t1, 1);
  ph.ctr.add(r.rank_counters, r.setup_counters,
             static_cast<double>(r.iterations),
             static_cast<double>(r.iterations));
  if (ledger != nullptr && r.trace) {
    ledger->add(*r.trace);
    ledger->latency_us += ms * 1e3;
  }
}

/// Cross-run half of the determinism contract: the same seed must give
/// the same iteration count and solution bits in every run of this build
/// (same source digest and build type; see record.hpp).
bool check_digest_file(const Args& a, const PaperDigest& d, Report& rep) {
  const auto p = pb::record_path(a.workdir, "paper_static", a.seed,
                                 a.src_digest, PFEM_BENCH_BUILD_TYPE);
  if (!p) return true;
  std::ostringstream cur;
  cur << d.iterations << " " << d.x;
  const auto prev = pb::record_or_compare(*p, cur.str());
  if (!prev) return true;
  rep.error("paper_static digest " + cur.str() +
            " differs from an earlier run of this build with the same "
            "seed: " + *prev);
  return false;
}

void run_paper_static(const Args& a, Report& rep) {
  constexpr int kP = 4;
  std::mt19937_64 rng(a.seed * 0x9E3779B97F4A7C15ull + 1);
  std::unique_ptr<PaperStack> st;
  Vector f;
  std::vector<double> setup, fem_s, part_s;
  PaperDigest dig;
  Phase warm;
  for (int i = 0; i < kSetupReps; ++i) {
    st.reset();
    const auto t0 = Clock::now();
    auto s = std::make_unique<PaperStack>(
        PaperStack{fem::make_table2_cantilever(10), {}});
    fem_s.push_back(since(t0));
    const auto t1 = Clock::now();
    s->part = exp::make_edd(s->prob, kP);
    part_s.push_back(since(t1));
    if (f.empty()) {
      // The paper's pulling load at a seeded magnitude: any transverse
      // variation of the tip traction excites bending and multiplies the
      // iteration count (~3000 instead of ~300), which is not the paper's
      // case.
      const double scale = std::uniform_real_distribution<double>(0.5, 2.0)(rng);
      f = s->prob.load;
      for (double& v : f) v *= scale;
    }
    const Checker chk(s->prob.stiffness, s->part);
    paper_op(*s, chk, f, {}, dig, warm, nullptr);  // warm-up op
    setup.push_back(since(t0));
    st = std::move(s);
  }
  tally(warm, rep);
  const Checker chk(st->prob.stiffness, st->part);
  rep.counts["check.residual_limit"] = chk.limit;

  auto run_phase = [&](double seconds, bool traced, Ledger* ledger) {
    Phase ph;
    core::SolveOptions opts;
    opts.observe.trace = traced;
    while (since(ph.t0) < seconds)
      paper_op(*st, chk, f, opts, dig, ph, ledger);
    ph.elapsed_s = since(ph.t0);
    return ph;
  };

  const Phase ph = run_phase(a.seconds, false, nullptr);
  report_setup(setup, rep);
  report_end_to_end(ph, rep);
  rep.set("peak_rss_mb", peak_rss_mib());
  if (!check_digest_file(a, dig, rep)) ++rep.wrong, ++rep.failed;
  rep.counts["paper.iterations"] = static_cast<double>(dig.iterations);
  if (!a.trace) return;

  rep.set("fem.build_s", pb::median(fem_s));
  rep.set("partition.build_s", pb::median(part_s));
  report_counters(ph.ctr, rep);
  rep.set("core.solve_setup_frac",
          ph.ctr.total_seconds > 0
              ? ph.ctr.setup_seconds / ph.ctr.total_seconds
              : 0.0);
  rep.set("core.ms_per_iteration", pb::median(ph.ms_per_iter));
  rep.set("core.restarts_per_rhs", pb::mean(ph.restarts));

  Ledger ledger;
  const Phase tph = run_phase(a.seconds / 2, true, &ledger);
  tally(tph, rep);
  ledger.report(rep);
  rep.set("obs.tracing_overhead_frac",
          pb::median(tph.latency_ms) / pb::median(ph.latency_ms) - 1.0);

  probe_layers(st->part, f, {}, chk, rep.counts["ctr.matvecs_per_iter"], rep);
  // P = 1 baseline of the same problem and RHS.
  const partition::EddPartition p1 = exp::make_edd(st->prob, 1);
  const double t1 = time_median(2, [&] {
    const auto r = core::solve_edd(p1, f, core::PolySpec{});
    if (!r.converged || !chk.ok(f, r.x)) {
      ++rep.attempted, ++rep.failed;
      rep.error("P=1 baseline failed");
    }
  });
  rep.set("par.speedup_vs_p1", t1 * 1e3 / pb::median(ph.latency_ms));
  for (const char* n :
       {"svc.queue_wait_p50_ms", "svc.queue_wait_p99_ms", "svc.solve_p50_ms",
        "svc.batch_rhs_mean", "svc.cache_hit_rate", "svc.hit_latency_p50_ms",
        "svc.miss_latency_p50_ms", "svc.warm_rhs_frac", "svc.sessions_evicted",
        "net.overhead_p50_ms", "net.overhead_p99_ms", "loadgen.late_p99_ms"})
    rep.not_applicable(n, "layer bypassed: direct solve_edd calls");
}

// ---- wire_open --------------------------------------------------------------

struct WireStack {
  explicit WireStack(fem::FamilyProblem p) : fp(std::move(p)) {}
  WireStack(const WireStack&) = delete;
  WireStack& operator=(const WireStack&) = delete;

  fem::FamilyProblem fp;
  std::shared_ptr<const partition::EddPartition> part;
  core::DeflationOptions defl;
  std::string sock;
  std::unique_ptr<svc::Service> service;
  std::unique_ptr<svc::Server> server;
  std::vector<std::unique_ptr<svc::Client>> clients;

  ~WireStack() {
    clients.clear();
    if (server) server->stop();
    if (service) service->shutdown(false);
    server.reset();
    service.reset();
    if (!sock.empty()) std::filesystem::remove(sock);
  }
};

constexpr int kWireClients = 2;

std::unique_ptr<WireStack> make_wire(const Args& a, int id, bool traced,
                                     std::vector<double>* fem_s = nullptr,
                                     std::vector<double>* part_s = nullptr) {
  const auto t0 = Clock::now();
  fem::ProblemSpec spec = fem::default_spec("cantilever2d");
  spec.nx = 48;
  spec.ny = 16;
  auto st = std::make_unique<WireStack>(fem::make_problem(spec));
  if (fem_s) fem_s->push_back(since(t0));
  const auto t1 = Clock::now();
  st->part = std::make_shared<const partition::EddPartition>(
      exp::make_edd(st->fp, 2));
  if (part_s) part_s->push_back(since(t1));
  st->defl = exp::family_deflation(st->fp);
  svc::ServiceConfig cfg;
  cfg.nranks = 2;
  cfg.queue_capacity = 1u << 16;  // a stall shows as latency, not refusals
  cfg.deflation = st->defl;
  cfg.observe.trace = traced;
  cfg.observe.ring_capacity = traced ? (1u << 21) : 0;
  st->service = std::make_unique<svc::Service>(cfg);
  st->service->register_operator("op", st->part, core::PolySpec{});
  st->sock = (std::filesystem::path(a.workdir) /
              ("w" + std::to_string(::getpid()) + "-" + std::to_string(id) +
               ".sock"))
                 .string();
  std::filesystem::remove(st->sock);
  st->server = std::make_unique<svc::Server>(*st->service, "unix:" + st->sock,
                                             "perfbench");
  for (int c = 0; c < kWireClients; ++c)
    st->clients.push_back(std::make_unique<svc::Client>(
        "unix:" + st->sock, "perfbench-" + std::to_string(c)));
  return st;
}

/// A pool of seeded right-hand sides the requests cycle through.
/// A fixed catalogue of load cases for a problem, the same for every
/// seed: the seed picks the order in which requests use them, so runs
/// with different seeds offer statistically identical work.  Entry 0 is
/// the plain load, which the set-up warm-up requests use.
std::vector<Vector> rhs_pool(const fem::FamilyProblem& fp, int n) {
  std::mt19937_64 rng(20061 + static_cast<std::uint64_t>(fp.prob.load.size()));
  std::vector<Vector> pool{fp.prob.load};
  for (int i = 1; i < n; ++i)
    pool.push_back(load_case(fp.prob.load, fp.dof_coords, fp.coord_dim, rng));
  return pool;
}

/// One wire request: send, wait, verify.  Returns false on a dead
/// connection.  `replied` is stamped when the reply is in, before the
/// residual check, so the check is not charged to the program.
bool wire_request(svc::Client& cli, const Vector& f, const Checker& chk,
                  net::proto::SolveResponseMsg& resp, Phase& ph,
                  Clock::time_point& replied) {
  const auto sent = Clock::now();
  net::proto::SolveRequestMsg req;
  req.operator_key = "op";
  req.want_solution = true;
  req.rhs.push_back(f);
  ++ph.attempted;
  const bool alive = cli.solve(req, resp);
  replied = Clock::now();
  if (!alive) {
    ph.fail("wire connection dropped");
    return false;
  }
  if (resp.status != net::proto::SolveStatus::Completed ||
      resp.items.size() != 1 || !resp.items[0].converged ||
      resp.solution.size() != 1) {
    ph.fail("wire request not solved: status " +
            std::to_string(static_cast<int>(resp.status)) + " " +
            resp.detail);
    return true;
  }
  if (!chk.ok(f, resp.solution[0])) {
    ph.fail("wire residual " + num(chk.relres(f, resp.solution[0])) +
                " above " + num(chk.limit),
            true);
    return true;
  }
  ph.solved(sent, replied, 1);
  ph.iterations.push_back(resp.items[0].iterations);
  ph.queue_ms.push_back(resp.queue_seconds * 1e3);
  ph.solve_ms.push_back(resp.solve_seconds * 1e3);
  if (resp.items[0].iterations > 0)
    ph.ms_per_iter.push_back(resp.solve_seconds * 1e3 /
                             resp.items[0].iterations);
  return true;
}

/// Open-loop phase: each client follows its own seeded Poisson schedule
/// at half the total rate; latency from each request's due time.  The
/// arrival count is fixed (rate x seconds), so every seed offers the same
/// load; throughput divides the solved RHS by the time to the last reply.
Phase wire_phase(WireStack& st, const Checker& chk,
                 const std::vector<Vector>& pool, std::uint64_t seed,
                 double seconds) {
  std::vector<Phase> per(kWireClients);
  std::vector<std::thread> threads;
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  for (auto& p : per) p.t0 = t0;
  for (int c = 0; c < kWireClients; ++c) {
    threads.emplace_back([&, c] {
      std::mt19937_64 rng(seed * 1000003ull + static_cast<unsigned>(c));
      const auto n = static_cast<std::size_t>(
          std::lround(kWireRate / kWireClients * seconds));
      const std::vector<double> due = pb::poisson_arrivals(rng, n, seconds);
      std::uniform_int_distribution<std::size_t> pick(1, pool.size() - 1);
      std::vector<std::size_t> rhs_of(n);
      for (auto& r : rhs_of) r = pick(rng);
      Phase& ph = per[static_cast<std::size_t>(c)];
      bool alive = true;
      net::proto::SolveResponseMsg resp;
      auto serve = [&](std::size_t i) {
        const auto ts = Clock::now();
        if (!alive) return ts;
        const std::size_t okb = ph.rhs_ok;
        Clock::time_point replied;
        alive = wire_request(*st.clients[static_cast<std::size_t>(c)],
                             pool[rhs_of[i]], chk, resp, ph, replied);
        const double client_ms =
            std::chrono::duration<double>(replied - ts).count() * 1e3;
        if (ph.rhs_ok > okb)
          ph.overhead_ms.push_back(
              client_ms - (resp.queue_seconds + resp.solve_seconds) * 1e3);
        return replied;
      };
      const auto samples = pb::run_open_loop(due, t0, serve);
      for (const auto& s : samples) {
        ph.elapsed_s = std::max(ph.elapsed_s, s.due_s + s.latency_s);
        ph.latency_ms.push_back(s.latency_s * 1e3);
        ph.late_ms.push_back(s.late_s * 1e3);
      }
    });
  }
  for (auto& t : threads) t.join();
  Phase ph;
  for (auto& p : per) {
    ph.elapsed_s = std::max(ph.elapsed_s, p.elapsed_s);
    ph.merge(std::move(p));
  }
  return ph;
}

void run_wire_open(const Args& a, Report& rep) {
  std::vector<double> setup, fem_s, part_s;
  std::unique_ptr<WireStack> st;
  std::vector<Vector> pool;
  Phase warm;
  for (int i = 0; i < kSetupReps; ++i) {
    st.reset();
    const auto t0 = Clock::now();
    auto s = make_wire(a, i, false, &fem_s, &part_s);
    if (pool.empty()) pool = rhs_pool(s->fp, 256);
    const Checker chk(s->fp.prob.stiffness, *s->part);
    net::proto::SolveResponseMsg resp;
    Clock::time_point replied;
    for (int w = 0; w < 10; ++w)  // first build + warm-up requests
      for (auto& cli : s->clients)
        wire_request(*cli, pool[0], chk, resp, warm, replied);
    setup.push_back(since(t0));
    st = std::move(s);
  }
  tally(warm, rep);
  const Checker chk(st->fp.prob.stiffness, *st->part);
  rep.counts["check.residual_limit"] = chk.limit;
  rep.counts["wire.rate_per_s"] = kWireRate;

  const svc::ServiceStats s0 = st->service->stats();
  const Phase ph = wire_phase(*st, chk, pool, a.seed, a.seconds);
  const svc::ServiceStats s1 = st->service->stats();
  report_setup(setup, rep);
  report_end_to_end(ph, rep);
  rep.set("peak_rss_mb", peak_rss_mib());
  set_p99("loadgen.late_p99_ms", ph.late_ms, rep);
  rep.counts["wire.refused"] = static_cast<double>(
      s1.rejected_queue_full - s0.rejected_queue_full);
  report_service_phase(ph, rep);
  const double batches = static_cast<double>(s1.batches - s0.batches);
  rep.set("svc.batch_rhs_mean",
          batches > 0 ? static_cast<double>(s1.rhs_solved - s0.rhs_solved) /
                            batches
                      : 0.0);
  rep.set("net.overhead_p50_ms", pb::median(ph.overhead_ms));
  set_p99("net.overhead_p99_ms", ph.overhead_ms, rep);
  if (!a.trace) return;

  rep.set("fem.build_s", pb::median(fem_s));
  rep.set("partition.build_s", pb::median(part_s));
  for (const char* n : {"svc.cache_hit_rate", "svc.hit_latency_p50_ms",
                        "svc.miss_latency_p50_ms", "svc.warm_rhs_frac",
                        "svc.sessions_evicted"})
    rep.not_applicable(n, "one operator, no sessions: every dispatch hits");
  rep.not_applicable("par.speedup_vs_p1", "reported on paper_static only");

  // Traced phase on a fresh traced stack (the service trace is chosen at
  // construction).
  {
    auto tst = make_wire(a, 99, true);
    Phase tw;
    net::proto::SolveResponseMsg resp;
    Clock::time_point replied;
    for (int w = 0; w < 10; ++w)
      for (auto& cli : tst->clients)
        wire_request(*cli, pool[0], chk, resp, tw, replied);
    tally(tw, rep);
    const Phase tph = wire_phase(*tst, chk, pool, a.seed + 1, a.seconds / 2);
    tally(tph, rep);
    tst->clients.clear();
    tst->server->stop();
    tst->service->shutdown(true);
    Ledger ledger;
    ledger.add(*tst->service->trace());
    for (const double ms : tph.latency_ms) ledger.latency_us += ms * 1e3;
    for (const double ms : tw.latency_ms) ledger.latency_us += ms * 1e3;
    ledger.report(rep);
    rep.set("obs.tracing_overhead_frac",
            pb::median(tph.latency_ms) / pb::median(ph.latency_ms) - 1.0);
  }

  // The client cannot see the solver's counters over the wire; measure
  // them on a probe team with the same operator and requests.
  par::Team team(2);
  core::EddOperatorState op = core::build_edd_operator(
      team, *st->part, core::PolySpec{}, nullptr, nullptr, {}, st->defl);
  Phase probe;
  for (int i = 0; i < 20; ++i) {
    const std::vector<Vector> one{pool[static_cast<std::size_t>(i) % pool.size()]};
    auto r = core::solve_edd_batch(team, *st->part, op, one);
    ++probe.attempted;
    const bool converged = r.items.size() == 1 && r.items[0].converged;
    if (!converged || !chk.ok(one[0], r.x.at(0))) {
      probe.fail("wire probe solve failed", converged);
      continue;
    }
    probe.restarts.push_back(static_cast<double>(r.items[0].restarts));
    probe.ctr.add(r.rank_counters, {}, r.items[0].iterations,
                  r.items[0].iterations);
  }
  tally(probe, rep);
  report_counters(probe.ctr, rep);
  rep.set("core.restarts_per_rhs", pb::mean(probe.restarts));
  report_cold_setup_frac(*st->part, pool[0], st->defl, chk, rep);
  probe_layers(*st->part, pool[0], st->defl, chk,
               rep.counts["ctr.matvecs_per_iter"], rep);
}

// ---- tenant_churn -----------------------------------------------------------

struct Tenant {
  Tenant(std::string k, fem::FamilyProblem p)
      : key(std::move(k)), fp(std::move(p)) {}

  std::string key;
  fem::FamilyProblem fp;
  std::shared_ptr<const partition::EddPartition> part;
  core::DeflationOptions defl;
  std::unique_ptr<Checker> chk;
  std::vector<Vector> pool;
  double drift = 0.0;           ///< guarded by mu
  mutable std::shared_mutex mu;  ///< exclusive for updates, shared for solves
};

struct ChurnStack {
  std::vector<std::unique_ptr<Tenant>> tenants;
  std::unique_ptr<svc::Service> service;
  std::vector<std::vector<svc::SessionId>> sessions;  ///< [client][tenant]
  ~ChurnStack() {
    if (service) service->shutdown(false);
  }
};

constexpr int kChurnClients = 2;
/// Diagonal drift of an operator update: block b sets K + d diag(K) with
/// d = kDriftStep * (1 + b % 4).  Kept tiny on purpose: a 5% diagonal
/// shift regularises these operators enough to cut the iterations ~3x,
/// which would make the work of a run depend on its seed.
constexpr double kDriftStep = 2.5e-5;

/// One request of a churn client's plan.
struct ChurnStep {
  std::size_t tenant = 0;
  int width = 1;
  std::size_t pick = 0;    ///< first catalogue entry of its RHS
  int update = -1;         ///< tenant to drift before the request, or -1
  double drift = 0.0;
};

/// Next block of a client's plan: 40 requests with the exact mix — 22, 12
/// and 6 on the three tenants (skewed, so the two-entry cache both hits
/// and misses), ten of each width 1..4, one operator update with a fixed
/// drift — in seeded order, so every seed offers the same mix.
std::vector<ChurnStep> churn_block(std::mt19937_64& rng, std::size_t block,
                                   std::size_t pool) {
  constexpr std::size_t kMix[] = {22, 12, 6};  // requests per tenant
  std::vector<std::size_t> tenants;
  for (std::size_t t = 0; t < std::size(kMix); ++t)
    tenants.insert(tenants.end(), kMix[t], t);
  std::vector<int> widths;
  for (int w = 1; w <= 4; ++w) widths.insert(widths.end(), 10, w);
  std::shuffle(tenants.begin(), tenants.end(), rng);
  std::shuffle(widths.begin(), widths.end(), rng);
  std::uniform_int_distribution<std::size_t> pick(1, pool - 1);
  std::vector<ChurnStep> steps(tenants.size());
  for (std::size_t i = 0; i < steps.size(); ++i)
    steps[i] = {tenants[i], widths[i], pick(rng), -1, 0.0};
  ChurnStep& u = steps[std::uniform_int_distribution<std::size_t>(
      0, steps.size() - 1)(rng)];
  u.update = static_cast<int>(block % 3);
  u.drift = kDriftStep * static_cast<double>(1 + block % 4);
  return steps;
}

std::unique_ptr<ChurnStack> make_churn(bool traced,
                                       std::vector<double>* fem_s = nullptr,
                                       std::vector<double>* part_s = nullptr) {
  auto st = std::make_unique<ChurnStack>();
  double fem_t = 0.0, part_t = 0.0;
  for (const char* family : {"cantilever2d", "hetero2d", "brick3d"}) {
    const std::string key = family;
    fem::ProblemSpec spec = fem::default_spec(family);
    if (key == "cantilever2d") {
      spec.nx = 50;
      spec.ny = 50;
    } else if (key == "hetero2d") {
      spec.nx = 60;
      spec.ny = 60;
      spec.jump = 1e4;
      spec.aligned = false;
      spec.checker = 3;
    } else {
      spec.nx = 24;
      spec.ny = 6;
      spec.nz = 6;
    }
    const auto t0 = Clock::now();
    auto t = std::make_unique<Tenant>(key, fem::make_problem(spec));
    fem_t += since(t0);
    const auto t1 = Clock::now();
    t->part = std::make_shared<const partition::EddPartition>(
        exp::make_edd(t->fp, 2));
    part_t += since(t1);
    t->defl = exp::family_deflation(t->fp, t->key == "hetero2d");
    t->chk = std::make_unique<Checker>(t->fp.prob.stiffness, *t->part);
    t->pool = rhs_pool(t->fp, 64);
    st->tenants.push_back(std::move(t));
  }
  if (fem_s) fem_s->push_back(fem_t);
  if (part_s) part_s->push_back(part_t);
  svc::ServiceConfig cfg;
  cfg.nranks = 2;
  cfg.cache_capacity = 2;
  cfg.queue_capacity = 1u << 16;
  cfg.observe.trace = traced;
  cfg.observe.ring_capacity = traced ? (1u << 21) : 0;
  st->service = std::make_unique<svc::Service>(cfg);
  for (auto& t : st->tenants)
    st->service->register_operator(t->key, t->part, core::PolySpec{}, nullptr,
                                   t->defl);
  for (int c = 0; c < kChurnClients; ++c) {
    st->sessions.emplace_back();
    for (auto& t : st->tenants)
      st->sessions.back().push_back(st->service->open_session(t->key));
  }
  return st;
}

/// One churn request of `width` RHS on tenant `ti` under client `c`'s
/// session; verifies every returned solution.
void churn_request(ChurnStack& st, int c, std::size_t ti, int width,
                   std::size_t pick, Phase& ph) {
  Tenant& t = *st.tenants[ti];
  svc::SolveRequest req;
  req.operator_key = t.key;
  req.session = st.sessions[static_cast<std::size_t>(c)][ti];
  for (int w = 0; w < width; ++w)
    req.rhs.push_back(t.pool[(pick + static_cast<std::size_t>(w)) % t.pool.size()]);
  const std::vector<Vector> rhs = req.rhs;
  std::shared_lock lock(t.mu);
  const double drift = t.drift;
  ++ph.attempted;
  const auto t0 = Clock::now();
  svc::Outcome o = st.service->submit(std::move(req)).outcome.get();
  const auto t1 = Clock::now();
  const double ms = std::chrono::duration<double>(t1 - t0).count() * 1e3;
  lock.unlock();
  auto* done = std::get_if<svc::Completed>(&o);
  if (done == nullptr || done->result.items.size() != rhs.size()) {
    ph.fail("churn request on " + t.key + " not completed");
    return;
  }
  double steps = 0.0, iters = 0.0;
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    const auto& it = done->result.items[i];
    if (!it.converged) {
      ph.fail("churn " + t.key + " RHS did not converge");
      return;
    }
    if (!t.chk->ok(rhs[i], done->result.x.at(i), drift)) {
      ph.fail("churn " + t.key + " residual " +
                  num(t.chk->relres(rhs[i], done->result.x.at(i), drift)) +
                  " above " + num(t.chk->limit),
              true);
      return;
    }
    steps = std::max(steps, static_cast<double>(it.iterations));
    iters += static_cast<double>(it.iterations);
  }
  ph.latency_ms.push_back(ms);
  (done->cache_hit ? ph.hit_ms : ph.miss_ms).push_back(ms);
  ph.queue_ms.push_back(done->queue_seconds * 1e3);
  ph.solve_ms.push_back(done->solve_seconds * 1e3);
  if (steps > 0) ph.ms_per_iter.push_back(done->solve_seconds * 1e3 / steps);
  for (const auto& it : done->result.items) {
    ph.iterations.push_back(static_cast<double>(it.iterations));
    ph.restarts.push_back(static_cast<double>(it.restarts));
  }
  ph.solved(t0, t1, rhs.size());
  ph.ctr.add(done->result.rank_counters, {}, steps, iters);
}

/// Closed-loop phase: each client works through its seeded plan of
/// requests (tenant, 1-4 RHS, and now and then an operator drift first).
Phase churn_phase(ChurnStack& st, std::uint64_t seed, double seconds) {
  std::vector<Phase> per(kChurnClients);
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  for (auto& p : per) p.t0 = t0;
  for (int c = 0; c < kChurnClients; ++c) {
    threads.emplace_back([&, c] {
      std::mt19937_64 rng(seed * 1000003ull + 17 + static_cast<unsigned>(c));
      Phase& ph = per[static_cast<std::size_t>(c)];
      std::vector<ChurnStep> plan;
      for (std::size_t i = 0; since(t0) < seconds; ++i) {
        if (i % 40 == 0)
          plan = churn_block(rng, i / 40 + static_cast<std::size_t>(c),
                             st.tenants[0]->pool.size());
        const ChurnStep& step = plan[i % 40];
        if (step.update >= 0) {
          Tenant& t = *st.tenants[static_cast<std::size_t>(step.update)];
          auto mats = drifted(*t.part, step.drift);
          std::unique_lock lock(t.mu);
          st.service->update_operator(t.key, std::move(mats));
          t.drift = step.drift;
        }
        churn_request(st, c, step.tenant, step.width, step.pick, ph);
      }
    });
  }
  for (auto& t : threads) t.join();
  Phase ph;
  for (auto& p : per) ph.merge(std::move(p));
  ph.elapsed_s = since(t0);
  return ph;
}

void run_tenant_churn(const Args& a, Report& rep) {
  std::vector<double> setup, fem_s, part_s;
  std::unique_ptr<ChurnStack> st;
  Phase warm;
  for (int i = 0; i < kSetupReps; ++i) {
    st.reset();
    const auto t0 = Clock::now();
    auto s = make_churn(false, &fem_s, &part_s);
    for (std::size_t ti = 0; ti < s->tenants.size(); ++ti)
      churn_request(*s, 0, ti, 1, 0, warm);  // first build of each
    setup.push_back(since(t0));
    st = std::move(s);
  }
  tally(warm, rep);

  const svc::ServiceStats s0 = st->service->stats();
  const Phase ph = churn_phase(*st, a.seed, a.seconds);
  const svc::ServiceStats s1 = st->service->stats();
  report_setup(setup, rep);
  report_end_to_end(ph, rep);
  rep.set("peak_rss_mb", peak_rss_mib());

  report_service_phase(ph, rep);
  report_counters(ph.ctr, rep);
  rep.set("core.restarts_per_rhs", pb::mean(ph.restarts));
  const double batches = static_cast<double>(s1.batches - s0.batches);
  const double rhs = static_cast<double>(s1.rhs_solved - s0.rhs_solved);
  const double hits = static_cast<double>(s1.cache_hits - s0.cache_hits);
  const double misses = static_cast<double>(s1.cache_misses - s0.cache_misses);
  rep.set("svc.batch_rhs_mean", batches > 0 ? rhs / batches : 0.0);
  rep.set("svc.cache_hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0.0);
  rep.set("svc.hit_latency_p50_ms", pb::median(ph.hit_ms));
  rep.set("svc.miss_latency_p50_ms", pb::median(ph.miss_ms));
  rep.set("svc.warm_rhs_frac",
          rhs > 0 ? static_cast<double>(s1.warm_rhs - s0.warm_rhs) / rhs : 0.0);
  rep.set("svc.sessions_evicted",
          static_cast<double>(s1.sessions_evicted - s0.sessions_evicted));
  rep.counts["svc.hit_samples"] = static_cast<double>(ph.hit_ms.size());
  rep.counts["svc.miss_samples"] = static_cast<double>(ph.miss_ms.size());
  if (!a.trace) return;

  rep.set("fem.build_s", pb::median(fem_s));
  rep.set("partition.build_s", pb::median(part_s));
  for (const char* n : {"net.overhead_p50_ms", "net.overhead_p99_ms",
                        "loadgen.late_p99_ms"})
    rep.not_applicable(n, "no wire and closed loop: layer bypassed");
  rep.not_applicable("par.speedup_vs_p1", "reported on paper_static only");

  {
    auto tst = make_churn(true);
    Phase tw;
    for (std::size_t ti = 0; ti < tst->tenants.size(); ++ti)
      churn_request(*tst, 0, ti, 1, 0, tw);
    tally(tw, rep);
    const Phase tph = churn_phase(*tst, a.seed + 1, a.seconds / 2);
    tally(tph, rep);
    tst->service->shutdown(true);
    Ledger ledger;
    ledger.add(*tst->service->trace());
    for (const double ms : tph.latency_ms) ledger.latency_us += ms * 1e3;
    for (const double ms : tw.latency_ms) ledger.latency_us += ms * 1e3;
    ledger.report(rep);
    rep.set("obs.tracing_overhead_frac",
            pb::median(tph.latency_ms) / pb::median(ph.latency_ms) - 1.0);
  }

  // Cold-solve setup share and the layer probes on the most requested
  // tenant; build cost averaged over all three tenants.
  const Tenant& main_t = *st->tenants[0];
  report_cold_setup_frac(*main_t.part, main_t.pool[0], main_t.defl,
                         *main_t.chk, rep);
  probe_layers(*main_t.part, main_t.pool[0], main_t.defl, *main_t.chk,
               rep.counts["ctr.matvecs_per_iter"], rep);
  double build_ms = rep.values["core.build_operator_ms"];
  par::Team team(2);
  for (std::size_t ti = 1; ti < st->tenants.size(); ++ti) {
    const Tenant& t = *st->tenants[ti];
    build_ms += time_median(3, [&] {
                  (void)core::build_edd_operator(team, *t.part,
                                                 core::PolySpec{}, nullptr,
                                                 nullptr, {}, t.defl);
                }) * 1e3;
  }
  rep.set("core.build_operator_ms",
          build_ms / static_cast<double>(st->tenants.size()));
}

// ---- output -----------------------------------------------------------------

std::string manifest_json() {
  std::ostringstream os;
  os << "{\n  \"command\": [";
  for (std::size_t i = 0; i < std::size(pb::kCommand); ++i)
    os << (i ? ", " : "") << json_str(pb::kCommand[i]);
  os << "],\n  \"paths\": [";
  for (std::size_t i = 0; i < std::size(pb::kPaths); ++i)
    os << (i ? ", " : "") << json_str(pb::kPaths[i]);
  os << "],\n  \"run_seconds\": " << pb::kRunSeconds
     << ",\n  \"workloads\": [\n";
  for (std::size_t i = 0; i < std::size(pb::kWorkloads); ++i)
    os << "    {\"name\": " << json_str(pb::kWorkloads[i].name)
       << ", \"why\": " << json_str(pb::kWorkloads[i].why) << "}"
       << (i + 1 < std::size(pb::kWorkloads) ? "," : "") << "\n";
  os << "  ],\n  \"end_to_end\": [\n";
  for (std::size_t i = 0; i < std::size(pb::kEndToEnd); ++i) {
    const auto& m = pb::kEndToEnd[i];
    os << "    {\"name\": " << json_str(m.name) << ", \"unit\": "
       << json_str(m.unit) << ", \"better\": " << json_str(m.better)
       << ", \"bound\": " << m.bound << "}"
       << (i + 1 < std::size(pb::kEndToEnd) ? "," : "") << "\n";
  }
  os << "  ],\n  \"per_layer\": [\n";
  for (std::size_t i = 0; i < std::size(pb::kPerLayer); ++i) {
    const auto& m = pb::kPerLayer[i];
    os << "    {\"name\": " << json_str(m.name) << ", \"unit\": "
       << json_str(m.unit) << ", \"better\": " << json_str(m.better) << "}"
       << (i + 1 < std::size(pb::kPerLayer) ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

/// Metrics object for the mode's table; false when one is missing or not
/// finite (a benchmark defect, never silently filled in).
template <class Table>
bool metrics_json(const Table& table, const Report& rep, std::string& out) {
  std::ostringstream os;
  os << "{";
  bool ok = true, first = true;
  for (const pb::MetricDef& m : table) {
    const auto it = rep.values.find(std::string(m.name));
    if (it == rep.values.end() || !std::isfinite(it->second)) {
      std::cerr << "metric " << m.name << " was not measured\n";
      ok = false;
      continue;
    }
    os << (first ? "" : ", ") << json_str(m.name) << ": {\"value\": "
       << num(it->second) << ", \"unit\": " << json_str(m.unit) << "}";
    first = false;
  }
  os << "}";
  out = os.str();
  return ok;
}

std::string provenance_json(const Args& a, const Report& rep,
                            double wall_s) {
  std::ostringstream os;
  os << "{\"workload\": " << json_str(a.workload) << ", \"seed\": " << a.seed
     << ", \"seconds\": " << num(a.seconds)
     << ", \"trace\": " << (a.trace ? 1 : 0)
     << ", \"git_sha\": " << json_str(a.git_sha)
     << ", \"git_dirty\": " << json_str(a.git_dirty)
     << ", \"src_digest\": " << json_str(a.src_digest)
     << ", \"build_type\": " << json_str(PFEM_BENCH_BUILD_TYPE)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"llc_bytes\": " << sysconf(_SC_LEVEL3_CACHE_SIZE)
     << ", \"wall_s\": " << num(wall_s) << ", \"values\": {";
  bool first = true;
  for (const auto& [k, v] : rep.values) {
    os << (first ? "" : ", ") << json_str(k) << ": " << num(v);
    first = false;
  }
  os << "}, \"counts\": {";
  first = true;
  for (const auto& [k, v] : rep.counts) {
    os << (first ? "" : ", ") << json_str(k) << ": " << num(v);
    first = false;
  }
  os << "}, \"not_applicable\": {";
  first = true;
  for (const auto& [k, v] : rep.notes) {
    os << (first ? "" : ", ") << json_str(k) << ": " << json_str(v);
    first = false;
  }
  os << "}, \"errors\": [";
  for (std::size_t i = 0; i < rep.errors.size(); ++i)
    os << (i ? ", " : "") << json_str(rep.errors[i]);
  os << "]}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) return 2;
  if (a.manifest) {
    std::cout << manifest_json();
    return 0;
  }
  KeepAwake keep_awake;
  g_keep_awake = &keep_awake;
  std::this_thread::sleep_for(std::chrono::seconds(1));  // CPUs wake up
  const bool open_loop = a.workload == "wire_open";
  keep_awake.pause(!open_loop);
  const auto start = Clock::now();
  Report rep;
  try {
    if (a.workload == "paper_static") run_paper_static(a, rep);
    else if (a.workload == "wire_open") run_wire_open(a, rep);
    else run_tenant_churn(a, rep);
  } catch (const std::exception& e) {
    std::cerr << "benchmark aborted: " << e.what() << "\n";
    return 3;
  }
  if (a.trace) {  // last: its arrays are several times the LLC
    const double triad = triad_gbps(rep);
    rep.set("sparse.triad_gbps", triad);
    rep.set("sparse.roofline_frac",
            rep.values["sparse.achieved_gbps"] / triad);
  }
  std::string metrics;
  const bool complete = a.trace ? metrics_json(pb::kPerLayer, rep, metrics)
                                : metrics_json(pb::kEndToEnd, rep, metrics);
  rep.counts["keep_awake"] = open_loop && !keep_awake.failed() ? 1.0 : 0.0;
  const std::string prov = provenance_json(a, rep, since(start));
  std::cout << "provenance " << prov << "\n";
  std::ofstream(std::filesystem::path(a.workdir) / "runs.jsonl",
                std::ios::app)
      << prov << "\n";
  for (const auto& e : rep.errors) std::cerr << "error: " << e << "\n";
  if (!complete) return 4;
  // Failures (refused, cancelled, unconverged) count in `failed` and
  // solved_frac; `correct` and the exit code answer "was any returned
  // solution wrong?".
  const bool correct = rep.wrong == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(rep.attempted, 1)
            << ", \"failed\": " << rep.failed << ", \"metrics\": " << metrics
            << "}" << std::endl;
  return correct ? 0 : 1;
}
