// The benchmark's vocabulary: workloads and metrics, with units,
// directions and regression bounds.  BENCHMARK.json is generated from
// these tables (`pfem_perfbench --manifest`), and both the benchmark and
// its self-test refuse a metric or workload name that is not listed.
#pragma once

#include <string_view>

namespace perfbench {

struct WorkloadDef {
  std::string_view name;
  std::string_view why;
};

struct MetricDef {
  std::string_view name;
  std::string_view unit;
  std::string_view better;  ///< "lower" or "higher"
  double bound = 0.0;       ///< end-to-end only: allowed relative worsening
};

inline constexpr WorkloadDef kWorkloads[] = {
    {"paper_static",
     "the paper's case: Mesh10 cantilever, P=4, GLS(7) Enhanced EDD-FGMRES; "
     "kernels, exchanges and allreduce dominate; svc and net are bypassed"},
    {"wire_open",
     "open-loop Poisson load over a unix socket on a small deflated operator, "
     "CPUs kept awake; wire, queue, coalescing and thread wake/park set "
     "latency; halted-CPU wake-up is excluded"},
    {"tenant_churn",
     "three problem families on a 2-entry operator cache with operator "
     "updates; rebuilds, deflation, multi-RHS and sessions dominate; no wire"},
};

inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "lower", 0.25},
    {"latency_p50_ms", "ms", "lower", 0.25},
    {"throughput_rhs_per_s", "RHS/s", "higher", 0.25},
    {"iterations_p50", "count", "lower", 0.1},
    {"solved_frac", "ratio", "higher", 0.01},
    {"peak_rss_mb", "MiB", "lower", 0.2},
};

inline constexpr MetricDef kPerLayer[] = {
    {"fem.build_s", "s", "lower"},
    {"partition.build_s", "s", "lower"},
    {"core.build_operator_ms", "ms", "lower"},
    {"core.solve_setup_frac", "ratio", "lower"},
    {"core.ms_per_iteration", "ms", "lower"},
    {"core.restarts_per_rhs", "count", "lower"},
    {"core.coarse_solves_per_iter", "count", "lower"},
    {"sparse.apply_us", "us", "lower"},
    {"sparse.apply_many_us_per_lane", "us", "lower"},
    {"sparse.flops_per_iteration", "flop", "lower"},
    {"sparse.bytes_per_dof", "B/dof-computed", "lower"},
    {"sparse.achieved_gbps", "GB/s", "higher"},
    {"sparse.triad_gbps", "GB/s", "higher"},
    {"sparse.roofline_frac", "ratio", "higher"},
    {"par.compute_frac", "ratio", "higher"},
    {"par.neighbor_wait_frac", "ratio", "lower"},
    {"par.reduce_wait_frac", "ratio", "lower"},
    {"par.neighbor_exchanges_per_iter", "count", "lower"},
    {"par.neighbor_bytes_per_iter", "B", "lower"},
    {"par.reductions_per_iter", "count", "lower"},
    {"par.allreduce_us", "us", "lower"},
    {"par.team_run_p50_us", "us", "lower"},
    {"par.team_run_p99_us", "us", "lower"},
    {"par.wake_after_idle_ms", "ms", "lower"},
    {"par.speedup_vs_p1", "x", "higher"},
    {"svc.queue_wait_p50_ms", "ms", "lower"},
    {"svc.queue_wait_p99_ms", "ms", "lower"},
    {"svc.solve_p50_ms", "ms", "lower"},
    {"svc.batch_rhs_mean", "RHS", "higher"},
    {"svc.cache_hit_rate", "ratio", "higher"},
    {"svc.hit_latency_p50_ms", "ms", "lower"},
    {"svc.miss_latency_p50_ms", "ms", "lower"},
    {"svc.warm_rhs_frac", "ratio", "higher"},
    {"svc.sessions_evicted", "count", "lower"},
    {"net.overhead_p50_ms", "ms", "lower"},
    {"net.overhead_p99_ms", "ms", "lower"},
    {"net.encode_us", "us", "lower"},
    {"net.decode_us", "us", "lower"},
    {"net.request_bytes", "B", "lower"},
    {"net.response_bytes", "B", "lower"},
    {"loadgen.latency_p99_ms", "ms", "lower"},
    {"loadgen.late_p99_ms", "ms", "lower"},
    {"obs.spmv_self_frac", "ratio", "lower"},
    {"obs.poly_apply_self_frac", "ratio", "lower"},
    {"obs.exchange_self_frac", "ratio", "lower"},
    {"obs.allreduce_self_frac", "ratio", "lower"},
    {"obs.gram_schmidt_self_frac", "ratio", "lower"},
    {"obs.coarse_correct_self_frac", "ratio", "lower"},
    {"obs.build_operator_self_frac", "ratio", "lower"},
    {"obs.dispatch_self_frac", "ratio", "lower"},
    {"obs.unattributed_frac", "ratio", "lower"},
    {"obs.tracing_overhead_frac", "ratio", "lower"},
};

/// The benchmark command and run length recorded in BENCHMARK.json.
inline constexpr std::string_view kCommand[] = {"python3", "perfbench/run.py"};
inline constexpr std::string_view kPaths[] = {"perfbench"};
inline constexpr int kRunSeconds = 25;

template <class Table>
[[nodiscard]] const MetricDef* find_metric(const Table& table,
                                           std::string_view name) {
  for (const MetricDef& m : table)
    if (m.name == name) return &m;
  return nullptr;
}

[[nodiscard]] inline const WorkloadDef* find_workload(std::string_view name) {
  for (const WorkloadDef& w : kWorkloads)
    if (w.name == name) return &w;
  return nullptr;
}

}  // namespace perfbench
