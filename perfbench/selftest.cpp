// Self-test of the benchmark's own statistics and manifest.
//
//   perfbench_selftest BENCHMARK.json path/to/pfem_perfbench SCRATCH_DIR
//
// Checks nearest-rank percentiles and the rule that a tail percentile is
// omitted when fewer than ten samples lie beyond it; that the open-loop
// sender charges a stall to the requests queued behind it; that the
// cross-run determinism record is keyed by source digest and build type
// (written under SCRATCH_DIR); and that BENCHMARK.json is well formed and
// equals the binary's --manifest output.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "metrics.hpp"
#include "obs/trace_io.hpp"
#include "record.hpp"
#include "stats.hpp"

namespace {

namespace pb = perfbench;
using pfem::obs::io::Json;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_percentiles() {
  const auto s = iota(100);
  expect(pb::percentile(s, 0.5) == 50.0, "p50 of 1..100 is 50");
  expect(pb::percentile(s, 0.99) == 99.0, "p99 of 1..100 is 99");
  expect(pb::percentile(s, 1.0) == 100.0, "p100 of 1..100 is 100");
  expect(pb::percentile(s, 0.001) == 1.0, "p0.1 of 1..100 is 1");
  expect(pb::percentile(iota(5), 0.5) == 3.0, "p50 of 1..5 is 3");
  expect(pb::percentile(iota(4), 0.5) == 2.0, "p50 of 1..4 is 2 (nearest rank)");
  expect(!pb::percentile({}, 0.5), "no percentile of an empty sample");
  expect(pb::median(iota(7)) == 4.0, "median of 1..7 is 4");
}

void test_grouped_median() {
  expect(pb::grouped_median({295, 295, 295}) == 295.0,
         "grouped median of a constant count is that count");
  // 8 x four, 9 x six: half = 5 falls one sample into the six nines.
  std::vector<double> s(4, 8.0);
  s.insert(s.end(), 6, 9.0);
  expect(std::abs(pb::grouped_median(s) - (8.5 + 1.0 / 6.0)) < 1e-12,
         "grouped median interpolates inside the median's interval");
  std::vector<double> t(6, 8.0);
  t.insert(t.end(), 4, 9.0);
  expect(std::abs(pb::grouped_median(t) - (7.5 + 5.0 / 6.0)) < 1e-12,
         "a sample median on the boundary moves by a fraction, not by one");
}

void test_windowed_rate() {
  // 10 s, five 2-s windows; back-to-back 0.2 s requests of 2 RHS each
  // (10 RHS/s), except that window 3 completes only one slow 2-s request.
  std::vector<pb::Completion> c;
  for (int k = 0; k < 5; ++k) {
    if (k == 3) {
      c.push_back({6.0, 8.0, 2.0});
      continue;
    }
    for (int i = 0; i < 10; ++i)
      c.push_back({2.0 * k + 0.2 * i, 2.0 * k + 0.2 * (i + 1), 2.0});
  }
  expect(std::abs(pb::windowed_rate(c, 10.0) - 10.0) < 1e-9,
         "windowed rate is the median window: one slow window does not move it");
  // One request spanning windows 0 and 1 half and half: 0.5 RHS each.
  expect(std::abs(pb::windowed_rate({{1.0, 3.0, 1.0}, {0.0, 2.0, 1.0},
                                     {2.0, 4.0, 1.0}},
                                    4.0, 2) -
                  0.75) < 1e-12,
         "a request's work is spread over the windows it spans");
  expect(pb::windowed_rate({{9.99, 10.5, 1.0}}, 10.0, 1) > 0.0,
         "work running past the end counts in the last window");
  expect(pb::windowed_rate(c, 0.0) == 0.0, "no rate over an empty phase");
}

void test_tail_rule() {
  expect(pb::samples_beyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  expect(pb::samples_beyond(999, 0.99) == 9, "999 samples: 9 beyond p99");
  expect(pb::tail_percentile(iota(1000), 0.99) == 990.0,
         "p99 of 1..1000 is 990 and is reported");
  expect(!pb::tail_percentile(iota(999), 0.99),
         "p99 of 999 samples is omitted, not faked");
  expect(!pb::tail_percentile(iota(100), 0.99), "p99 of 100 samples omitted");
  expect(pb::tail_percentile(iota(40), 0.75) == 30.0, "p75 of 1..40 is 30");
  expect(!pb::tail_percentile(iota(39), 0.75), "p75 of 39 samples omitted");
}

void test_open_loop_stall() {
  // Requests due every 10 ms; request 5 stalls for 100 ms.  Requests 6..
  // are due while it stalls, so their latency from the due time must
  // carry the stall, although each is served in ~1 ms once sent.
  std::vector<double> due;
  for (int i = 0; i < 20; ++i) due.push_back(0.010 * i);
  const auto t0 = pb::Clock::now() + std::chrono::milliseconds(5);
  const auto samples = pb::run_open_loop(due, t0, [](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(i == 5 ? 100 : 1));
    return pb::Clock::now();
  });
  expect(samples.size() == due.size(), "one sample per due request");
  expect(samples[5].latency_s >= 0.100, "the stalled request is >= 100 ms");
  for (std::size_t i = 6; i <= 13; ++i) {
    const double stall_left = 0.100 - 0.010 * static_cast<double>(i - 5);
    expect(samples[i].latency_s >= stall_left,
           "request " + std::to_string(i) + " queued behind the stall carries it");
    expect(samples[i].late_s >= stall_left - 0.002,
           "request " + std::to_string(i) + " was sent late");
    expect(samples[i].latency_s - samples[i].late_s < 0.05,
           "request " + std::to_string(i) + " itself was fast once sent");
  }
  expect(samples[1].late_s < 0.05 && samples[1].latency_s < 0.05,
         "requests before the stall are not inflated");
}

void test_open_loop_check_not_charged() {
  // Each reply takes ~1 ms; the caller then checks it for 5 ms.  The
  // latency ends at the returned reply time, so it excludes the check.
  std::vector<double> due;
  for (int i = 0; i < 10; ++i) due.push_back(0.020 * i);
  const auto t0 = pb::Clock::now() + std::chrono::milliseconds(5);
  const auto samples = pb::run_open_loop(due, t0, [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const auto replied = pb::Clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return replied;
  });
  std::size_t fast = 0;
  for (const auto& s : samples) fast += s.latency_s < 0.004 ? 1 : 0;
  expect(fast >= 8, "the caller's check after the reply is not latency");
}

void test_poisson_arrivals() {
  std::mt19937_64 a(42), b(42), c(43);
  const auto s1 = pb::poisson_arrivals(a, 1000, 10.0);
  const auto s2 = pb::poisson_arrivals(b, 1000, 10.0);
  expect(s1 == s2, "same seed, same schedule");
  expect(pb::poisson_arrivals(c, 1000, 10.0) != s1, "another seed, another schedule");
  expect(s1.size() == 1000, "exactly the requested number of arrivals");
  bool sorted = true;
  for (std::size_t i = 1; i < s1.size(); ++i) sorted = sorted && s1[i] >= s1[i - 1];
  expect(sorted && s1.front() >= 0.0 && s1.back() < 10.0,
         "arrivals increase within the window");
  std::size_t first_half = 0;
  for (const double t : s1) first_half += t < 5.0 ? 1 : 0;
  expect(first_half > 400 && first_half < 600, "arrivals spread over the window");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool valid_name(const std::string& s) {
  static const std::regex re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  return std::regex_match(s, re);
}

bool valid_unit(const std::string& s) {
  static const std::regex re("[A-Za-z0-9_/%.-]{1,16}");
  return std::regex_match(s, re);
}

/// Format rules of the metric lists; their content is the benchmark's
/// own, checked by comparing the file with `pfem_perfbench --manifest`.
void check_metrics(const Json& arr, bool e2e, std::set<std::string>& names) {
  expect(arr.is(Json::Type::Array) && !arr.arr.empty(),
         std::string(e2e ? "end_to_end" : "per_layer") + " is a non-empty list");
  for (const Json& m : arr.arr) {
    const std::string name = m.at("name").str_or("");
    expect(valid_name(name), "metric name " + name + " is well formed");
    expect(names.insert(name).second, "metric name " + name + " used once");
    expect(valid_unit(m.at("unit").str_or("")), "unit of " + name);
    const std::string better = m.at("better").str_or("");
    expect(better == "lower" || better == "higher", "direction of " + name);
    if (e2e) {
      const double bound = m.at("bound").num_or(-1.0);
      expect(m.obj.size() == 4 && bound > 0.0 && bound <= 0.25,
             "bound of " + name);
    } else {
      expect(m.obj.size() == 3, "per-layer metric " + name + " has no bound");
    }
  }
}

void test_manifest(const std::string& path, const std::string& bench) {
  const std::string text = read_file(path);
  Json j;
  std::string err;
  expect(pfem::obs::io::json_parse(text, j, err), "BENCHMARK.json parses: " + err);
  if (g_failures) return;
  expect(j.obj.size() == 6, "BENCHMARK.json has exactly the six keys");
  std::set<std::string> names;
  const Json& wl = j.at("workloads");
  expect(wl.arr.size() >= 2 && wl.arr.size() <= 8, "2 to 8 workloads");
  for (const Json& w : wl.arr) {
    const std::string name = w.at("name").str_or("");
    const std::string why = w.at("why").str_or("");
    expect(pb::find_workload(name) != nullptr,
           "workload " + name + " is run by the benchmark");
    expect(valid_name(name) && names.insert(name).second, "workload name " + name);
    expect(!why.empty() && why.size() <= 200 && why.find('\n') == std::string::npos,
           "why of " + name + " is one short line");
  }
  check_metrics(j.at("end_to_end"), true, names);
  check_metrics(j.at("per_layer"), false, names);
  double setup_bound = -1.0;
  for (const Json& m : j.at("end_to_end").arr)
    if (m.at("name").str_or("") == "setup_s") {
      expect(m.at("unit").str_or("") == "s" && m.at("better").str_or("") == "lower",
             "setup_s is in s, lower is better");
      setup_bound = m.at("bound").num_or(-1.0);
    }
  expect(setup_bound > 0.0, "setup_s is an end-to-end metric");
  for (const Json& m : j.at("end_to_end").arr)
    expect(m.at("bound").num_or(1.0) <= setup_bound, "setup_s has the largest bound");
  // The benchmark reports exactly the metrics of its tables, so equality
  // with the text it generates from them validates every name, unit,
  // direction and bound.
  const std::string cmd = bench + " --manifest";
  std::string out;
  if (FILE* p = popen(cmd.c_str(), "r")) {
    char buf[4096];
    std::size_t n = 0;
    while ((n = fread(buf, 1, sizeof buf, p)) > 0) out.append(buf, n);
    pclose(p);
  }
  expect(out == text, "BENCHMARK.json equals `pfem_perfbench --manifest`");
}

void test_record(const std::filesystem::path& dir) {
  expect(!pb::record_path(dir, "w", 1, "unknown", "Release"),
         "no record without a source digest");
  const auto a = pb::record_path(dir, "w", 1, "0123abcd", "Release");
  const auto b = pb::record_path(dir, "w", 1, "4567ef01", "Release");
  const auto c = pb::record_path(dir, "w", 1, "0123abcd", "Debug");
  expect(a && b && c && *a != *b && *a != *c,
         "source digest and build type key the record");
  if (!a || !b || !c) return;
  expect(!pb::record_or_compare(*a, "295 17"), "the first run stores its record");
  expect(!pb::record_or_compare(*a, "295 17"), "the same result matches the record");
  expect(pb::record_or_compare(*a, "296 17") == "295 17",
         "another result under the same build is reported with the record");
  expect(!pb::record_or_compare(*b, "296 18"),
         "another source digest starts a fresh record");
  expect(!pb::record_or_compare(*c, "296 19"),
         "another build type starts a fresh record");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::cerr << "usage: perfbench_selftest BENCHMARK.json pfem_perfbench SCRATCH_DIR\n";
    return 2;
  }
  test_percentiles();
  test_grouped_median();
  test_windowed_rate();
  test_tail_rule();
  test_open_loop_stall();
  test_open_loop_check_not_charged();
  test_poisson_arrivals();
  test_record(argv[3]);
  test_manifest(argv[1], argv[2]);
  std::cout << (g_failures ? "selftest FAILED" : "selftest passed") << " ("
            << g_failures << " failures)\n";
  return g_failures ? 1 : 0;
}
