// Whole-run benchmark program (README.md here). Runs one workload for a
// fixed number of seconds and prints, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}:
//
//   wholerun --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --golden <file>
//   wholerun --workload <name> --seed <n> --digest
//
// --trace 0 repeats the timed run_fleet call over the seed's workload
// instances and reports the end-to-end metrics; --trace 1 splits the time
// between untraced repetitions and traced runs (traced.hpp) and reports
// the per-layer metrics. --digest prints instance 0's output digest, the
// form golden.txt stores.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "harness/fleet.hpp"
#include "stats.hpp"
#include "traced.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace harness = stayaway::harness;
using stayaway::format_double;
using stayaway::pad_left;
using stayaway::pad_right;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool digest_only = false;
  std::string golden;
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t live_periods(const harness::FleetSpec& fleet) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < fleet.hosts.size(); ++i) {
    total += periods_per_host(fleet, i);
  }
  return total;
}

/// Counts every run made to measure or check, and which of them failed.
struct Ledger {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;

  void record(bool ok, const std::string& what,
              const std::vector<std::string>& why = {}) {
    ++attempted;
    if (ok) return;
    ++failed;
    problems.push_back(what);
    for (const std::string& p : why) problems.push_back("  " + p);
  }
};

/// One untimed run_fleet on `w`: digest plus output-check problems.
std::pair<std::string, std::vector<std::string>> checked_run(
    const Workload& w) {
  harness::FleetResult r = harness::run_fleet(w.fleet);
  return {digest(r), check_outputs(w, r)};
}

struct Rep {
  std::size_t instance = 0;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double periods = 0.0;
  double rig_us = 0.0;
  double pipeline_us = 0.0;
  double trace_us = 0.0;
};

/// What the first run of each instance produced; later runs of the same
/// instance must reproduce its digest.
struct InstanceOutputs {
  std::optional<std::string> digest;
  std::size_t violation_periods = 0;
  double batch_core_s = 0.0;
};

struct RepSeries {
  explicit RepSeries(const Options& opt)
      : count(instances_per_run(opt.workload)), instances(count) {}
  std::size_t count;
  std::vector<InstanceOutputs> instances;
  std::vector<Rep> reps;  // successful reps only

  std::uint64_t seed(const Options& opt, std::size_t k) const {
    return instance_seed(opt.seed, k, count);
  }
};

/// The timed repetitions, cycling through the seed's instances: each rep
/// turns its instance seed into a runnable fleet (timed as setup: trace
/// and spec generation, then every host's rig and pipeline), times one
/// run_fleet call, and checks its outputs. Runs at least one full cycle.
void timed_reps(const Options& opt, double budget_s, RepSeries& series,
                Ledger& ledger) {
  const Clock::time_point start = Clock::now();
  for (std::size_t n = 0;
       n < series.count || seconds_since(start) < budget_s; ++n) {
    const std::size_t k = n % series.count;
    const std::string what = "timed rep " + std::to_string(n) + " (instance " +
                             std::to_string(k) + ")";
    try {
      Rep rep;
      rep.instance = k;
      const Clock::time_point s0 = Clock::now();
      Workload w = make_workload(opt.workload, series.seed(opt, k));
      BuildTimes bt;
      for (std::size_t i = 0; i < w.fleet.hosts.size(); ++i) {
        build_host(w.fleet, i, &bt);
      }
      rep.setup_s = seconds_since(s0);
      rep.rig_us = bt.rig_us;
      rep.pipeline_us = bt.pipeline_us;
      rep.trace_us = w.trace_generate_us;
      rep.periods = static_cast<double>(live_periods(w.fleet));

      const double c0 = process_cpu_s();
      const Clock::time_point r0 = Clock::now();
      harness::FleetResult result = harness::run_fleet(w.fleet);
      rep.wall_s = seconds_since(r0);
      rep.cpu_s = process_cpu_s() - c0;

      std::vector<std::string> problems = check_outputs(w, result);
      const std::string d = digest(result);
      InstanceOutputs& out = series.instances[k];
      if (!out.digest.has_value()) {
        out.digest = d;
        for (const harness::FleetHostResult& h : result.hosts) {
          out.violation_periods += h.result.violation_periods;
          out.batch_core_s += h.result.batch_cpu_work;
        }
      } else if (d != *out.digest) {
        problems.push_back("digest " + d + " differs from this instance's " +
                           "first run " + *out.digest);
      }
      ledger.record(problems.empty(), what, problems);
      if (problems.empty()) series.reps.push_back(rep);
    } catch (const std::exception& e) {
      ledger.record(false, what + " threw: " + e.what());
    }
  }
}

std::vector<double> per_rep(const std::vector<Rep>& reps,
                            double (*f)(const Rep&)) {
  std::vector<double> out;
  for (const Rep& r : reps) out.push_back(f(r));
  if (out.empty()) out.push_back(0.0);
  return out;
}

double rate(const Rep& r) { return r.periods / r.wall_s; }
double cpu_share(const Rep& r) { return r.cpu_s / r.wall_s; }

/// golden.txt lines: "<workload> <seed> <digest of that seed's instance 0>".
std::optional<std::pair<std::uint64_t, std::string>> golden_entry(
    const std::string& path, const std::string& name) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string w;
    std::string seed;
    std::string d;
    std::uint64_t s = 0;
    if (fields >> w >> seed >> d && w == name &&
        stayaway::parse_u64(seed, s)) {
      return std::make_pair(s, d);
    }
  }
  return std::nullopt;
}

/// The stored digest: instance 0 of the golden seed must reproduce it.
/// Also the run's warm-up, so caches and code paths are hot before timing.
void golden_check(const Options& opt, Ledger& ledger) {
  const auto entry = golden_entry(opt.golden, opt.workload);
  if (!entry.has_value()) {
    ledger.record(false, "no golden digest for " + opt.workload + " in '" +
                             opt.golden + "'");
    return;
  }
  const auto& [seed, want] = *entry;
  const std::string what = "golden run (seed " + std::to_string(seed) + ")";
  try {
    auto [got, problems] = checked_run(make_workload(
        opt.workload,
        instance_seed(seed, 0, instances_per_run(opt.workload))));
    if (got != want) problems.push_back("digest " + got + " != golden " + want);
    ledger.record(problems.empty(), what, problems);
  } catch (const std::exception& e) {
    ledger.record(false, what + " threw: " + e.what());
  }
}

/// The untimed pool run: instance 0 on the workload's worker pool must
/// give the digest its timed one-worker runs gave. Its wall and CPU time
/// say how well the pool used the machine during this run.
struct PoolRun {
  std::size_t workers = 0;  // 0: the workload has no pool check
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double efficiency() const {
    return wall_s > 0.0 ? cpu_s / (wall_s * static_cast<double>(workers))
                        : 0.0;
  }
};

PoolRun pool_check(const Options& opt, const RepSeries& series,
                   Ledger& ledger) {
  Workload w = make_workload(opt.workload, series.seed(opt, 0));
  PoolRun pool;
  if (w.pool_workers <= 1) return pool;
  pool.workers = w.pool_workers;
  w.fleet.workers = w.pool_workers;
  const std::string what =
      std::to_string(pool.workers) + "-worker pool run (instance 0)";
  try {
    const double c0 = process_cpu_s();
    const Clock::time_point r0 = Clock::now();
    harness::FleetResult result = harness::run_fleet(w.fleet);
    pool.wall_s = seconds_since(r0);
    pool.cpu_s = process_cpu_s() - c0;
    std::vector<std::string> problems = check_outputs(w, result);
    const std::string got = digest(result);
    const std::string want = series.instances[0].digest.value_or("(none)");
    if (got != want) {
      problems.push_back("pool digest " + got + " != 1-worker digest " + want);
    }
    ledger.record(problems.empty(), what, problems);
  } catch (const std::exception& e) {
    ledger.record(false, what + " threw: " + e.what());
  }
  std::vector<double> one_worker;
  for (const Rep& r : series.reps) {
    if (r.instance == 0) one_worker.push_back(r.wall_s);
  }
  std::cout << "fleet pool check: " << pool.workers << " workers, wall "
            << format_double(pool.wall_s * 1e3, 2) << " ms vs 1 worker "
            << format_double(one_worker.empty() ? 0.0 : median(one_worker) * 1e3,
                             2)
            << " ms, fleet.parallel_efficiency "
            << format_double(pool.efficiency(), 3) << "\n";
  return pool;
}

/// Nanoseconds per Trace::normalized_at call on the instance's longest
/// trace, sampled evenly over its span, and that trace's sample count;
/// {0, 0} when no host has a trace.
std::pair<double, double> normalized_at_cost(const Workload& w) {
  const stayaway::trace::Trace* longest = nullptr;
  for (const harness::FleetHostSpec& hs : w.fleet.hosts) {
    const auto& t = hs.experiment.workload;
    if (t.has_value() && (longest == nullptr || t->size() > longest->size())) {
      longest = &*t;
    }
  }
  if (longest == nullptr) return {0.0, 0.0};
  constexpr int kCalls = 20000;
  const double span = std::max(longest->duration(), 1.0);
  volatile double sink = 0.0;
  const Clock::time_point start = Clock::now();
  for (int k = 0; k < kCalls; ++k) {
    sink = sink + longest->normalized_at(span * k / kCalls);
  }
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  return {ns / kCalls, static_cast<double>(longest->size())};
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Ledger& ledger, const std::vector<Metric>& metrics) {
  for (const std::string& p : ledger.problems) {
    std::cout << "CHECK FAILED: " << p << "\n";
  }
  std::cout << "{\"correct\": " << (ledger.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << ledger.attempted
            << ", \"failed\": " << ledger.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
              << "\": {\"value\": " << number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

void print_run_summary(const Options& opt, const RepSeries& series) {
  const std::vector<double> rates = per_rep(series.reps, rate);
  const std::vector<double> eff = per_rep(series.reps, cpu_share);
  const double tail = supported_tail(series.reps.size());
  std::cout << "workload " << opt.workload << " seed " << opt.seed << ": "
            << series.reps.size() << " timed reps over " << series.count
            << " instances\n";
  std::cout << "periods_per_s: median " << format_double(median(rates), 1)
            << ", p" << format_double(100.0 * tail, 1) << " "
            << format_double(quantile(rates, tail), 1) << "\n";
  std::cout << "cpu/wall of the timed reps: median "
            << format_double(median(eff), 3) << ", min "
            << format_double(quantile(eff, 0.0), 3) << ", max "
            << format_double(quantile(eff, 1.0), 3) << "\n";
}

int run_untraced(const Options& opt) {
  Ledger ledger;
  golden_check(opt, ledger);
  RepSeries series(opt);
  timed_reps(opt, opt.seconds, series, ledger);
  pool_check(opt, series, ledger);
  print_run_summary(opt, series);

  std::size_t violations = 0;
  double batch_core_s = 0.0;
  for (const InstanceOutputs& out : series.instances) {
    violations += out.violation_periods;
    batch_core_s += out.batch_core_s;
  }
  const std::vector<Metric> metrics{
      // The fast end of the per-rep rates: the shared host slows the whole
      // machine for seconds at a time, and the highest percentile with ten
      // reps beyond it keeps those phases out of the figure (README.md,
      // "Noise").
      {"periods_per_s",
       quantile(per_rep(series.reps, rate), supported_tail(series.reps.size())),
       "1/s"},
      {"setup_s",
       median(per_rep(series.reps, [](const Rep& r) { return r.setup_s; })),
       "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"violation_periods", static_cast<double>(violations), "periods"},
      {"batch_core_s", batch_core_s, "core-s"},
      {"completed_fraction",
       static_cast<double>(ledger.attempted - ledger.failed) /
           static_cast<double>(std::max<std::size_t>(1, ledger.attempted)),
       "fraction"},
  };
  print_result(ledger, metrics);
  return 0;
}

void print_layer_table(const Options& opt, const TracedRun& t,
                       std::size_t index, std::size_t runs) {
  auto row = [](const std::string& name, double s, double share) {
    std::cout << "  " << pad_right(name, 22)
              << pad_left(format_double(s * 1e3, 3), 12) << " ms "
              << pad_left(format_double(100.0 * share, 1), 6) << " %\n";
  };
  std::cout << "layer table, " << opt.workload << " seed " << opt.seed
            << " (traced run " << index + 1 << " of " << runs << ", wall "
            << format_double(t.layers.wall() * 1e3, 3) << " ms)\n";
  for (const auto& [name, s] : t.layers.layers()) {
    row(name, s, t.layers.share(name));
  }
  row("unattributed", t.layers.remainder(),
      t.layers.remainder() / t.layers.wall());
  // The benchmark's own hook bookkeeping and checkpoint probe are layers
  // of the table but not of the program.
  std::cout << "  leading program layer: "
            << t.layers.leading({"harness.hooks", "obs.probe"}) << "\n";
}

int run_traced_mode(const Options& opt) {
  Ledger ledger;
  golden_check(opt, ledger);
  RepSeries series(opt);
  timed_reps(opt, opt.seconds / 2.0, series, ledger);
  const PoolRun pool = pool_check(opt, series, ledger);
  print_run_summary(opt, series);

  std::vector<TracedRun> traced;
  const Clock::time_point start = Clock::now();
  for (std::size_t n = 0; n == 0 || seconds_since(start) < opt.seconds / 2.0;
       ++n) {
    const std::size_t k = n % series.count;
    const std::string what = "traced run " + std::to_string(n) +
                             " (instance " + std::to_string(k) + ")";
    try {
      TracedRun t = run_traced(opt.workload, series.seed(opt, k));
      const std::string want = series.instances[k].digest.value_or("(none)");
      ledger.record(t.digest == want, what,
                    {"traced digest " + t.digest + " != untraced " + want});
      traced.push_back(std::move(t));
    } catch (const std::exception& e) {
      ledger.record(false, what + " threw: " + e.what());
      break;
    }
  }

  const Workload w = make_workload(opt.workload, series.seed(opt, 0));
  const auto [at_ns, samples] = normalized_at_cost(w);
  std::vector<Metric> metrics{
      {"harness.rig_build_us",
       median(per_rep(series.reps, [](const Rep& r) { return r.rig_us; })),
       "us"},
      {"harness.pipeline_build_us",
       median(
           per_rep(series.reps, [](const Rep& r) { return r.pipeline_us; })),
       "us"},
      {"trace.generate_us",
       median(per_rep(series.reps, [](const Rep& r) { return r.trace_us; })),
       "us"},
      {"trace.normalized_at_ns", at_ns, "ns"},
      {"trace.samples", samples, "count"},
      // Measured on the pool run where the workload has one.
      {"fleet.cpu_s",
       pool.workers > 0 ? pool.cpu_s
                        : median(per_rep(series.reps,
                                         [](const Rep& r) { return r.cpu_s; })),
       "s"},
      {"fleet.parallel_efficiency",
       pool.workers > 0 ? pool.efficiency()
                        : median(per_rep(series.reps, cpu_share)),
       "ratio"},
  };
  if (!traced.empty()) {
    // The traced run with the median wall speaks for the layer table.
    std::vector<std::pair<double, std::size_t>> by_wall;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      by_wall.emplace_back(traced[i].layers.wall(), i);
    }
    std::sort(by_wall.begin(), by_wall.end());
    const std::size_t pick = by_wall[by_wall.size() / 2].second;
    const TracedRun& t = traced[pick];
    print_layer_table(opt, t, pick, traced.size());
    metrics.insert(metrics.end(), t.metrics.begin(), t.metrics.end());
    std::vector<double> traced_wall;
    for (const TracedRun& r : traced) traced_wall.push_back(r.layers.wall());
    const double untraced_wall = median(per_rep(
        series.reps, [](const Rep& r) { return r.setup_s + r.wall_s; }));
    metrics.push_back({"obs.traced_wall_ratio",
                       untraced_wall > 0.0
                           ? median(traced_wall) / untraced_wall
                           : 0.0,
                       "ratio"});
  }
  print_result(ledger, metrics);
  return 0;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--digest") {
      opt.digest_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      if (!stayaway::parse_u64(value, opt.seed)) return false;
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      opt.trace = value == "1";
    } else if (arg == "--golden") {
      opt.golden = value;
    } else {
      return false;
    }
  }
  const auto& names = workload_names();
  return std::find(names.begin(), names.end(), opt.workload) != names.end() &&
         opt.seconds > 0.0 && (opt.digest_only || !opt.golden.empty());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  try {
    if (!parse_args(argc, argv, opt)) {
      std::cerr << "usage: wholerun --workload <fleet-diurnal|"
                   "recovery-checkpoint|cluster-flash-crowd> --seed <n> "
                   "--seconds <s> --trace <0|1> --golden <file>\n"
                   "       wholerun --workload <name> --seed <n> --digest\n";
      return 2;
    }
    // Fleet workers need the kernel-level hot-path pool pinned to one
    // thread (host- and kernel-level parallelism do not compose).
    stayaway::util::set_hot_path_threads(1);
    if (opt.digest_only) {
      auto [d, problems] = checked_run(make_workload(
          opt.workload,
          instance_seed(opt.seed, 0, instances_per_run(opt.workload))));
      for (const std::string& p : problems) std::cerr << p << "\n";
      std::cout << opt.workload << " " << opt.seed << " " << d << "\n";
      return problems.empty() ? 0 : 1;
    }
    return opt.trace ? run_traced_mode(opt) : run_untraced(opt);
  } catch (const std::exception& e) {
    std::cerr << "wholerun: " << e.what() << "\n";
    return 1;
  }
}
