// Shared benchmark harness: virtual-clock timing of collective operations
// and the measurement post-processing of the paper's Appendix A, plus the
// tracing/metrics command line (--trace / --metrics) and the
// BENCH_schedule.json results dump consumed by tools/bench_to_csv.py.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "mpl/mpl.hpp"

namespace harness {

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

/// Benchmark command-line options shared by all figure/ablation binaries.
struct Options {
  /// Chrome trace-event JSON output (--trace=PATH); empty = tracing off.
  std::string trace_path;
  /// Metrics JSON output (--metrics for stdout, --metrics=PATH); empty =
  /// metrics off.
  std::string metrics_path;
  /// Virtual-clock results dump written by every bench run
  /// (--schedule-json=PATH to relocate, --no-schedule-json to disable).
  std::string schedule_json = "BENCH_schedule.json";
  /// Fault-injection spec (--faults=SPEC, same k=v grammar as MPL_FAULTS);
  /// empty = no injection.
  std::string faults_spec;

  [[nodiscard]] bool tracing() const { return !trace_path.empty(); }

  static Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--trace=", 0) == 0) {
        o.trace_path = arg.substr(std::strlen("--trace="));
      } else if (arg == "--metrics") {
        o.metrics_path = std::string(1, '-');
      } else if (arg.rfind("--metrics=", 0) == 0) {
        o.metrics_path = arg.substr(std::strlen("--metrics="));
      } else if (arg.rfind("--schedule-json=", 0) == 0) {
        o.schedule_json = arg.substr(std::strlen("--schedule-json="));
      } else if (arg == "--no-schedule-json") {
        o.schedule_json.clear();
      } else if (arg.rfind("--faults=", 0) == 0) {
        o.faults_spec = arg.substr(std::strlen("--faults="));
      } else {
        std::fprintf(stderr,
                     "unknown option %s\n"
                     "usage: bench [--trace=out.json] [--metrics[=out.json]] "
                     "[--schedule-json=PATH|--no-schedule-json] "
                     "[--faults=SPEC]\n",
                     arg.c_str());
        std::exit(2);
      }
    }
    return o;
  }

  /// Wire into a run: tracing records only inside trace_section() windows,
  /// so repetitions and warmups of untraced variants stay out of the file.
  void apply(mpl::RunOptions& run) const {
    run.trace.chrome_path = trace_path;
    run.telemetry.metrics_path = metrics_path;
    run.trace.start_enabled = false;
    if (!faults_spec.empty())
      run.faults = mpl::FaultConfig::parse(faults_spec);
  }
};

/// Run `op` once as a named trace section: clocks are reset collectively,
/// recording is enabled for exactly the duration of the operation, and the
/// section gets its own process group in the Chrome trace.
template <typename F>
void trace_section(const mpl::Comm& comm, const std::string& label, F&& op) {
  comm.vclock_reset_sync();
  comm.set_trace_enabled(true);
  comm.trace_section_begin(label);
  op();
  comm.trace_section_end();
  comm.set_trace_enabled(false);
  comm.hard_sync();
}

// ---------------------------------------------------------------------------
// BENCH_schedule.json (virtual-clock results per figure configuration)
// ---------------------------------------------------------------------------

/// One measured configuration: the virtual-clock makespan of a collective
/// variant under a figure's cost model.
struct BenchRecord {
  std::string bench;    ///< figure/bench identifier
  int d = 0;            ///< mesh dimension
  int n = 0;            ///< stencil parameter (or 0)
  int m = 0;            ///< block size in elements (or 0)
  std::string variant;  ///< e.g. "neighbor", "combining"
  double seconds = 0.0; ///< filtered-mean virtual makespan (headline value)
  // Per-configuration dispersion over the raw repetition samples, so
  // consumers (tools/perf_diff.py's noise allowance in particular) can
  // distinguish a regression from run-to-run jitter. When a bench reports
  // a single number, min == median == seconds and stddev == 0.
  double min = 0.0;     ///< fastest repetition
  double median = 0.0;  ///< median repetition
  double stddev = 0.0;  ///< sample standard deviation across repetitions
};

/// Collected records of this process. Only rank 0 of a bench run records,
/// so a plain global needs no synchronization.
inline std::vector<BenchRecord>& bench_records() {
  static std::vector<BenchRecord> records;
  return records;
}

inline void bench_record(const mpl::Comm& comm, std::string bench, int d,
                         int n, int m, std::string variant, double seconds,
                         std::vector<double> samples = {}) {
  if (comm.rank() != 0) return;
  BenchRecord r{std::move(bench), d, n, m, std::move(variant), seconds,
                seconds, seconds, 0.0};
  if (!samples.empty()) {
    std::sort(samples.begin(), samples.end());
    r.min = samples.front();
    const std::size_t k = samples.size();
    r.median = (k % 2) ? samples[k / 2]
                       : 0.5 * (samples[k / 2 - 1] + samples[k / 2]);
    if (k > 1) {
      double mean = 0.0;
      for (double x : samples) mean += x;
      mean /= static_cast<double>(k);
      double var = 0.0;
      for (double x : samples) var += (x - mean) * (x - mean);
      r.stddev = std::sqrt(var / static_cast<double>(k - 1));
    }
  }
  bench_records().push_back(std::move(r));
}

/// Write all collected records as JSON; returns false on I/O failure.
/// Schema: {"kind": "bench-schedule", "bench": ..., "results": [...]}.
inline bool write_bench_json(const std::string& path,
                             const std::string& bench) {
  if (path.empty()) return true;
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  os << "{\n  \"kind\": \"bench-schedule\",\n  \"bench\": \"" << bench
     << "\",\n  \"results\": [";
  const auto& records = bench_records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    os << (i ? "," : "") << "\n    {\"bench\": \"" << r.bench
       << "\", \"d\": " << r.d << ", \"n\": " << r.n << ", \"m\": " << r.m
       << ", \"variant\": \"" << r.variant << "\"";
    char buf[40];
    const auto field = [&](const char* name, double v) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      os << ", \"" << name << "\": " << buf;
    };
    field("seconds", r.seconds);
    field("min", r.min);
    field("median", r.median);
    field("stddev", r.stddev);
    os << "}";
  }
  os << "\n  ]\n}\n";
  return os.good();
}

/// Time `op` for `reps` repetitions under the network cost model. Clocks
/// are reset before each repetition; the returned per-repetition time is
/// the completion time of the slowest process (identical on every process).
template <typename F>
std::vector<double> time_collective(const mpl::Comm& comm, int reps, F&& op,
                                    int warmups = 1) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(reps));
  for (int r = -warmups; r < reps; ++r) {
    comm.vclock_reset_sync();
    op();
    const double elapsed = comm.vclock();
    comm.hard_sync();
    const double t =
        mpl::allreduce(elapsed, mpl::ReduceOp::max<double>(), comm);
    if (r >= 0) out.push_back(t);
  }
  return out;
}

/// Mean and half-width of the 95% confidence interval.
struct Stats {
  double mean = 0.0;
  double ci95 = 0.0;
};

inline Stats stats(std::vector<double> xs) {
  Stats s;
  if (xs.empty()) return s;
  double sum = 0.0;
  for (double x : xs) sum += x;
  s.mean = sum / static_cast<double>(xs.size());
  if (xs.size() > 1) {
    double var = 0.0;
    for (double x : xs) var += (x - s.mean) * (x - s.mean);
    var /= static_cast<double>(xs.size() - 1);
    s.ci95 = 1.96 * std::sqrt(var / static_cast<double>(xs.size()));
  }
  return s;
}

/// Appendix A, Hydra processing: keep only the first and second quartile
/// (the lower half) of the sorted measurements.
inline std::vector<double> lower_half(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  xs.resize(std::max<std::size_t>(1, xs.size() / 2));
  return xs;
}

/// Appendix A, Titan processing: keep only the smallest third.
inline std::vector<double> smallest_third(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  xs.resize(std::max<std::size_t>(1, xs.size() / 3));
  return xs;
}

inline double ms(double seconds) { return seconds * 1e3; }

}  // namespace harness
