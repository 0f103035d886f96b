// Shared machinery of the qbench program: run options, latency samples,
// operation accounting, spans for the traced run, and the report that ends
// every run with one JSON line.
//
// The benchmark touches qcache only through its public functions. Layers are
// timed from outside: a traced run re-times the public call of each layer
// on a sampled operation's own inputs and records the call as a span.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "middleware/query_engine.h"
#include "server/client.h"
#include "sql/vectorized.h"

namespace qbench {

using Clock = std::chrono::steady_clock;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int pinned_cpu = -1;  // the CPU every thread of the run shares; -1: not pinned
};

/// The CPUs this thread may run on, ascending.
std::vector<int> AllowedCpus();

/// Pin the calling thread, and so every thread it starts afterwards, to
/// `cpu`. Returns false when the affinity cannot be set.
bool PinThread(int cpu);

inline double MicrosSince(Clock::time_point start, Clock::time_point end = Clock::now()) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

/// The measured window, cut into kSlices equal slices. Each end-to-end
/// timing and the throughput are taken per slice and the median over the
/// slices is reported: the machine's slow and fast phases last seconds, and
/// one that covers a single slice then leaves the figure alone.
class Window {
 public:
  static constexpr size_t kSlices = 4;

  Window(Clock::time_point start, double seconds) : start_(start), seconds_(seconds) {}
  Clock::time_point deadline() const {
    return start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds_));
  }
  /// The slice an operation that started at `t` belongs to.
  size_t SliceOf(Clock::time_point t) const;
  /// Mark the end of the window (the last operation may finish past the
  /// deadline; it counts in the last slice).
  void Close(Clock::time_point end) { end_ = end; }
  double SliceSeconds(size_t slice) const;
  double Seconds() const { return std::chrono::duration<double>(end_ - start_).count(); }

 private:
  Clock::time_point start_;
  Clock::time_point end_;
  double seconds_;
};

/// Values of one kind (latencies in µs, or excluded time), each stamped
/// with the start of the operation it belongs to.
class Samples {
 public:
  void Add(double value, Clock::time_point at) { values_.push_back({at, value}); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }

  /// The values of each slice.
  std::vector<std::vector<double>> BySlice(const Window& window) const;
  /// Percentile over the whole window (see qbench::Percentile).
  std::optional<double> Whole(double q) const;

 private:
  std::vector<std::pair<Clock::time_point, double>> values_;
};

/// Nearest-rank percentile of `values`; nullopt unless at least ten values
/// lie beyond it (so a reported tail is backed by ten observations).
std::optional<double> Percentile(std::vector<double> values, double q);

/// Attempted and failed operations per operation type. Thread-safe.
class OpCounts {
 public:
  void Attempt(const std::string& op);
  void Fail(const std::string& op, const std::string& reason);
  uint64_t attempted() const;
  uint64_t failed() const;
  std::vector<std::string> Lines() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, uint64_t> attempted_;
  std::map<std::string, uint64_t> failed_;  // key: "op/reason"
};

/// One timed call in the traced run: `parent` indexes the operation's root
/// span in the same thread's buffer (-1 for a root); spans of one operation
/// share `request`.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  uint64_t request;
  double Micros() const { return static_cast<double>(end_ns - start_ns) / 1000.0; }
};

/// Per-thread span buffer, kept in memory and written out when the run ends.
class SpanBuffer {
 public:
  /// Start an operation's root span; returns its index.
  int32_t Root(const char* name, Clock::time_point start, Clock::time_point end,
               uint64_t request);
  /// Time `fn` as a child of `root` and return its duration in µs.
  template <typename Fn>
  double Child(const char* name, int32_t root, Fn&& fn) {
    const auto start = Clock::now();
    fn();
    const auto end = Clock::now();
    spans_.push_back({name, Nanos(start), Nanos(end), root, spans_[root].request});
    return spans_.back().Micros();
  }
  /// Record an already-measured interval as a child of `root`.
  void ChildInterval(const char* name, int32_t root, Clock::time_point start,
                     Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  static int64_t Nanos(Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
  }
  std::vector<Span> spans_;
};

/// Medians of span durations by name, plus derived layer times that the
/// workloads add per sampled operation.
class Trace {
 public:
  void Merge(const SpanBuffer& buffer);
  /// Take another thread's spans and derived samples.
  void Absorb(const Trace& other);
  void AddDerived(const std::string& name, double us);
  /// Median duration (µs) of spans called `name`; 0 when none were taken.
  double MedianMicros(const std::string& name) const;
  double Mean(const std::string& name) const;
  size_t Count(const std::string& name) const;
  /// Write every span as one JSON object per line. Returns the path.
  std::string Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::map<std::string, std::vector<double>> by_name_;
};

/// The run's result: end-to-end and per-layer metrics, operation counts,
/// and human-readable detail lines printed before the final JSON line.
class Report {
 public:
  explicit Report(const RunOptions& options) : options_(options) {}

  void EndToEnd(const std::string& name, double value, const std::string& unit);
  /// A latency percentile: the median over the window's slices of each
  /// slice's percentile, printed with its sample counts. When a slice has
  /// fewer than ten samples beyond its percentile, the percentile of the
  /// whole window is reported instead; when the window has too few as well,
  /// the metric is missing, which fails the run.
  void Percentile(const std::string& name, const Samples& samples, double q, const Window& window);
  /// Completed operations per second: the median over the slices of the
  /// slice's operations over its length less its `excluded` µs.
  void Throughput(const Samples& done, const Samples& excluded, const Window& window);
  /// Every per-layer metric, in BENCHMARK.json order. A layer that does no
  /// work on this workload reports 0; an unknown name fails the run.
  void Layers(std::map<std::string, double> values);
  void Note(const std::string& line) { notes_.push_back(line); }
  void WrongAnswer(const std::string& what);

  OpCounts& ops() { return ops_; }

  /// Print the detail lines and the final JSON line; returns the exit code.
  int Finish();

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  const RunOptions& options_;
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layers_;
  std::vector<std::string> notes_;
  std::vector<std::string> missing_;
  OpCounts ops_;
  std::mutex wrong_mutex_;
  std::vector<std::string> wrong_;
  uint64_t wrong_count_ = 0;
};

/// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb();

/// An ephemeral loopback port that was free a moment ago. Cache nodes need
/// each other's ports before any of them listens.
uint16_t PickFreePort();

/// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(qc::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

double Median(std::vector<double> values);

/// Run one client operation. A BUSY, RpcError, NetError or other exception
/// counts as a failed `op` (never retried) and returns false.
template <typename Fn>
bool Attempt(OpCounts& ops, const std::string& op, Fn&& fn) {
  ops.Attempt(op);
  try {
    fn();
    return true;
  } catch (const qc::server::RpcError& e) {
    ops.Fail(op, e.IsBusy() ? "busy" : "rpc_error");
  } catch (const qc::server::NetError&) {
    ops.Fail(op, "net_error");
  } catch (const std::exception&) {
    ops.Fail(op, "error");
  }
  return false;
}

/// Where the traced run writes its spans, one JSON object per line.
std::string TracePath(const RunOptions& options);

/// Counter snapshot of one engine; the traced run reports the deltas over
/// the measured window.
struct EngineCounters {
  qc::middleware::QueryEngineStats engine;
  qc::cache::CacheStats cache;
  qc::dup::DupStats dup;
  uint64_t invalidate_batches = 0;
  double invalidate_total_us = 0;

  static EngineCounters Of(const qc::middleware::CachedQueryEngine& engine);
};

/// Add the cache, dup and middleware counter deltas of one engine to
/// `layers` (summing across engines when called once per engine).
void AddEngineDeltas(std::map<std::string, double>& layers, const EngineCounters& before,
                     const EngineCounters& after);

/// Mean DUP invalidation time per statement batch over the window, read
/// from the engine's QueryLatencyMetrics::invalidations.
double MeanInvalidateMicros(const EngineCounters& before, const EngineCounters& after);

/// Vectorized-engine counters (process-global). The traced run takes the
/// work of the benchmark's own oracle and layer calls out of the deltas.
/// Exclude may be called from several client threads; they share one CPU,
/// so another thread's query lands inside an excluded call only if the
/// scheduler preempts that call, which the short in-process calls wrapped
/// here rarely allow.
class VecCounter {
 public:
  VecCounter() : start_(qc::sql::GetVectorizedStats()) {}
  /// Run `fn` and count its vectorized work as the benchmark's, not the run's.
  template <typename Fn>
  void Exclude(Fn&& fn) {
    const qc::sql::VectorizedStats before = qc::sql::GetVectorizedStats();
    fn();
    const qc::sql::VectorizedStats after = qc::sql::GetVectorizedStats();
    excluded_vectorized_ += after.queries_vectorized - before.queries_vectorized;
    excluded_fallbacks_ += after.queries_fallback - before.queries_fallback;
    excluded_rows_ += after.rows_scanned - before.rows_scanned;
  }
  void AddTo(std::map<std::string, double>& layers) const;

 private:
  qc::sql::VectorizedStats start_;
  std::atomic<uint64_t> excluded_vectorized_{0};
  std::atomic<uint64_t> excluded_fallbacks_{0};
  std::atomic<uint64_t> excluded_rows_{0};
};

int RunSetqueryHotspot(const RunOptions& options);
int RunWireZipf(const RunOptions& options);
int RunClusterCdc(const RunOptions& options);

}  // namespace qbench
