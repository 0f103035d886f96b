#include "bench.h"

#include <arpa/inet.h>
#include <sched.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#ifndef QBENCH_BUILD_TYPE
#define QBENCH_BUILD_TYPE "unknown"
#endif

namespace qbench {

size_t Window::SliceOf(Clock::time_point t) const {
  const double at = std::chrono::duration<double>(t - start_).count();
  const auto slice = static_cast<int64_t>(at / (seconds_ / kSlices));
  return static_cast<size_t>(std::clamp<int64_t>(slice, 0, kSlices - 1));
}

double Window::SliceSeconds(size_t slice) const {
  const double length = seconds_ / kSlices;
  return slice + 1 < kSlices ? length : Seconds() - length * (kSlices - 1);
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

std::vector<std::vector<double>> Samples::BySlice(const Window& window) const {
  std::vector<std::vector<double>> slices(Window::kSlices);
  for (const auto& [at, value] : values_) slices[window.SliceOf(at)].push_back(value);
  return slices;
}

std::optional<double> Samples::Whole(double q) const {
  std::vector<double> all;
  all.reserve(values_.size());
  for (const auto& [at, value] : values_) all.push_back(value);
  return Percentile(std::move(all), q);
}

std::optional<double> Percentile(std::vector<double> values, double q) {
  const size_t n = values.size();
  if (n == 0) return std::nullopt;
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  const size_t index = rank == 0 ? 0 : rank - 1;
  if (n - index - 1 < 10) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

void OpCounts::Attempt(const std::string& op) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_[op];
}

void OpCounts::Fail(const std::string& op, const std::string& reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++failed_[op + "/" + reason];
}

uint64_t OpCounts::attempted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const auto& [op, n] : attempted_) total += n;
  return total;
}

uint64_t OpCounts::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const auto& [op, n] : failed_) total += n;
  return total;
}

std::vector<std::string> OpCounts::Lines() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> lines;
  for (const auto& [op, n] : attempted_) {
    uint64_t failed = 0;
    std::string reasons;
    for (const auto& [key, count] : failed_) {
      if (key.compare(0, op.size() + 1, op + "/") != 0) continue;
      failed += count;
      reasons += " " + key.substr(op.size() + 1) + "=" + std::to_string(count);
    }
    lines.push_back("op " + op + ": attempted=" + std::to_string(n) +
                    " failed=" + std::to_string(failed) + reasons);
  }
  return lines;
}

int32_t SpanBuffer::Root(const char* name, Clock::time_point start, Clock::time_point end,
                         uint64_t request) {
  spans_.push_back({name, Nanos(start), Nanos(end), -1, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanBuffer::ChildInterval(const char* name, int32_t root, Clock::time_point start,
                               Clock::time_point end) {
  spans_.push_back({name, Nanos(start), Nanos(end), root, spans_[root].request});
}

void Trace::Merge(const SpanBuffer& buffer) {
  const auto offset = static_cast<int32_t>(spans_.size());
  for (Span span : buffer.spans()) {
    if (span.parent >= 0) span.parent += offset;
    by_name_[span.name].push_back(span.Micros());
    spans_.push_back(span);
  }
}

void Trace::Absorb(const Trace& other) {
  const auto offset = static_cast<int32_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(span);
  }
  for (const auto& [name, values] : other.by_name_) {
    std::vector<double>& mine = by_name_[name];
    mine.insert(mine.end(), values.begin(), values.end());
  }
}

void Trace::AddDerived(const std::string& name, double us) { by_name_[name].push_back(us); }

double Trace::MedianMicros(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? 0 : Median(it->second);
}

double Trace::Mean(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end() || it->second.empty()) return 0;
  double sum = 0;
  for (double v : it->second) sum += v;
  return sum / static_cast<double>(it->second.size());
}

size_t Trace::Count(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? 0 : it->second.size();
}

std::string Trace::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return "";
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request << "}\n";
  }
  return out ? path : "";
}

void Report::EndToEnd(const std::string& name, double value, const std::string& unit) {
  end_to_end_.push_back({name, value, unit});
}

void Report::Percentile(const std::string& name, const Samples& samples, double q,
                        const Window& window) {
  std::ostringstream note;
  note << name << ": samples=" << samples.size() << " per slice";
  std::vector<double> per_slice;
  for (const std::vector<double>& slice : samples.BySlice(window)) {
    note << " " << slice.size();
    if (const std::optional<double> value = qbench::Percentile(slice, q)) {
      per_slice.push_back(*value);
    }
  }
  if (per_slice.size() == Window::kSlices) {
    note << ", slice values";
    for (double v : per_slice) note << " " << v;
    EndToEnd(name, Median(per_slice), "us");
  } else if (const std::optional<double> whole = samples.Whole(q)) {
    note << ", too few in a slice: whole-window value " << *whole;
    EndToEnd(name, *whole, "us");
  } else {
    note << " (too few samples beyond the percentile; not reported)";
    missing_.push_back(name);
  }
  Note(note.str());
}

void Report::Throughput(const Samples& done, const Samples& excluded, const Window& window) {
  const auto ops = done.BySlice(window);
  const auto out = excluded.BySlice(window);
  std::vector<double> rates;
  std::ostringstream note;
  note << "throughput_ops_s: window_s=" << window.Seconds() << " slice rates";
  for (size_t i = 0; i < Window::kSlices; ++i) {
    double excluded_us = 0;
    for (double us : out[i]) excluded_us += us;
    rates.push_back(static_cast<double>(ops[i].size()) /
                    (window.SliceSeconds(i) - excluded_us / 1e6));
    note << " " << rates.back();
  }
  Note(note.str());
  EndToEnd("throughput_ops_s", Median(rates), "ops/s");
}

namespace {

// Name and unit of every per-layer metric, in BENCHMARK.json order.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"sql.prepare_us", "us"},
    {"sql.fingerprint_us", "us"},
    {"sql.execute_us", "us"},
    {"sql.dml_us", "us"},
    {"sql.vec_vectorized", "count"},
    {"sql.vec_fallbacks", "count"},
    {"sql.vec_rows_scanned", "count"},
    {"cache.probe_us", "us"},
    {"cache.evictions", "count"},
    {"cache.puts", "count"},
    {"cache.invalidations", "count"},
    {"cache.admit_rejects", "count"},
    {"cache.semantic_probes", "count"},
    {"cache.semantic_hits", "count"},
    {"cache.semantic_rejects_shape", "count"},
    {"cache.semantic_rejects_projection", "count"},
    {"dup.invalidate_us", "us"},
    {"dup.invalidations_per_event", "ratio"},
    {"dup.predicate_index_probes", "count"},
    {"dup.predicate_index_fallbacks", "count"},
    {"dup.registered_queries", "count"},
    {"middleware.hit_us", "us"},
    {"middleware.miss_overhead_us", "us"},
    {"middleware.db_executions", "count"},
    {"middleware.stale_discards", "count"},
    {"middleware.uncacheable", "count"},
    {"server.encode_us", "us"},
    {"server.decode_us", "us"},
    {"server.wire_overhead_us", "us"},
    {"server.response_bytes", "bytes"},
    {"server.frames_received", "count"},
    {"server.busy_rejections", "count"},
    {"server.slow_consumer_closes", "count"},
    {"cluster.remote_fill_us", "us"},
    {"cluster.apply_lag_us", "us"},
    {"cluster.ring_forwards", "count"},
    {"cluster.remote_fills", "count"},
    {"cluster.cdc_events_applied", "count"},
    {"cluster.cdc_events_dropped", "count"},
    {"cluster.gap_flushes", "count"},
    {"cluster.seq_admit_rejects", "count"},
    {"storage.load_s", "s"},
};

}  // namespace

void Report::Layers(std::map<std::string, double> values) {
  // AddEngineDeltas sums the two counts across engines; the ratio is taken
  // once, from the sums.
  const double events = values["dup.update_events.count"];
  values["dup.invalidations_per_event"] =
      events > 0 ? values["dup.invalidations.count"] / events : 0;
  values.erase("dup.update_events.count");
  values.erase("dup.invalidations.count");
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = values.find(name);
    layers_.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
  for (const auto& [name, value] : values) {
    const bool known = std::any_of(kLayerMetrics.begin(), kLayerMetrics.end(),
                                   [&](const auto& m) { return name == m.first; });
    if (!known) missing_.push_back("(unknown layer metric " + name + ")");
  }
}

void Report::WrongAnswer(const std::string& what) {
  std::lock_guard<std::mutex> lock(wrong_mutex_);
  ++wrong_count_;
  if (wrong_.size() < 5) wrong_.push_back(what);
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
                            metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + JsonNumber(vu.first) + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  return out + "}";
}

}  // namespace

int Report::Finish() {
  std::cout << "workload=" << options_.workload << " seed=" << options_.seed
            << " seconds=" << options_.seconds << " trace=" << (options_.trace ? 1 : 0)
            << " nproc=" << std::thread::hardware_concurrency()
            << " pinned_cpu=" << options_.pinned_cpu
            << " build_type=" << QBENCH_BUILD_TYPE << "\n";
  for (const std::string& line : notes_) std::cout << line << "\n";
  for (const std::string& line : ops_.Lines()) std::cout << line << "\n";
  for (const std::string& what : wrong_) std::cout << "wrong answer: " << what << "\n";
  const char* kind = options_.trace ? "traced end_to_end " : "end_to_end ";
  for (const Metric& m : end_to_end_) {
    std::cout << kind << m.name << " = " << JsonNumber(m.value) << " " << m.unit << "\n";
  }
  for (const Metric& m : layers_) {
    std::cout << "per_layer " << m.name << " = " << JsonNumber(m.value) << " " << m.unit << "\n";
  }
  if (!missing_.empty()) {
    std::cout << "run incomplete: no value for";
    for (const std::string& name : missing_) std::cout << " " << name;
    std::cout << std::endl;
    return 1;
  }
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  for (const Metric& m : options_.trace ? layers_ : end_to_end_) {
    metrics.push_back({m.name, {m.value, m.unit}});
  }
  const uint64_t attempted = ops_.attempted();
  std::cout << "{\"correct\": " << (wrong_count_ == 0 && attempted > 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << ops_.failed()
            << ", \"metrics\": " << MetricsJson(metrics) << "}" << std::endl;
  return 0;
}

std::vector<int> AllowedCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

bool PinThread(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

uint16_t PickFreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    throw std::runtime_error("could not reserve a loopback port");
  }
  ::close(fd);
  return ntohs(addr.sin_port);
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::Sample(qc::Rng& rng) const {
  const double u = rng.UniformReal();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1 : static_cast<size_t>(it - cdf_.begin());
}

EngineCounters EngineCounters::Of(const qc::middleware::CachedQueryEngine& engine) {
  const auto& inv = engine.latency_metrics().invalidations;
  return {engine.stats(), engine.cache_stats(), engine.dup_stats(), inv.count(),
          std::chrono::duration<double, std::micro>(inv.total()).count()};
}

void AddEngineDeltas(std::map<std::string, double>& layers, const EngineCounters& before,
                     const EngineCounters& after) {
  const auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(a - b); };
  const auto& cb = before.cache;
  const auto& ca = after.cache;
  layers["cache.evictions"] += d(ca.evictions, cb.evictions);
  layers["cache.puts"] += d(ca.puts, cb.puts);
  layers["cache.invalidations"] += d(ca.invalidations, cb.invalidations);
  layers["cache.admit_rejects"] += d(ca.admit_rejects, cb.admit_rejects);
  layers["cache.semantic_probes"] += d(ca.semantic_probes, cb.semantic_probes);
  layers["cache.semantic_hits"] += d(ca.semantic_hits, cb.semantic_hits);
  layers["cache.semantic_rejects_shape"] += d(ca.semantic_rejects_shape, cb.semantic_rejects_shape);
  layers["cache.semantic_rejects_projection"] +=
      d(ca.semantic_rejects_projection, cb.semantic_rejects_projection);
  layers["dup.predicate_index_probes"] +=
      d(after.dup.predicate_index_probes, before.dup.predicate_index_probes);
  layers["dup.predicate_index_fallbacks"] +=
      d(after.dup.predicate_index_fallbacks, before.dup.predicate_index_fallbacks);
  layers["dup.registered_queries"] += static_cast<double>(after.dup.registered_queries);
  layers["dup.invalidations.count"] += d(after.dup.invalidations, before.dup.invalidations);
  layers["dup.update_events.count"] += d(after.dup.update_events, before.dup.update_events);
  const auto& eb = before.engine;
  const auto& ea = after.engine;
  layers["middleware.db_executions"] += d(ea.db_executions, eb.db_executions);
  layers["middleware.stale_discards"] += d(ea.stale_discards, eb.stale_discards);
  layers["middleware.uncacheable"] += d(ea.uncacheable, eb.uncacheable);
  layers["cluster.remote_fills"] += d(ea.remote_fills, eb.remote_fills);
  layers["cluster.seq_admit_rejects"] += d(ea.seq_admit_rejects, eb.seq_admit_rejects);
}

double MeanInvalidateMicros(const EngineCounters& before, const EngineCounters& after) {
  const uint64_t batches = after.invalidate_batches - before.invalidate_batches;
  return batches == 0 ? 0
                      : (after.invalidate_total_us - before.invalidate_total_us) /
                            static_cast<double>(batches);
}

void VecCounter::AddTo(std::map<std::string, double>& layers) const {
  const qc::sql::VectorizedStats now = qc::sql::GetVectorizedStats();
  const auto d = [](uint64_t a, uint64_t b, uint64_t excluded) {
    return static_cast<double>(a - b - excluded);
  };
  layers["sql.vec_vectorized"] =
      d(now.queries_vectorized, start_.queries_vectorized, excluded_vectorized_);
  layers["sql.vec_fallbacks"] =
      d(now.queries_fallback, start_.queries_fallback, excluded_fallbacks_);
  layers["sql.vec_rows_scanned"] = d(now.rows_scanned, start_.rows_scanned, excluded_rows_);
}

std::string TracePath(const RunOptions& options) {
  return ".bench_build/trace-" + options.workload + "-" + std::to_string(options.seed) + ".jsonl";
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

}  // namespace qbench
