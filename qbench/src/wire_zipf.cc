// Workload wire-zipf: per-request serving past the cache's capacity. A
// QcServer on loopback serves two client connections, each a closed-loop
// thread. Reads follow Zipf(0.99) over a key population ten times the
// cache's entry cap (GpsCacheConfig::memory_max_entries), so clock eviction
// and the removal listener run on most misses. Three quarters of the reads
// are prepared EXECUTE point reads returning one row; the rest are text
// QUERY reads returning tens to hundreds of rows.
//
// One operation in a hundred is a wire UPDATE of a separate SESS table that
// no read depends on. It gives the workload its write latencies without
// invalidating any cached read.
//
// Oracle: every KV row is a formula of its key, and every decoded answer is
// checked against the formula, row count included.
#include <algorithm>
#include <memory>
#include <numeric>
#include <sstream>
#include <thread>

#include "bench.h"
#include "middleware/query_engine.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "sql/evaluator.h"
#include "sql/fingerprint.h"
#include "storage/database.h"

namespace qbench {
namespace {

using qc::Value;
namespace mw = qc::middleware;

constexpr int64_t kKeys = 100'000;       // KV rows = Zipf population
constexpr size_t kEntryCap = 10'000;     // a tenth of the population
constexpr double kZipfExponent = 0.99;
constexpr int64_t kGroups = 331;         // GRP = K % 331: ~302 rows per group
constexpr double kPointShare = 0.75;     // of reads
constexpr double kWriteShare = 0.01;     // of operations
constexpr int64_t kSessions = 64;        // SESS rows
constexpr int kClients = 2;
constexpr uint64_t kWarmupReads = 15'000;  // per client, before the window
constexpr int kSetups = 3;
constexpr uint64_t kTraceEvery = 16;

const char* const kPointSql = "SELECT K, A, B FROM KV WHERE K = $1";

int64_t FormulaA(int64_t k) { return (k * 7919) % 1'000'003; }
int64_t FormulaB(int64_t k) { return k % 1000; }

/// Rows of `SELECT K, A FROM KV WHERE GRP = g AND K <= limit`.
int64_t GroupRows(int64_t g, int64_t limit) {
  const int64_t first = g == 0 ? kGroups : g;
  return first > limit ? 0 : (limit - first) / kGroups + 1;
}

std::string GroupSql(int64_t g, int64_t limit) {
  return "SELECT K, A FROM KV WHERE GRP = " + std::to_string(g) + " AND K <= " +
         std::to_string(limit);
}

/// Torn down by resetting its owner, so members die in reverse order (the
/// engine unsubscribes from a database that is still alive); member-wise
/// move assignment would destroy the database first.
struct System {
  std::unique_ptr<qc::storage::Database> db;
  std::unique_ptr<mw::CachedQueryEngine> engine;
  std::unique_ptr<qc::server::QcServer> server;
  double load_s = 0;
};

std::unique_ptr<System> SetUp(bool trace) {
  auto sys = std::make_unique<System>();
  const auto load_start = Clock::now();
  sys->db = std::make_unique<qc::storage::Database>();
  qc::storage::Table& kv = sys->db->CreateTable(
      "KV", qc::storage::Schema({{"K", qc::ValueType::kInt, false},
                                 {"GRP", qc::ValueType::kInt, false},
                                 {"A", qc::ValueType::kInt, false},
                                 {"B", qc::ValueType::kInt, false}}));
  for (int64_t k = 1; k <= kKeys; ++k) {
    kv.Insert({Value(k), Value(k % kGroups), Value(FormulaA(k)), Value(FormulaB(k))});
  }
  kv.CreateHashIndex(0);
  kv.CreateHashIndex(1);
  qc::storage::Table& sess = sys->db->CreateTable(
      "SESS", qc::storage::Schema({{"ID", qc::ValueType::kInt, false},
                                   {"N", qc::ValueType::kInt, false}}));
  for (int64_t id = 1; id <= kSessions; ++id) sess.Insert({Value(id), Value(int64_t{0})});
  sys->load_s = MicrosSince(load_start) / 1e6;

  mw::CachedQueryEngine::Options options;
  options.cache.memory_max_entries = kEntryCap;
  options.collect_latency_metrics = trace;
  sys->engine = std::make_unique<mw::CachedQueryEngine>(*sys->db, options);
  sys->server = std::make_unique<qc::server::QcServer>(*sys->engine, qc::server::ServerConfig{});
  sys->server->Start();
  return sys;
}

/// What one client thread measured.
struct ClientResult {
  Samples reads, misses, writes, done;
  uint64_t hits = 0;
  double write_sum_us = 0;
  Trace trace;
};

class Client {
 public:
  Client(const System& sys, const Zipf& keys, const Zipf& groups,
         const std::vector<int64_t>& key_of_rank, const std::vector<int64_t>& group_of_rank,
         uint64_t seed, Report& report, bool trace)
      : sys_(sys),
        keys_(keys),
        groups_(groups),
        key_of_rank_(key_of_rank),
        group_of_rank_(group_of_rank),
        rng_(seed),
        report_(report),
        trace_(trace) {
    Connect();
  }

  /// Reads whose latencies are dropped; their answers are checked and
  /// counted like any other.
  void Warm(uint64_t reads) {
    ClientResult ignored;
    for (uint64_t i = 0; i < reads; ++i) Read(ignored, false);
  }

  /// `vec` takes the traced run's own executions out of the vectorized
  /// counters.
  void Run(Clock::time_point deadline, ClientResult& out, VecCounter& vec) {
    SpanBuffer spans;
    spans_ = &spans;
    vec_ = &vec;
    while (Clock::now() < deadline) {
      ++op_index_;
      const bool traced = trace_ && op_index_ % kTraceEvery == 0;
      if (rng_.Chance(kWriteShare)) {
        Write(out);
      } else {
        Read(out, traced);
      }
    }
    out.trace.Merge(spans);
    spans_ = nullptr;
    vec_ = nullptr;
  }

 private:
  void Connect() {
    client_ = qc::server::QcClient();
    client_.Connect("127.0.0.1", sys_.server->port());
    point_ = client_.Prepare(kPointSql);
  }

  void Write(ClientResult& out) {
    const int64_t id = rng_.Uniform(1, kSessions);
    uint64_t affected = 0;
    const auto t0 = Clock::now();
    const bool ok = Attempt(report_.ops(), "write", [&] {
      affected = client_.Dml("UPDATE SESS SET N = $1 WHERE ID = $2",
                             {Value(static_cast<int64_t>(op_index_)), Value(id)});
    });
    const auto t1 = Clock::now();
    if (!ok) return Reconnect();
    if (affected != 1) {
      report_.ops().Fail("write", "wrong");
      report_.WrongAnswer("SESS update affected " + std::to_string(affected) + " rows");
      return;
    }
    out.writes.Add(MicrosSince(t0, t1), t0);
    out.write_sum_us += MicrosSince(t0, t1);
    out.done.Add(0, t0);
  }

  void Read(ClientResult& out, bool traced) {
    const bool point = rng_.Chance(kPointShare);
    std::string sql;
    std::vector<Value> params;
    int64_t key = 0, group = 0, limit = 0;
    if (point) {
      key = key_of_rank_[keys_.Sample(rng_)];
      params.emplace_back(key);
    } else {
      group = group_of_rank_[groups_.Sample(rng_)];
      static constexpr int64_t kLimits[] = {kKeys / 8, kKeys / 2, kKeys};
      limit = kLimits[rng_.Uniform(0, 2)];
      sql = GroupSql(group, limit);
    }
    const char* op = point ? "read_point" : "read_group";
    qc::server::QcClient::QueryResult reply;
    const auto t0 = Clock::now();
    const bool ok = Attempt(report_.ops(), op, [&] {
      reply = point ? client_.Execute(point_.id, params) : client_.Query(sql);
    });
    const auto t1 = Clock::now();
    if (!ok) return Reconnect();

    const std::string wrong = point ? CheckPoint(reply.result, key)
                                    : CheckGroup(reply.result, group, limit);
    if (!wrong.empty()) {
      report_.ops().Fail(op, "wrong");
      report_.WrongAnswer(wrong);
      return;
    }
    const double us = MicrosSince(t0, t1);
    out.reads.Add(us, t0);
    out.done.Add(0, t0);
    if (reply.cache_hit) {
      ++out.hits;
    } else {
      out.misses.Add(us, t0);
    }
    if (traced) TraceRead(point ? kPointSql : sql, params, reply, t0, t1, out.trace);
  }

  /// Traced run: re-time each layer's public call on this read's inputs.
  void TraceRead(const std::string& sql, const std::vector<Value>& params,
                 const qc::server::QcClient::QueryResult& reply, Clock::time_point t0,
                 Clock::time_point t1, Trace& trace) {
    mw::CachedQueryEngine& engine = *sys_.engine;
    const int32_t root =
        spans_->Root(reply.cache_hit ? "read.hit" : "read.miss", t0, t1, op_index_);
    std::shared_ptr<const qc::sql::BoundQuery> bound;
    spans_->Child("sql.prepare", root, [&] { bound = engine.Prepare(sql); });
    std::string key;
    const double fp = spans_->Child(
        "sql.fingerprint", root, [&] { key = qc::sql::Fingerprint(bound->stmt(), params); });
    const double wire_us = MicrosSince(t0, t1);
    if (reply.cache_hit) {
      spans_->Child("cache.probe", root, [&] { engine.cache().Get(key); });
      const auto h0 = Clock::now();
      if (engine.Execute(bound, params).cache_hit) {
        const auto h1 = Clock::now();
        spans_->ChildInterval("middleware.hit", root, h0, h1);
        trace.AddDerived("server.wire_overhead", wire_us - MicrosSince(h0, h1));
      }
    } else {
      // KV is never written, so the unlocked execution reads what the
      // served miss read.
      double exec = 0;
      vec_->Exclude([&] {
        exec = spans_->Child("sql.execute", root, [&] { qc::sql::Execute(*bound, params); });
      });
      trace.AddDerived("miss.minus_fingerprint_execute", wire_us - fp - exec);
    }
    qc::server::WireWriter w;
    spans_->Child("server.encode", root,
                  [&] { qc::server::EncodeResultSet(reply.result, reply.cache_hit, w); });
    spans_->Child("server.decode", root, [&] {
      qc::server::WireReader r(w.bytes());
      qc::server::DecodeResultSet(r);
    });
    trace.AddDerived("server.response_bytes", static_cast<double>(w.bytes().size()));
  }

  static std::string CheckPoint(const qc::sql::ResultSet& result, int64_t key) {
    if (result.row_count() == 1 && result.rows()[0].size() == 3 &&
        result.rows()[0][0] == Value(key) && result.rows()[0][1] == Value(FormulaA(key)) &&
        result.rows()[0][2] == Value(FormulaB(key))) {
      return "";
    }
    return "point read K=" + std::to_string(key) + " returned " + result.ToString(3);
  }

  static std::string CheckGroup(const qc::sql::ResultSet& result, int64_t group, int64_t limit) {
    bool ok = static_cast<int64_t>(result.row_count()) == GroupRows(group, limit);
    for (const auto& row : result.rows()) {
      if (!ok) break;
      ok = row.size() == 2 && row[0].is_int() && row[0].as_int() % kGroups == group &&
           row[0].as_int() >= 1 && row[0].as_int() <= limit &&
           row[1] == Value(FormulaA(row[0].as_int()));
    }
    return ok ? "" : GroupSql(group, limit) + " returned " + result.ToString(3);
  }

  /// A failed call may leave the connection unusable: reconnect, and count
  /// a failed reconnect against the next operation rather than retrying.
  void Reconnect() {
    try {
      Connect();
    } catch (const std::exception&) {
    }
  }

  const System& sys_;
  const Zipf& keys_;
  const Zipf& groups_;
  const std::vector<int64_t>& key_of_rank_;
  const std::vector<int64_t>& group_of_rank_;
  qc::Rng rng_;
  Report& report_;
  bool trace_;
  qc::server::QcClient client_;
  qc::server::QcClient::PreparedHandle point_;
  uint64_t op_index_ = 0;
  SpanBuffer* spans_ = nullptr;
  VecCounter* vec_ = nullptr;
};

}  // namespace

int RunWireZipf(const RunOptions& options) {
  Report report(options);
  const Zipf keys(static_cast<size_t>(kKeys), kZipfExponent);
  const Zipf groups(static_cast<size_t>(kGroups), kZipfExponent);
  // Seeded permutations scatter the hot ranks over the key and group space.
  qc::Rng perm(options.seed);
  std::vector<int64_t> key_of_rank(static_cast<size_t>(kKeys));
  std::iota(key_of_rank.begin(), key_of_rank.end(), 1);
  std::shuffle(key_of_rank.begin(), key_of_rank.end(), perm.engine());
  std::vector<int64_t> group_of_rank(static_cast<size_t>(kGroups));
  std::iota(group_of_rank.begin(), group_of_rank.end(), 0);
  std::shuffle(group_of_rank.begin(), group_of_rank.end(), perm.engine());

  std::vector<double> setups, loads;
  std::unique_ptr<System> sys;
  std::vector<std::unique_ptr<Client>> clients;
  for (int s = 0; s < kSetups; ++s) {
    clients.clear();  // tear the previous set-up down before timing the next
    sys.reset();
    const auto start = Clock::now();
    sys = SetUp(options.trace);
    for (int c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<Client>(*sys, keys, groups, key_of_rank, group_of_rank,
                                                 options.seed * 1000 + static_cast<uint64_t>(c),
                                                 report, options.trace));
    }
    std::vector<std::thread> warmers;
    for (auto& client : clients) warmers.emplace_back([&client] { client->Warm(kWarmupReads); });
    for (auto& t : warmers) t.join();
    setups.push_back(MicrosSince(start) / 1e6);
    loads.push_back(sys->load_s);
  }

  std::vector<ClientResult> results(kClients);
  VecCounter vec;
  const EngineCounters before = EngineCounters::Of(*sys->engine);
  const qc::server::ServerStatsSnapshot server_before = sys->server->stats();
  Window window(Clock::now(), options.seconds);
  const auto deadline = window.deadline();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] { clients[c]->Run(deadline, results[c], vec); });
  }
  for (auto& t : threads) t.join();
  window.Close(Clock::now());
  const EngineCounters after = EngineCounters::Of(*sys->engine);
  const qc::server::ServerStatsSnapshot server_after = sys->server->stats();
  clients.clear();
  sys->server->Stop();

  ClientResult all;
  for (ClientResult& r : results) {
    all.reads.Append(r.reads);
    all.misses.Append(r.misses);
    all.writes.Append(r.writes);
    all.hits += r.hits;
    all.done.Append(r.done);
    all.write_sum_us += r.write_sum_us;
    all.trace.Absorb(r.trace);
  }

  std::ostringstream note;
  note << "wire-zipf: keys=" << kKeys << " entry_cap=" << kEntryCap << " zipf=" << kZipfExponent
       << " groups=" << kGroups << " point_share=" << kPointShare << " write_share=" << kWriteShare
       << " clients=" << kClients << " warmup_reads=" << kClients * kWarmupReads
;
  report.Note(note.str());

  report.EndToEnd("setup_s", Median(setups), "s");
  report.Throughput(all.done, Samples(), window);
  report.Percentile("read_p50_us", all.reads, 0.50, window);
  report.Percentile("read_p99_us", all.reads, 0.99, window);
  report.Percentile("miss_p50_us", all.misses, 0.50, window);
  report.EndToEnd("hit_ratio",
                  all.reads.size() ? static_cast<double>(all.hits) /
                                         static_cast<double>(all.reads.size())
                                   : 0,
                  "ratio");
  report.Percentile("write_p50_us", all.writes, 0.50, window);
  report.Percentile("write_p95_us", all.writes, 0.95, window);
  // One node: the DML_OK reply is sent only after the invalidation has run.
  report.Percentile("invalidation_p50_us", all.writes, 0.50, window);
  report.Percentile("invalidation_p95_us", all.writes, 0.95, window);
  report.EndToEnd("peak_rss_mb", PeakRssMb(), "MB");

  if (options.trace) {
    std::map<std::string, double> layers;
    AddEngineDeltas(layers, before, after);
    vec.AddTo(layers);
    const Trace& trace = all.trace;
    const double invalidate_us = MeanInvalidateMicros(before, after);
    layers["dup.invalidate_us"] = invalidate_us;
    if (all.writes.size() > 0) {
      layers["sql.dml_us"] =
          all.write_sum_us / static_cast<double>(all.writes.size()) - invalidate_us;
    }
    for (const char* name : {"sql.prepare", "sql.fingerprint", "sql.execute", "cache.probe",
                             "middleware.hit", "server.encode", "server.decode",
                             "server.wire_overhead"}) {
      layers[std::string(name) + "_us"] = trace.MedianMicros(name);
    }
    layers["middleware.miss_overhead_us"] =
        trace.MedianMicros("miss.minus_fingerprint_execute") - layers["server.wire_overhead_us"];
    layers["server.response_bytes"] = trace.Mean("server.response_bytes");
    const auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(a - b); };
    layers["server.frames_received"] =
        d(server_after.frames_received, server_before.frames_received);
    layers["server.busy_rejections"] =
        d(server_after.busy_rejections, server_before.busy_rejections);
    layers["server.slow_consumer_closes"] =
        d(server_after.slow_consumer_closes, server_before.slow_consumer_closes);
    layers["storage.load_s"] = Median(loads);
    report.Layers(layers);
    report.Note("trace: " + std::to_string(trace.Count("sql.fingerprint")) +
                " sampled reads; spans written to " + trace.Write(TracePath(options)));
  }
  return report.Finish();
}

}  // namespace qbench
