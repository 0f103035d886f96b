// Workload cluster-cdc: cluster coherence end to end. One process holds a
// storage node (a QcServer with cdc_publish) and two cache nodes, each a
// CacheNodeRuntime with its own QcServer, wired over loopback. Two client
// threads run closed loops:
//   * a reader issues SELECTs through cache node 0; keys the ring gives to
//     node 1 are forwarded there;
//   * a writer issues UPDATEs through cache node 1, which forwards them to
//     the storage node, then waits until both cache nodes have applied the
//     write's CDC record (storage cdc_committed_seq + WaitForSeq).
//
// Oracle: writes stamp increasing versions (column VER). Once both nodes
// have applied a write, the writer publishes its version; a read that
// begins after that must return that version or a later one. The writer
// checks each of its writes that way with a read through cache node 0. The
// reader's rows must match their formula (GRP = ID % 50) and row count.
//
// The reader projects ID and GRP, not VER, so under value-aware DUP its
// cached results survive the VER updates and it reads mostly hits. A reader
// that projects VER races the CDC removals of the same keys and hits the
// registration/removal race of the GPS cache's deferred removal listener
// now and then, at a rate that differs from run to run (see README.md).
#include <atomic>
#include <barrier>
#include <functional>
#include <memory>
#include <numeric>
#include <sstream>
#include <thread>

#include "bench.h"
#include "cluster/cache_node.h"
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
using namespace std::chrono_literals;

constexpr int64_t kItems = 2'000;
constexpr int64_t kGroups = 50;          // GRP = ID % 50: 40 rows per group
constexpr double kZipfExponent = 0.99;   // reads; writes are uniform
constexpr double kPointShare = 0.8;      // of reads
constexpr size_t kLocalRankEvery = 4;    // every 4th Zipf rank is a key cache node 0 owns
constexpr int kSetups = 3;
constexpr uint64_t kTraceEvery = 16;
constexpr auto kApplyTimeout = 2s;
constexpr int kReadsPerRound = 8;
constexpr uint64_t kSettleRounds = 4000;

/// The statements a read issues, and whether its second column is VER: the
/// reader's reads project GRP, the writer's read-back projects VER.
struct ReadShape {
  const char* point;
  const char* group;
  bool versioned;
};
constexpr ReadShape kStaticRead{"SELECT ID, GRP FROM ITEMS WHERE ID = $1",
                                "SELECT ID, GRP FROM ITEMS WHERE GRP = $1", false};
constexpr ReadShape kVersionRead{"SELECT ID, VER FROM ITEMS WHERE ID = $1",
                                 "SELECT ID, VER FROM ITEMS WHERE GRP = $1", true};
const char* const kUpdateSql = "UPDATE ITEMS SET VER = $1 WHERE ID = $2";

qc::storage::Table& CreateItems(qc::storage::Database& db) {
  qc::storage::Table& items = db.CreateTable(
      "ITEMS", qc::storage::Schema({{"ID", qc::ValueType::kInt, false},
                                    {"GRP", qc::ValueType::kInt, false},
                                    {"VER", qc::ValueType::kInt, false}}));
  items.CreateHashIndex(0);
  items.CreateHashIndex(1);
  return items;
}

/// A cache node: an empty local catalog (for binding), the runtime, its
/// engine and its server. Members are declared in construction order.
struct CacheNode {
  qc::storage::Database db;
  std::unique_ptr<qc::cluster::CacheNodeRuntime> runtime;
  std::unique_ptr<mw::CachedQueryEngine> engine;
  std::unique_ptr<qc::server::QcServer> server;

  ~CacheNode() {
    if (runtime) runtime->Stop();
    if (server) server->Stop();
  }
};

struct System {
  std::unique_ptr<qc::storage::Database> db;
  qc::storage::Table* items = nullptr;
  std::unique_ptr<mw::CachedQueryEngine> engine;
  std::unique_ptr<qc::server::QcServer> server;
  std::vector<std::unique_ptr<CacheNode>> nodes;
  double load_s = 0;

  ~System() {
    nodes.clear();
    if (server) server->Stop();
  }
};

std::unique_ptr<System> SetUp(bool trace) {
  auto sys = std::make_unique<System>();
  const auto load_start = Clock::now();
  sys->db = std::make_unique<qc::storage::Database>();
  sys->items = &CreateItems(*sys->db);
  for (int64_t id = 1; id <= kItems; ++id) {
    sys->items->Insert({Value(id), Value(id % kGroups), Value(int64_t{0})});
  }
  sys->load_s = MicrosSince(load_start) / 1e6;

  mw::CachedQueryEngine::Options storage_options;
  storage_options.collect_latency_metrics = trace;
  sys->engine = std::make_unique<mw::CachedQueryEngine>(*sys->db, storage_options);
  qc::server::ServerConfig storage_config;
  storage_config.cdc_publish = true;
  sys->server = std::make_unique<qc::server::QcServer>(*sys->engine, storage_config);
  sys->server->Start();

  const std::vector<std::string> names = {"cache0", "cache1"};
  const std::vector<uint16_t> ports = {PickFreePort(), PickFreePort()};
  for (size_t i = 0; i < names.size(); ++i) {
    auto node = std::make_unique<CacheNode>();
    CreateItems(node->db);
    qc::cluster::CacheNodeConfig config;
    config.name = names[i];
    config.upstream_port = sys->server->port();
    config.peers.push_back({names[1 - i], "127.0.0.1", ports[1 - i]});
    node->runtime = std::make_unique<qc::cluster::CacheNodeRuntime>(config);
    node->engine = std::make_unique<mw::CachedQueryEngine>(
        node->db, node->runtime->DecorateEngineOptions(mw::CachedQueryEngine::Options{}));
    qc::server::ServerConfig server_config;
    server_config.port = ports[i];
    node->server = std::make_unique<qc::server::QcServer>(*node->engine, server_config);
    node->runtime->AttachServer(*node->engine, *node->server);
    node->server->Start();
    node->runtime->Start();
    sys->nodes.push_back(std::move(node));
  }
  // Both appliers must be on the stream before the first write, or that
  // write would reach them as a resubscribe gap.
  const auto deadline = Clock::now() + kApplyTimeout;
  while (sys->server->stats().cdc_subscribers < sys->nodes.size()) {
    if (Clock::now() > deadline) throw std::runtime_error("cache nodes did not subscribe");
    std::this_thread::sleep_for(1ms);
  }
  return sys;
}

/// The reader and the writer proceed in rounds: the writer's write runs
/// alone, then its read-back runs beside the reader's kReadsPerRound reads.
/// Left to run freely, the two closed loops settled into a different
/// read/write mix in each run, and every metric moved with the mix.
class Rounds {
 public:
  Rounds(Clock::time_point deadline, uint64_t max_rounds) : end_{deadline, max_rounds, false} {}

  /// Wait for the other thread; false once the deadline or the round count
  /// is reached.
  bool Next() {
    barrier_.arrive_and_wait();
    return !end_.reached;
  }

  /// Within a round: the writer calls it once its write has landed on every
  /// cache node (or failed), the reader before its reads. A write then runs
  /// alone, and its latency is the write path's, not a share of whatever
  /// reads the scheduler interleaved with it: with the two overlapping, the
  /// write p95 moved by up to 37 % between sets of ten runs.
  void WriteLanded() { landed_.arrive_and_wait(); }

 private:
  struct End {
    Clock::time_point deadline;
    uint64_t rounds_left;
    bool reached;
    void operator()() noexcept {
      reached = rounds_left-- == 0 || Clock::now() >= deadline;
    }
  };
  End end_;
  std::barrier<std::reference_wrapper<End>> barrier_{2, std::ref(end_)};
  std::barrier<> landed_{2};
};

/// Versions whose CDC record both cache nodes have applied, per item.
using Landed = std::vector<std::atomic<int64_t>>;

struct ReaderResult {
  Samples reads, misses, done;
  uint64_t hits = 0;
  Trace trace;
};

struct WriterResult {
  ReaderResult checks;  // the writer's read of each write through cache node 0
  Samples writes, invalidations;
  std::vector<double> lags;
  uint64_t applied_at_ack = 0;  // traced run: writes both nodes had applied when acknowledged
  double write_sum_us = 0;
};

/// Rows must be the requested items, each at a version no older than the
/// one landed on every node before the read began, or with its GRP.
std::string Check(const qc::sql::ResultSet& result, const ReadShape& shape, bool point,
                  int64_t arg, const std::vector<int64_t>& floor) {
  std::ostringstream what;
  what << (point ? shape.point : shape.group) << " $1=" << arg << ": ";
  if (result.row_count() != floor.size()) {
    what << result.row_count() << " rows, expected " << floor.size();
    return what.str();
  }
  for (const auto& row : result.rows()) {
    const int64_t id = row.size() == 2 && row[0].is_int() ? row[0].as_int() : 0;
    const bool mine = point ? id == arg : (id >= 1 && id <= kItems && id % kGroups == arg);
    if (!mine || !row[1].is_int()) {
      what << "unexpected row " << id;
      return what.str();
    }
    if (!shape.versioned) {
      if (row[1].as_int() == id % kGroups) continue;
      what << "ID " << id << " with GRP " << row[1].as_int();
      return what.str();
    }
    const size_t slot =
        point ? 0 : static_cast<size_t>((id - (arg == 0 ? kGroups : arg)) / kGroups);
    if (row[1].as_int() < floor[slot]) {
      return "stale " + what.str() + "ID " + std::to_string(id) + " at version " +
             std::to_string(row[1].as_int()) + ", applied everywhere before the read: " +
             std::to_string(floor[slot]);
    }
  }
  return "";
}

/// Replace a client whose call failed with a fresh connection. A failed
/// reconnect shows as the next operation's failure; nothing is retried.
void Reconnect(qc::server::QcClient& client, uint16_t port) {
  client = qc::server::QcClient();
  try {
    client.Connect("127.0.0.1", port);
  } catch (const std::exception&) {
  }
}

/// One read through `client`, checked against the versions every node had
/// applied before it began. Returns false when it failed (counted in `op`).
bool CheckedRead(qc::server::QcClient& client, const Landed& landed, Report& report,
                 const char* op, const ReadShape& shape, bool point, int64_t arg,
                 qc::server::QcClient::QueryResult& reply) {
  std::vector<int64_t> floor;
  for (int64_t id = point ? arg : (arg == 0 ? kGroups : arg); id <= kItems;
       id += point ? kItems : kGroups) {
    floor.push_back(landed[static_cast<size_t>(id - 1)].load(std::memory_order_acquire));
  }
  if (!Attempt(report.ops(), op,
               [&] { reply = client.Query(point ? shape.point : shape.group, {Value(arg)}); })) {
    return false;
  }
  const std::string wrong = Check(reply.result, shape, point, arg, floor);
  if (wrong.empty()) return true;
  report.ops().Fail(op, wrong.rfind("stale", 0) == 0 ? "stale" : "wrong");
  report.WrongAnswer(wrong);
  return false;
}

/// Traced run: re-time each layer's public call on one read's inputs.
/// `storage` is the tracer's own connection to the storage node.
void TraceRead(System& sys, qc::server::QcClient& storage, SpanBuffer& spans, Trace& trace,
               VecCounter& vec, const char* sql, const std::vector<Value>& params,
               const qc::server::QcClient::QueryResult& reply, Clock::time_point t0,
               Clock::time_point t1, uint64_t request) {
  const int32_t root = spans.Root(reply.cache_hit ? "read.hit" : "read.miss", t0, t1, request);
  mw::CachedQueryEngine& entry = *sys.nodes[0]->engine;
  std::shared_ptr<const qc::sql::BoundQuery> bound;
  spans.Child("sql.prepare", root, [&] { bound = entry.Prepare(sql); });
  std::string key;
  spans.Child("sql.fingerprint", root,
              [&] { key = qc::sql::Fingerprint(bound->stmt(), params); });
  const std::string& owner_name = sys.nodes[0]->runtime->ring().OwnerOf(key);
  mw::CachedQueryEngine& owner = *sys.nodes[owner_name == "cache0" ? 0 : 1]->engine;
  const double wire_us = MicrosSince(t0, t1);
  if (reply.cache_hit) {
    spans.Child("cache.probe", root, [&] { owner.cache().Get(key); });
    const auto h0 = Clock::now();
    if (owner.Execute(owner.Prepare(sql), params).cache_hit) {
      const auto h1 = Clock::now();
      spans.ChildInterval("middleware.hit", root, h0, h1);
      trace.AddDerived("server.wire_overhead", wire_us - MicrosSince(h0, h1));
    }
  } else {
    spans.Child("sql.execute", root, [&] {
      const auto storage_bound = sys.engine->Prepare(sql);
      const auto lock = sys.items->ReadLock();
      vec.Exclude([&] { qc::sql::Execute(*storage_bound, params); });
    });
    const double fill = spans.Child("cluster.remote_fill", root,
                                    [&] { storage.QuerySeq(sql, params); });
    trace.AddDerived("miss.minus_remote_fill", wire_us - fill);
  }
  qc::server::WireWriter w;
  spans.Child("server.encode", root,
              [&] { qc::server::EncodeResultSet(reply.result, reply.cache_hit, w); });
  spans.Child("server.decode", root, [&] {
    qc::server::WireReader r(w.bytes());
    qc::server::DecodeResultSet(r);
  });
  trace.AddDerived("server.response_bytes", static_cast<double>(w.bytes().size()));
}

class Reader {
 public:
  Reader(System& sys, const Landed& landed, uint64_t seed, Report& report, bool trace)
      : sys_(sys),
        landed_(landed),
        zipf_(static_cast<size_t>(kItems), kZipfExponent),
        id_of_rank_(static_cast<size_t>(kItems)),
        rng_(seed),
        report_(report),
        trace_(trace) {
    AssignRanks();
    client_.Connect("127.0.0.1", sys_.nodes[0]->server->port());
    if (trace_) storage_client_.Connect("127.0.0.1", sys_.server->port());
  }

  /// Zipf ranks to item IDs: a seeded shuffle, arranged so that every
  /// kLocalRankEvery-th rank (from rank kLocalRankEvery - 1) is an ID whose
  /// point read cache node 0 owns and the other ranks are IDs the ring gives
  /// to cache node 1. So about 80 % of the point reads' Zipf mass is
  /// ring-forwarded whatever the seed; with ownership left to the shuffle,
  /// the forwarded share ranged from 48 % to 64 % between seeds, right where
  /// the read median moves between the local and the forwarded mode.
  void AssignRanks() {
    std::vector<int64_t> ids(static_cast<size_t>(kItems));
    std::iota(ids.begin(), ids.end(), 1);
    std::shuffle(ids.begin(), ids.end(), rng_.engine());
    const auto bound = sys_.nodes[0]->engine->Prepare(shape_.point);
    const qc::cluster::HashRing& ring = sys_.nodes[0]->runtime->ring();
    std::vector<int64_t> local, remote;
    for (int64_t id : ids) {
      const bool mine = ring.OwnerOf(qc::sql::Fingerprint(bound->stmt(), {Value(id)})) == "cache0";
      (mine ? local : remote).push_back(id);
    }
    size_t next_local = 0, next_remote = 0;
    for (size_t rank = 0; rank < id_of_rank_.size(); ++rank) {
      const bool want_local = rank % kLocalRankEvery == kLocalRankEvery - 1;
      const bool take_local =
          next_remote == remote.size() || (want_local && next_local < local.size());
      id_of_rank_[rank] = take_local ? local[next_local++] : remote[next_remote++];
    }
  }

  void Warm() {
    // Every point and group read once, with no writes running.
    for (int64_t id = 1; id <= kItems; ++id) client_.Query(shape_.point, {Value(id)});
    for (int64_t g = 0; g < kGroups; ++g) client_.Query(shape_.group, {Value(g)});
  }

  void Run(Rounds& rounds, ReaderResult& out, VecCounter& vec) {
    SpanBuffer spans;
    uint64_t index = 0;
    while (rounds.Next()) {
      rounds.WriteLanded();
      for (int i = 0; i < kReadsPerRound; ++i) Read(spans, out, vec, ++index);
    }
    out.trace.Merge(spans);
  }

 private:
  void Read(SpanBuffer& spans, ReaderResult& out, VecCounter& vec, uint64_t index) {
    const bool point = rng_.Chance(kPointShare);
    const int64_t arg = point ? id_of_rank_[zipf_.Sample(rng_)] : rng_.Uniform(0, kGroups - 1);
    const std::vector<Value> params = {Value(arg)};
    const char* sql = point ? shape_.point : shape_.group;
    const char* op = point ? "read_point" : "read_group";

    qc::server::QcClient::QueryResult reply;
    const auto t0 = Clock::now();
    if (!CheckedRead(client_, landed_, report_, op, shape_, point, arg, reply)) {
      Reconnect(client_, sys_.nodes[0]->server->port());
      return;
    }
    const auto t1 = Clock::now();
    const double us = MicrosSince(t0, t1);
    out.reads.Add(us, t0);
    out.done.Add(0, t0);
    if (reply.cache_hit) {
      ++out.hits;
    } else {
      out.misses.Add(us, t0);
    }
    if (trace_ && index % kTraceEvery == 0) {
      TraceRead(sys_, storage_client_, spans, out.trace, vec, sql, params, reply, t0, t1, index);
    }
  }

  System& sys_;
  const Landed& landed_;
  const ReadShape& shape_ = kStaticRead;
  Zipf zipf_;
  std::vector<int64_t> id_of_rank_;
  qc::Rng rng_;
  Report& report_;
  bool trace_;
  qc::server::QcClient client_;
  qc::server::QcClient storage_client_;
};

void RunWriter(System& sys, Landed& landed, qc::Rng& rng, int64_t& version, Report& report,
               bool trace, Rounds& rounds, WriterResult& out, VecCounter& vec) {
  qc::server::QcClient client, checker, storage;
  client.Connect("127.0.0.1", sys.nodes[1]->server->port());
  checker.Connect("127.0.0.1", sys.nodes[0]->server->port());
  if (trace) storage.Connect("127.0.0.1", sys.server->port());
  SpanBuffer spans;
  uint64_t index = 0;
  while (rounds.Next()) {
    const int64_t id = rng.Uniform(1, kItems);
    ++version;
    ++index;
    // The write, until both cache nodes applied it; false when it failed.
    const auto write = [&]() -> bool {
      uint64_t affected = 0;
      const auto t0 = Clock::now();
      if (!Attempt(report.ops(), "write", [&] {
            affected = client.Dml(kUpdateSql, {Value(version), Value(id)});
          })) {
        Reconnect(client, sys.nodes[1]->server->port());
        return false;
      }
      const auto acked = Clock::now();
      if (affected != 1) {
        report.ops().Fail("write", "wrong");
        report.WrongAnswer("UPDATE of ID " + std::to_string(id) + " affected " +
                           std::to_string(affected) + " rows");
        return false;
      }
      // The record is committed before the DML is acknowledged.
      const uint64_t seq = sys.server->cdc_committed_seq();
      if (trace) {
        bool landed_at_ack = true;
        for (auto& node : sys.nodes) {
          landed_at_ack = landed_at_ack && node->runtime->WaitForSeq(seq, 0ms);
        }
        out.applied_at_ack += landed_at_ack ? 1 : 0;
      }
      bool applied = true;
      for (auto& node : sys.nodes) {
        applied = applied && node->runtime->WaitForSeq(seq, kApplyTimeout);
      }
      const auto done = Clock::now();
      if (!applied) {
        report.ops().Fail("write", "apply_timeout");
        return false;
      }
      landed[static_cast<size_t>(id - 1)].store(version, std::memory_order_release);
      out.writes.Add(MicrosSince(t0, acked), t0);
      out.write_sum_us += MicrosSince(t0, acked);
      out.invalidations.Add(MicrosSince(t0, done), t0);
      out.lags.push_back(MicrosSince(acked, done));
      out.checks.done.Add(0, t0);
      return true;
    };
    const bool written = write();
    rounds.WriteLanded();
    if (!written) continue;

    // Read the write back through the other cache node.
    qc::server::QcClient::QueryResult reply;
    const auto r0 = Clock::now();
    if (!CheckedRead(checker, landed, report, "read_after_write", kVersionRead, true, id, reply)) {
      Reconnect(checker, sys.nodes[0]->server->port());
      continue;
    }
    const auto r1 = Clock::now();
    const double us = MicrosSince(r0, r1);
    out.checks.reads.Add(us, r0);
    out.checks.done.Add(0, r0);
    if (reply.cache_hit) {
      ++out.checks.hits;
    } else {
      out.checks.misses.Add(us, r0);
    }
    if (trace && index % kTraceEvery == 0) {
      TraceRead(sys, storage, spans, out.checks.trace, vec, kVersionRead.point, {Value(id)}, reply,
                r0, r1, index);
    }
  }
  out.checks.trace.Merge(spans);
}

struct ClusterCounters {
  std::vector<EngineCounters> nodes;
  EngineCounters storage;
  std::vector<qc::cluster::CacheNodeRuntime::Counters> runtimes;
  std::vector<qc::server::ServerStatsSnapshot> servers;  // storage first

  static ClusterCounters Of(const System& sys) {
    ClusterCounters c;
    c.storage = EngineCounters::Of(*sys.engine);
    c.servers.push_back(sys.server->stats());
    for (const auto& node : sys.nodes) {
      c.nodes.push_back(EngineCounters::Of(*node->engine));
      c.runtimes.push_back(node->runtime->counters());
      c.servers.push_back(node->server->stats());
    }
    return c;
  }
};

}  // namespace

int RunClusterCdc(const RunOptions& options) {
  Report report(options);
  std::vector<double> setups, loads;
  std::unique_ptr<System> sys;
  std::unique_ptr<Landed> landed;
  std::unique_ptr<Reader> reader;
  qc::Rng writer_rng(options.seed ^ 0x5bd1e995ULL);
  int64_t version = 0;
  // One stretch of rounds: the writer on its own thread, the reader here.
  const auto run_rounds = [&](Rounds& rounds, ReaderResult& reads, WriterResult& writes,
                              VecCounter& vec) {
    std::thread writer([&] {
      RunWriter(*sys, *landed, writer_rng, version, report, options.trace, rounds, writes, vec);
    });
    reader->Run(rounds, reads, vec);
    writer.join();
  };
  for (int s = 0; s < kSetups; ++s) {
    reader.reset();  // tear the previous set-up down before timing the next
    sys.reset();
    const auto start = Clock::now();
    sys = SetUp(options.trace);
    landed = std::make_unique<Landed>(static_cast<size_t>(kItems));
    reader = std::make_unique<Reader>(*sys, *landed, options.seed, report, options.trace);
    reader->Warm();
    version = 0;
    setups.push_back(MicrosSince(start) / 1e6);
    loads.push_back(sys->load_s);
  }
  // The mix runs faster for its first seconds on a fresh system (about 1.5x
  // for 2.5 s), so a fixed stretch of it settles the last set-up before the
  // window. It is traffic the benchmark adds, not set-up a user pays, and
  // its speed swings with that transient, so it stays out of setup_s.
  {
    Rounds settle(Clock::time_point::max(), kSettleRounds);
    ReaderResult settle_reads;
    WriterResult settle_writes;
    VecCounter settle_vec;
    const auto start = Clock::now();
    run_rounds(settle, settle_reads, settle_writes, settle_vec);
    report.Note("settle: " + std::to_string(kSettleRounds) + " rounds in " +
                std::to_string(MicrosSince(start) / 1e6) + " s");
  }

  ReaderResult reads;
  WriterResult writes;
  const ClusterCounters before = ClusterCounters::Of(*sys);
  VecCounter vec;
  Window window(Clock::now(), options.seconds);
  Rounds rounds(window.deadline(), UINT64_MAX);
  run_rounds(rounds, reads, writes, vec);
  window.Close(Clock::now());
  const ClusterCounters after = ClusterCounters::Of(*sys);
  reader.reset();
  sys.reset();
  reads.reads.Append(writes.checks.reads);
  reads.misses.Append(writes.checks.misses);
  reads.done.Append(writes.checks.done);
  reads.hits += writes.checks.hits;
  reads.trace.Absorb(writes.checks.trace);

  std::ostringstream note;
  note << "cluster-cdc: items=" << kItems << " groups=" << kGroups << " zipf=" << kZipfExponent
       << " point_share=" << kPointShare << " reader_columns=ID,GRP"
       << " cache_nodes=2 clients=2 reads_per_write=" << kReadsPerRound + 1;
  report.Note(note.str());

  report.EndToEnd("setup_s", Median(setups), "s");
  report.Throughput(reads.done, Samples(), window);
  report.Percentile("read_p50_us", reads.reads, 0.50, window);
  report.Percentile("read_p99_us", reads.reads, 0.99, window);
  report.Percentile("miss_p50_us", reads.misses, 0.50, window);
  report.EndToEnd("hit_ratio",
                  reads.reads.size() ? static_cast<double>(reads.hits) /
                                           static_cast<double>(reads.reads.size())
                                     : 0,
                  "ratio");
  report.Percentile("write_p50_us", writes.writes, 0.50, window);
  report.Percentile("write_p95_us", writes.writes, 0.95, window);
  report.Percentile("invalidation_p50_us", writes.invalidations, 0.50, window);
  report.Percentile("invalidation_p95_us", writes.invalidations, 0.95, window);
  report.EndToEnd("peak_rss_mb", PeakRssMb(), "MB");

  if (options.trace) {
    std::map<std::string, double> layers;
    for (size_t i = 0; i < before.nodes.size(); ++i) {
      AddEngineDeltas(layers, before.nodes[i], after.nodes[i]);
    }
    vec.AddTo(layers);
    const Trace& trace = reads.trace;
    const double invalidate_us = MeanInvalidateMicros(before.storage, after.storage);
    layers["dup.invalidate_us"] = invalidate_us;
    if (writes.writes.size() > 0) {
      layers["sql.dml_us"] =
          writes.write_sum_us / static_cast<double>(writes.writes.size()) - invalidate_us;
    }
    for (const char* name : {"sql.prepare", "sql.fingerprint", "sql.execute", "cache.probe",
                             "middleware.hit", "server.encode", "server.decode",
                             "server.wire_overhead", "cluster.remote_fill"}) {
      layers[std::string(name) + "_us"] = trace.MedianMicros(name);
    }
    layers["middleware.miss_overhead_us"] =
        trace.MedianMicros("miss.minus_remote_fill") - layers["server.wire_overhead_us"];
    layers["server.response_bytes"] = trace.Mean("server.response_bytes");
    layers["cluster.apply_lag_us"] = Median(writes.lags);
    // With every thread on one CPU the appliers run before the writer is
    // woken by its acknowledgement, so apply_lag_us is only WaitForSeq's
    // return; the ordering seen is printed so that stays visible.
    report.Note("cdc order: both cache nodes had applied the record at the acknowledgement of " +
                std::to_string(writes.applied_at_ack) + " of " +
                std::to_string(writes.writes.size()) + " writes");
    const auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(a - b); };
    for (size_t i = 0; i < before.servers.size(); ++i) {
      const auto& sb = before.servers[i];
      const auto& sa = after.servers[i];
      if (i > 0) layers["server.frames_received"] += d(sa.frames_received, sb.frames_received);
      layers["server.busy_rejections"] += d(sa.busy_rejections, sb.busy_rejections);
      layers["server.slow_consumer_closes"] += d(sa.slow_consumer_closes, sb.slow_consumer_closes);
    }
    layers["cluster.cdc_events_dropped"] =
        d(after.servers[0].cdc_events_dropped, before.servers[0].cdc_events_dropped);
    for (size_t i = 0; i < before.runtimes.size(); ++i) {
      const auto& rb = before.runtimes[i];
      const auto& ra = after.runtimes[i];
      layers["cluster.cdc_events_applied"] += d(ra.cdc_events_applied, rb.cdc_events_applied);
      layers["cluster.ring_forwards"] += d(ra.ring_forwards, rb.ring_forwards);
      layers["cluster.gap_flushes"] += d(ra.gap_flushes, rb.gap_flushes);
    }
    layers["storage.load_s"] = Median(loads);
    report.Layers(layers);
    report.Note("trace: " + std::to_string(trace.Count("sql.fingerprint")) +
                " sampled reads; spans written to " + trace.Write(TracePath(options)));
  }
  return report.Finish();
}

}  // namespace qbench
