// prefbench: the served-workload benchmark of prefdb.
//
// One process hosts a Server over one Engine on loopback and drives it
// through server::Client over TCP, the way a Preference SQL front end
// would. Three workloads (README.md explains why each exists):
//
//   serve_hot       4 connections x pipeline depth 2, closed loop, replaying
//                   a fixed 10-statement mix over ~1k-row car and trip
//                   tables: every statement hits the plan and exec caches.
//   adhoc_large     1 connection, closed loop, SET threads=4, a 100k-row car
//                   table and a stream of distinct analyst statements that
//                   runs past both cache capacities.
//   feed_subscribe  a 100k-row car table; one writer in an open loop at 20
//                   mutations/s, two subscribers holding one skyline
//                   subscription each, and one closed-loop reader.
//
// Usage:
//   prefbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--mix FILE] [--commit SHA] [--source-digest HEX]
//             [--trace-out FILE]
//   prefbench --selftest
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload (half untraced, half traced) and then replays its statements
// through each layer's public functions to print the per-layer metrics
// and the stage ledger. Every answer is checked after the timed window;
// a wrong answer makes the run exit 1. The last line of stdout is the
// JSON result.

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "datagen/cars.h"
#include "engine/engine.h"
#include "measure.h"
#include "psql/parser.h"
#include "replay.h"
#include "server/client.h"
#include "server/server.h"
#include "streams.h"

namespace prefbench {
namespace {

using prefdb::BmoOptions;
using prefdb::Engine;
using prefdb::Relation;
using prefdb::Tuple;
using prefdb::Value;
namespace srv = prefdb::server;

// ------------------------------------------------------------ workloads

/// Fixed per workload: never derived from the host's core count.
struct Spec {
  const char* name;
  size_t car_rows;
  size_t trip_rows;       // 0 = no trip table
  size_t readers;         // closed-loop read connections
  size_t depth;           // pipelined requests per read connection
  size_t server_workers;  // ServerOptions::num_workers
  size_t session_threads; // SET threads=<n> on read sessions (0 = default)
  bool feed;              // writer + subscribers during the window
  size_t setup_reps;      // set-ups per run; setup_s is their median
};

// A 1k-row set-up takes milliseconds, so it is repeated more often to
// steady its median.
const Spec kSpecs[] = {
    {"serve_hot", 1000, 1000, 4, 2, 2, 0, false, 31},
    {"adhoc_large", 100000, 0, 1, 1, 2, 4, false, 9},
    {"feed_subscribe", 100000, 0, 1, 1, 2, 0, true, 9},
};

/// The read-only workloads run a write probe before their read window:
/// kProbeMutations of the feed's mutation mix in a closed loop on a
/// separate kProbeRows-row table. Their insert_* and delta_* metrics so
/// measure the feed's write path at the feed's size (a 1k-row insert is too
/// short to time steadily) without touching the tables their reads use. The loop is closed because paced
/// writes on an otherwise idle host ran in two speed regimes a factor of
/// two apart from run to run.
constexpr const char* kProbeTable = "listing";
constexpr const char* kProbeSubscribe =
    "SELECT * FROM listing PREFERRING LOWEST(price) AND LOWEST(mileage)";
constexpr size_t kProbeRows = 100000;
constexpr size_t kProbeMutations = 200;

constexpr double kFeedRatePerS = 20.0;
/// Replay inputs drawn past the window's mutations (feed replay inserts).
constexpr size_t kSpareMutations = 128;

/// The statement each table answers first during set-up.
constexpr const char* kFirstTripSql =
    "SELECT * FROM trip PREFERRING LOWEST(price) AND HIGHEST(duration)";

const char* const kEndToEndMetrics[][2] = {
    {"setup_s", "s"},          {"query_p50_ms", "ms"},
    {"query_tail_ms", "ms"},   {"queries_per_s", "1/s"},
    {"insert_p50_ms", "ms"},   {"delta_p50_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

/// Printed on report lines with their percentile and sample count, but
/// left out of the result: their spread across seeds on a 4-core host
/// (up to 0.43 of the median) exceeds the largest bound a result may
/// carry.
const char* const kReportOnlyMetrics[][2] = {
    {"insert_tail_ms", "ms"},
    {"delta_tail_ms", "ms"},
};

const char* const kPerLayerMetrics[][2] = {
    {"server.wire_overhead_us", "us"},
    {"server.serialize_us", "us"},
    {"server.parse_result_us", "us"},
    {"server.result_bytes", "bytes"},
    {"server.peak_queue_depth", "count"},
    {"server.rejected_overload", "count"},
    {"server.read_pauses", "count"},
    {"server.deltas_pushed", "count"},
    {"engine.plan_hit_ratio", "ratio"},
    {"engine.exec_hit_ratio", "ratio"},
    {"engine.lock_contention_ratio", "ratio"},
    {"engine.exec_refreshes", "count"},
    {"engine.invalidations", "count"},
    {"psql.parse_us", "us"},
    {"psql.translate_us", "us"},
    {"stats.derive_ms", "ms"},
    {"stats.add_row_us", "us"},
    {"eval.optimize_us", "us"},
    {"eval.kernel_ms", "ms"},
    {"eval.plan_regret_p50", "ratio"},
    {"eval.plan_regret_max", "ratio"},
    {"eval.window_est_ratio", "ratio"},
    {"exec.compile_us", "us"},
    {"exec.zero_copy_share", "ratio"},
    {"relation.cow_add_ms", "ms"},
    {"relation.materialize_us", "us"},
    {"ivm.apply_insert_us", "us"},
    {"ivm.apply_delete_us", "us"},
    {"ivm.delta_serialize_us", "us"},
    {"ledger.unaccounted_share", "ratio"},
    {"ledger.tracing_overhead", "ratio"},
};

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool selftest = false;
  std::string mix_path = "prefbench/query_mix.sql";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string trace_out;
};

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: prefbench --workload serve_hot|adhoc_large|"
               "feed_subscribe --seed N --seconds S --trace 0|1 [--smoke]\n"
               "                 [--mix FILE] [--commit SHA] "
               "[--source-digest HEX] [--trace-out FILE]\n"
               "       prefbench --selftest\n");
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (arg == "--workload") o.workload = next();
    else if (arg == "--seed") o.seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (arg == "--seconds") o.seconds = std::strtod(next().c_str(), nullptr);
    else if (arg == "--trace") o.trace = next() == "1";
    else if (arg == "--smoke") o.smoke = true;
    else if (arg == "--selftest") o.selftest = true;
    else if (arg == "--mix") o.mix_path = next();
    else if (arg == "--commit") o.commit = next();
    else if (arg == "--source-digest") o.source_digest = next();
    else if (arg == "--trace-out") o.trace_out = next();
    else Usage();
  }
  if (!o.selftest && (o.workload.empty() || !(o.seconds > 0))) Usage();
  return o;
}

std::vector<std::string> LoadMix(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open query mix " + path);
  std::vector<std::string> mix;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') mix.push_back(line);
  }
  if (mix.empty()) throw std::runtime_error("empty query mix " + path);
  return mix;
}

/// Everything generated from the seed; the program sees only these.
struct Inputs {
  Relation cars;
  Relation trips;
  Relation listing;  // the write probe's table (read-only workloads)
  std::vector<std::string> mix;
  /// Written to `write_table`: the feed's car table, or the probe's
  /// listing table.
  std::vector<Mutation> mutations;
  std::string write_table;
};

BmoOptions SessionBmo(const Spec& spec) {
  srv::SessionOptions session;
  session.bmo = srv::ServerOptions::DefaultSessionBmo();
  if (spec.session_threads > 0) {
    session.Apply("threads", std::to_string(spec.session_threads));
  }
  return session.bmo;
}

void Require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

// ---------------------------------------------------------------- setup

/// One served deployment. Members are destroyed in reverse order, so the
/// clients close before the server stops and the server before the
/// engine goes.
struct Deployment {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<srv::Server> server;
  std::vector<srv::Client> readers;
  srv::Client writer;
  std::vector<srv::Client> subscribers;
  /// Each subscription's state after its bootstrap resync.
  std::vector<std::multiset<std::string>> boot_rows;
  std::vector<std::string> subscribed_sql;
  /// Set-up stages in order, with their ms.
  std::vector<std::pair<std::string, double>> stages;
};

std::unique_ptr<Deployment> Setup(const Spec& spec, const Inputs& in,
                                  double* seconds) {
  auto d = std::make_unique<Deployment>();
  auto stage = [&d](const char* name, const std::function<void()>& fn) {
    Clock::time_point t0 = Clock::now();
    fn();
    d->stages.emplace_back(name, MsBetween(t0, Clock::now()));
  };
  Clock::time_point t0 = Clock::now();
  stage("engine_start", [&] { d->engine = std::make_unique<Engine>(); });
  stage("register_table", [&] {
    d->engine->RegisterTable("car", in.cars);
    if (in.trips.size() > 0) d->engine->RegisterTable("trip", in.trips);
  });
  stage("server_start", [&] {
    srv::ServerOptions options;
    options.num_workers = spec.server_workers;
    d->server = std::make_unique<srv::Server>(d->engine.get(), options);
    d->server->Start();
  });
  stage("connect", [&] {
    d->readers.resize(spec.readers);
    for (srv::Client& c : d->readers) {
      c.Connect("127.0.0.1", d->server->port());
      if (spec.session_threads > 0) {
        Require(c.Set("threads", std::to_string(spec.session_threads)).ok,
                "SET threads refused");
      }
    }
    if (spec.feed) d->writer.Connect("127.0.0.1", d->server->port());
  });
  if (spec.feed) {
    stage("subscribe", [&] {
      for (const char* sql : {kSubscribeA, kSubscribeB}) {
        d->subscribers.emplace_back();
        srv::Client& c = d->subscribers.back();
        c.Connect("127.0.0.1", d->server->port());
        Require(c.Subscribe(sql).ok, std::string("subscribe refused: ") + sql);
        std::optional<srv::WireDelta> boot = c.ReadDelta(60000);
        Require(boot && boot->resync, "no bootstrap resync");
        d->boot_rows.push_back(RowBag(boot->enters));
        d->subscribed_sql.push_back(sql);
      }
    });
  }
  stage("first_statement_car", [&] {
    Require(d->readers[0].Query(kUnsubscribed).ok, "first statement failed");
  });
  if (in.trips.size() > 0) {
    stage("first_statement_trip", [&] {
      Require(d->readers[0].Query(kFirstTripSql).ok, "first statement failed");
    });
  }
  *seconds = MsBetween(t0, Clock::now()) / 1000.0;
  return d;
}

// --------------------------------------------------------------- window

struct ReadRecord {
  uint32_t stmt = 0;
  bool ok = false;
  double ms = 0;
  uint64_t digest = 0;
  Clock::time_point done;
};

struct WriteRecord {
  size_t index = 0;  // position in Inputs::mutations
  bool insert = true;
  bool ok = false;
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point ack;
};

struct DeltaRecord {
  uint64_t version = 0;
  bool resync = false;
  Clock::time_point arrival;
  Relation enters;
  Relation exits;
};

/// Statement ids -> text. A deque keeps references stable while the
/// ad-hoc source appends.
struct StatementTable {
  std::deque<std::string> sql;
  std::function<uint32_t(size_t reader, size_t n)> pick;
};

/// Closed loop: keeps `depth` requests in flight until `deadline`, then
/// drains. Latency runs from send to receipt; the digest is taken after
/// the next request is already on the wire.
void ReadLoop(srv::Client* client, size_t reader, size_t depth,
              Clock::time_point deadline, StatementTable* table,
              std::vector<ReadRecord>* out, Tracer* tracer) {
  struct InFlight {
    srv::Client::ResponseFuture future;
    Clock::time_point sent;
    uint32_t stmt;
  };
  std::deque<InFlight> window;
  size_t n = 0;
  auto send = [&] {
    const uint32_t id = table->pick(reader, n++);
    window.push_back({client->SendQuery(table->sql[id]), Clock::now(), id});
  };
  while (window.size() < depth && Clock::now() < deadline) send();
  while (!window.empty()) {
    InFlight f = std::move(window.front());
    window.pop_front();
    srv::ClientResponse r = f.future.Get();
    Clock::time_point done = Clock::now();
    if (done < deadline) send();
    tracer->Record("request.read", 0, f.sent, done);
    out->push_back({f.stmt, r.ok, MsBetween(f.sent, done),
                    r.ok ? ResultDigest(r.relation, r.utilities) : 0, done});
  }
}

/// Issues mutations [begin, begin + count). With period_ms > 0 it is an
/// open loop: mutation i is due at start + i * period regardless of how
/// long earlier ones took; otherwise each is due when it is sent.
void WriteLoop(srv::Client* writer, const std::string& table,
               const std::vector<Mutation>& mutations, size_t begin,
               size_t count, double period_ms, Clock::time_point start,
               std::vector<WriteRecord>* out, Tracer* tracer) {
  for (size_t i = 0; i < count; ++i) {
    const Mutation& m = mutations[begin + i];
    WriteRecord rec;
    rec.index = begin + i;
    rec.insert = m.insert;
    if (period_ms > 0) {
      rec.due = start + std::chrono::microseconds(static_cast<int64_t>(
                            static_cast<double>(i) * period_ms * 1000.0));
      std::this_thread::sleep_until(rec.due);
    }
    rec.sent = Clock::now();
    if (period_ms <= 0) rec.due = rec.sent;
    if (m.insert) {
      rec.ok = writer->Insert(table, m.row).ok;
    } else {
      srv::ClientResponse r = writer->Query(m.DeleteSql(table));
      rec.ok = r.ok && r.relation.size() == 1 &&
               r.relation.ValueAt(0, 0) == Value(int64_t{1});
    }
    rec.ack = Clock::now();
    tracer->Record(m.insert ? "request.insert" : "request.delete", 0,
                   rec.sent, rec.ack);
    out->push_back(rec);
  }
}

/// Records delta pushes until the writer is done and the stream has been
/// quiet for 300 ms.
void SubscriberLoop(srv::Client* sub, const std::atomic<bool>* writer_done,
                    std::vector<DeltaRecord>* out) {
  Clock::time_point last = Clock::now();
  bool done_seen = false;
  for (;;) {
    std::optional<srv::WireDelta> d = sub->ReadDelta(20);
    const Clock::time_point now = Clock::now();
    if (d) {
      out->push_back({d->version, d->resync, now, std::move(d->enters),
                      std::move(d->exits)});
      last = now;
      continue;
    }
    if (writer_done->load()) {
      if (!done_seen) {
        done_seen = true;
        last = std::max(last, now);
      }
      if (MsBetween(last, now) >= 300) return;
    }
  }
}

struct WindowResult {
  Clock::time_point start;
  std::vector<ReadRecord> reads;
  double read_seconds = 0;
  std::vector<WriteRecord> writes;
  std::vector<std::vector<DeltaRecord>> deltas;  // per subscriber
  size_t thread_errors = 0;
};

/// Runs one timed window: every reader in a closed loop and, for the feed,
/// the open-loop writer over mutations [mutation_begin, +count) plus the
/// subscribers.
WindowResult RunWindow(Deployment* d, const Spec& spec, StatementTable* table,
                       const std::vector<Mutation>& mutations,
                       size_t mutation_begin, size_t mutation_count,
                       double seconds, Tracer* tracer) {
  WindowResult w;
  std::vector<std::vector<ReadRecord>> reads(d->readers.size());
  w.deltas.resize(d->subscribers.size());
  std::atomic<size_t> errors{0};
  std::atomic<bool> writer_done{!spec.feed};
  const Clock::time_point start = Clock::now();
  w.start = start;
  const Clock::time_point deadline =
      start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  auto guarded = [&errors](const char* who, const std::function<void()>& fn) {
    try {
      fn();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s failed: %s\n", who, e.what());
      errors.fetch_add(1);
    }
  };
  std::vector<std::thread> threads;
  for (size_t r = 0; r < d->readers.size(); ++r) {
    threads.emplace_back([&, r] {
      guarded("reader", [&] {
        ReadLoop(&d->readers[r], r, spec.depth, deadline, table, &reads[r],
                 tracer);
      });
    });
  }
  for (size_t s = 0; s < d->subscribers.size(); ++s) {
    threads.emplace_back([&, s] {
      guarded("subscriber", [&] {
        SubscriberLoop(&d->subscribers[s], &writer_done, &w.deltas[s]);
      });
    });
  }
  if (spec.feed) {
    threads.emplace_back([&] {
      guarded("writer", [&] {
        WriteLoop(&d->writer, "car", mutations, mutation_begin,
                  mutation_count, 1000.0 / kFeedRatePerS, start, &w.writes,
                  tracer);
      });
      writer_done.store(true);
    });
  }
  for (size_t r = 0; r < d->readers.size(); ++r) threads[r].join();
  w.read_seconds = MsBetween(start, Clock::now()) / 1000.0;
  for (size_t t = d->readers.size(); t < threads.size(); ++t) threads[t].join();
  for (auto& per : reads) w.reads.insert(w.reads.end(), per.begin(), per.end());
  w.thread_errors = errors.load();
  return w;
}

/// The write probe of the read-only workloads: registers the listing table
/// (untimed), subscribes one connection to kProbeSubscribe and issues
/// `count` mutations in a closed loop, each due when it is sent.
WindowResult RunWriteProbe(Deployment* d, const Inputs& in, size_t count,
                           uint64_t* version0, Tracer* tracer) {
  WindowResult w;
  d->engine->RegisterTable(kProbeTable, in.listing);
  *version0 = d->engine->TableVersion(kProbeTable);
  d->writer.Connect("127.0.0.1", d->server->port());
  d->subscribers.emplace_back();
  srv::Client& sub = d->subscribers.back();
  sub.Connect("127.0.0.1", d->server->port());
  Require(sub.Subscribe(kProbeSubscribe).ok, "probe subscribe refused");
  std::optional<srv::WireDelta> boot = sub.ReadDelta(60000);
  Require(boot && boot->resync, "no probe bootstrap resync");
  d->boot_rows.push_back(RowBag(boot->enters));
  d->subscribed_sql.push_back(kProbeSubscribe);
  w.deltas.resize(1);
  std::atomic<bool> done{false};
  std::atomic<size_t> errors{0};
  std::thread listener([&] {
    try {
      SubscriberLoop(&sub, &done, &w.deltas[0]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "probe subscriber failed: %s\n", e.what());
      errors.fetch_add(1);
    }
  });
  try {
    WriteLoop(&d->writer, kProbeTable, in.mutations, 0, count, 0,
              Clock::now(), &w.writes, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "probe writer failed: %s\n", e.what());
    errors.fetch_add(1);
  }
  done.store(true);
  listener.join();
  w.thread_errors = errors.load();
  return w;
}

// ------------------------------------------------------------- checking

/// Read responses whose digest differs from the reference engine's answer
/// to the same statement (failed responses are counted separately).
size_t CountWrongReads(const std::vector<ReadRecord>& reads,
                       const std::function<uint64_t(uint32_t)>& expected) {
  size_t wrong = 0;
  for (const ReadRecord& r : reads) {
    if (r.ok && r.digest != expected(r.stmt)) ++wrong;
  }
  return wrong;
}

/// Folds a subscriber's deltas onto its bootstrap state.
bool FoldMatches(std::multiset<std::string> state,
                 const std::vector<DeltaRecord>& deltas,
                 const std::multiset<std::string>& expected) {
  for (const DeltaRecord& d : deltas) {
    if (d.resync) {
      state = RowBag(d.enters);
      continue;
    }
    for (const std::string& row : RowBag(d.exits)) {
      auto it = state.find(row);
      if (it == state.end()) return false;
      state.erase(it);
    }
    for (const std::string& row : RowBag(d.enters)) state.insert(row);
  }
  return state == expected;
}

void ApplyMutations(Engine* engine, const std::string& table,
                    const std::vector<Mutation>& muts, size_t begin,
                    size_t end) {
  const size_t oid_col = *engine->Snapshot(table)->schema().IndexOf("oid");
  for (size_t i = begin; i < end; ++i) {
    const Mutation& m = muts[i];
    if (m.insert) {
      engine->Insert(table, m.row);
    } else {
      const Value oid(m.oid);
      engine->Delete(table, [oid, oid_col](const Tuple& t) {
        return t[oid_col] == oid;
      });
    }
  }
}

// -------------------------------------------------------------- summary

/// Server and engine counters accumulated over the traced slices.
struct LayerCounters {
  double plan_hits = 0, plan_misses = 0, exec_hits = 0, exec_misses = 0;
  double lock_acquisitions = 0, lock_contentions = 0;
  double exec_refreshes = 0, invalidations = 0;
  double rejected_overload = 0, read_pauses = 0, deltas_pushed = 0;

  /// Adds the difference between two snapshots.
  void Add(const srv::ServerStats& s0, const Engine::CacheStats& e0,
           const srv::ServerStats& s1, const Engine::CacheStats& e1) {
    auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
    plan_hits += d(e0.plan_hits, e1.plan_hits);
    plan_misses += d(e0.plan_misses, e1.plan_misses);
    exec_hits += d(e0.exec_hits, e1.exec_hits);
    exec_misses += d(e0.exec_misses, e1.exec_misses);
    lock_acquisitions += d(e0.lock_acquisitions, e1.lock_acquisitions);
    lock_contentions += d(e0.lock_contentions, e1.lock_contentions);
    exec_refreshes += d(e0.exec_refreshes, e1.exec_refreshes);
    invalidations += d(e0.invalidations, e1.invalidations);
    rejected_overload +=
        d(s0.queries_rejected_overload, s1.queries_rejected_overload);
    read_pauses += d(s0.read_pauses, s1.read_pauses);
    deltas_pushed += d(s0.deltas_pushed, s1.deltas_pushed);
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // e.g. the tail's percentile and sample count
};

std::string TailNote(const Tail& t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%g of %zu samples", t.percentile,
                t.samples);
  return buf;
}

void PrintResult(const std::vector<Metric>& metrics, bool correct,
                 size_t attempted, size_t failed) {
  for (const Metric& m : metrics) {
    std::printf("metric  %-30s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("metric  %-30s %16.6f %-6s (%zu of %zu attempts)\n",
              "error_ratio", Ratio(static_cast<double>(failed),
                                   static_cast<double>(attempted)),
              "ratio", failed, attempted);
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    bool report_only = false;
    for (const auto& r : kReportOnlyMetrics) report_only |= m.name == r[0];
    if (report_only) continue;
    json += (first ? "" : ", ") + std::string("\"") + m.name +
            "\": {\"value\": " + JsonNumber(m.value) + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string UnitOf(const char* const (*table)[2], size_t n,
                   const std::string& name) {
  for (size_t i = 0; i < n; ++i) {
    if (name == table[i][0]) return table[i][1];
  }
  throw std::logic_error("undeclared metric " + name);
}

// ---------------------------------------------------------- layer replay

struct LayerResult {
  std::map<std::string, double> metrics;
  std::string report;
};

double MedianOf(const std::vector<StageTimes>& st,
                double StageTimes::*field, double scale) {
  std::vector<double> v;
  for (const StageTimes& s : st) v.push_back(s.*field * scale);
  return Median(v);
}

/// Replays the workload's statements through each layer (traced run).
/// `primary` names the request kind the workload is about; its stages feed
/// the per-layer medians and ledger.unaccounted_share.
LayerResult ReplayLayers(const Spec& spec, const Options& opt,
                         Deployment* d, Engine* reference, Inputs* in,
                         size_t spare_begin, AdhocStream* adhoc,
                         const std::vector<double>& first_statement_ms,
                         Tracer* tracer) {
  const BmoOptions bmo = SessionBmo(spec);
  const size_t reps = opt.smoke ? 1 : (spec.car_rows > 10000 ? 3 : 5);
  srv::Client& client = d->readers[0];
  size_t spare = spare_begin;
  auto next_insert = [&]() -> const Tuple& {
    while (!in->mutations[spare].insert) ++spare;
    return in->mutations[spare++].row;
  };

  struct Request {
    std::string sql;
    bool cold;      // exec-cache miss: parse .. compile run
    bool refreshed; // served from a subscription-refreshed entry
  };
  std::vector<Request> requests;
  LedgerClass primary;
  LedgerClass secondary;
  if (spec.feed) {
    primary.title = "unsubscribed read after an insert";
    secondary.title = "subscribed read after an insert";
    const size_t k = opt.smoke ? 2 : 8;
    for (size_t i = 0; i < k; ++i) {
      requests.push_back({kUnsubscribed, true, false});
      requests.push_back({kSubscribeA, false, true});
    }
  } else if (adhoc != nullptr) {
    primary.title = "cold ad-hoc statement";
    const size_t k = opt.smoke ? 3 : 12;
    for (size_t i = 0; i < k; ++i) requests.push_back({adhoc->Next(), true, false});
  } else {
    primary.title = "warm mix statement";
    for (size_t r = 0; r < reps; ++r) {
      for (const std::string& sql : in->mix) requests.push_back({sql, false, false});
    }
  }

  std::vector<StageTimes> primary_stages;
  std::vector<double> wire_overhead_us;
  size_t replay_divergences = 0;
  std::vector<std::pair<std::string, prefdb::BmoAlgorithm>> regret_inputs;
  for (const Request& req : requests) {
    const uint64_t root = tracer->NewId();
    if (spec.feed) d->engine->Insert("car", next_insert());
    srv::ClientResponse wire;
    const double wire_ms =
        Timed(tracer, "server.wire", root, [&] { wire = client.Query(req.sql); });
    Require(wire.ok, "replay query failed: " + req.sql);
    // The in-process engine call of the same statement in the same cache
    // state: the served engine for warm and feed statements, the
    // reference engine (which has not seen it) for a cold ad-hoc one.
    Engine* engine = adhoc != nullptr ? reference : d->engine.get();
    if (spec.feed) d->engine->Insert("car", next_insert());
    prefdb::psql::QueryResult result;
    const double engine_ms = Timed(tracer, "engine.execute", root, [&] {
      result = engine->Execute(req.sql, bmo);
    });
    const std::string table = prefdb::psql::Parse(req.sql).table;
    std::shared_ptr<const Relation> snapshot = engine->Snapshot(table);
    std::shared_ptr<const prefdb::TableStats> stats = engine->Stats(table);
    StageTimes st = ReplayStatement(*snapshot, *stats, req.sql, bmo, result,
                                    tracer, root);
    if (!st.matches_engine) ++replay_divergences;
    LedgerClass& ledger = (spec.feed && req.refreshed) ? secondary : primary;
    ledger.e2e_ms.push_back(wire_ms);
    std::vector<std::pair<std::string, double>> path;
    if (req.cold) {
      path = {{"psql.parse", st.parse},       {"psql.translate", st.translate},
              {"psql.where", st.where},       {"eval.optimize", st.optimize},
              {"exec.compile", st.compile},   {"eval.kernel", st.kernel}};
    } else if (!req.refreshed) {
      path = {{"eval.kernel", st.kernel}};
    }
    path.push_back({"relation.materialize", st.materialize});
    path.push_back({"server.serialize", st.serialize});
    path.push_back({"server.parse_result", st.parse_result});
    if (ledger.stages.empty()) {
      for (const auto& p : path) ledger.stages.push_back({p.first, {}});
    }
    for (size_t i = 0; i < path.size(); ++i) {
      ledger.stages[i].second.push_back(path[i].second);
    }
    if (&ledger == &primary) {
      primary_stages.push_back(st);
      wire_overhead_us.push_back((wire_ms - engine_ms) * 1000.0);
      if (st.block || st.algorithm == prefdb::BmoAlgorithm::kDecomposition) {
        regret_inputs.push_back({req.sql, st.algorithm});
      }
    }
  }

  LayerResult out;
  auto& m = out.metrics;
  m["server.wire_overhead_us"] = Median(wire_overhead_us);
  m["server.serialize_us"] = MedianOf(primary_stages, &StageTimes::serialize, 1e3);
  m["server.parse_result_us"] =
      MedianOf(primary_stages, &StageTimes::parse_result, 1e3);
  {
    std::vector<double> bytes;
    for (const StageTimes& s : primary_stages) {
      bytes.push_back(static_cast<double>(s.result_bytes));
    }
    m["server.result_bytes"] = Median(bytes);
  }
  m["psql.parse_us"] = MedianOf(primary_stages, &StageTimes::parse, 1e3);
  m["psql.translate_us"] = MedianOf(primary_stages, &StageTimes::translate, 1e3);
  m["eval.optimize_us"] = MedianOf(primary_stages, &StageTimes::optimize, 1e3);
  m["eval.kernel_ms"] = MedianOf(primary_stages, &StageTimes::kernel, 1.0);
  m["exec.compile_us"] = MedianOf(primary_stages, &StageTimes::compile, 1e3);
  m["relation.materialize_us"] =
      MedianOf(primary_stages, &StageTimes::materialize, 1e3);
  {
    std::vector<double> est;
    size_t block = 0;
    size_t zero_copy = 0;
    for (const StageTimes& s : primary_stages) {
      if (!s.block) continue;
      ++block;
      zero_copy += s.zero_copy ? 1 : 0;
      if (s.true_maxima > 0) est.push_back(s.est_window / s.true_maxima);
    }
    m["eval.window_est_ratio"] = Median(est);
    m["exec.zero_copy_share"] = Ratio(static_cast<double>(zero_copy),
                                      static_cast<double>(block));
  }
  // Planner regret: each distinct plain-BMO statement of the primary kind.
  {
    std::sort(regret_inputs.begin(), regret_inputs.end());
    regret_inputs.erase(std::unique(regret_inputs.begin(), regret_inputs.end()),
                        regret_inputs.end());
    std::vector<double> regrets;
    for (const auto& [sql, algo] : regret_inputs) {
      const std::string table = prefdb::psql::Parse(sql).table;
      const double r = PlanRegret(*d->engine->Snapshot(table), sql, bmo, algo,
                                  reps, tracer, tracer->NewId());
      if (r > 0) regrets.push_back(r);
    }
    m["eval.plan_regret_p50"] = Median(regrets);
    m["eval.plan_regret_max"] =
        regrets.empty() ? 0.0 : *std::max_element(regrets.begin(), regrets.end());
  }
  // Write path on the workload's car table, with the stream's rows.
  {
    std::vector<Mutation> spare_rows(in->mutations.begin() + spare,
                                     in->mutations.end());
    WritePathSamples w = ProbeWritePath(*d->engine->Snapshot("car"),
                                        spare_rows, bmo, reps, tracer);
    m["stats.derive_ms"] = Median(w.derive_ms);
    m["stats.add_row_us"] = Median(w.add_row_us);
    m["relation.cow_add_ms"] = Median(w.cow_add_ms);
    m["ivm.apply_insert_us"] = Median(w.apply_insert_us);
    m["ivm.apply_delete_us"] = Median(w.apply_delete_us);
    m["ivm.delta_serialize_us"] = Median(w.delta_serialize_us);

    // The first statement of every set-up: cold, statistics derived.
    LedgerClass cold;
    cold.title = "set-up's first statement (cold, statistics derived)";
    cold.e2e_ms = first_statement_ms;
    Engine fresh;
    fresh.RegisterTable("car", in->cars);
    const prefdb::psql::QueryResult result = fresh.Execute(kUnsubscribed, bmo);
    const prefdb::TableStats derived = prefdb::TableStats::Derive(in->cars);
    cold.stages = {{"stats.derive", w.derive_ms}};
    for (size_t r = 0; r < reps; ++r) {
      StageTimes st = ReplayStatement(in->cars, derived, kUnsubscribed, bmo,
                                      result, tracer, tracer->NewId());
      const std::vector<std::pair<std::string, double>> path = {
          {"psql.parse", st.parse},         {"psql.translate", st.translate},
          {"psql.where", st.where},         {"eval.optimize", st.optimize},
          {"exec.compile", st.compile},     {"eval.kernel", st.kernel},
          {"relation.materialize", st.materialize},
          {"server.serialize", st.serialize},
          {"server.parse_result", st.parse_result}};
      for (size_t i = 0; i < path.size(); ++i) {
        if (r == 0) cold.stages.push_back({path[i].first, {}});
        cold.stages[i + 1].second.push_back(path[i].second);
      }
    }
    out.report += cold.Render();
  }
  m["ledger.unaccounted_share"] = primary.UnaccountedShare();
  out.report += primary.Render();
  if (!secondary.e2e_ms.empty()) out.report += secondary.Render();
  if (replay_divergences > 0) {
    out.report += "ledger  warning: " + std::to_string(replay_divergences) +
                  " replayed results differ from the engine's\n";
  }
  return out;
}

// ------------------------------------------------------------------ run

struct Verdict {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> notes;
  void Add(size_t attempts, size_t failures, const std::string& what) {
    attempted += attempts;
    failed += failures;
    if (failures > 0) {
      notes.push_back(what + ": " + std::to_string(failures) + " of " +
                      std::to_string(attempts));
    }
  }
};

/// Checks reads against the reference engine, and writes plus subscriber
/// folds against the reference after the same mutations [0, mutated).
void CheckWindow(const WindowResult& w, const StatementTable& table,
                 Engine* reference, const BmoOptions& bmo, bool check_reads,
                 Verdict* v) {
  size_t failed_reads = 0;
  for (const ReadRecord& r : w.reads) failed_reads += r.ok ? 0 : 1;
  v->Add(w.reads.size(), failed_reads, "failed reads");
  if (check_reads) {
    // The reference answer to every distinct statement, from four threads
    // (the reference engine is thread-safe); an exception leaves digest 0,
    // which no answer matches.
    std::vector<uint32_t> ids;
    for (const ReadRecord& r : w.reads) ids.push_back(r.stmt);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    std::vector<uint64_t> digests(ids.size(), 0);
    std::atomic<size_t> next{0};
    std::vector<std::thread> checkers;
    for (int t = 0; t < 4; ++t) {
      checkers.emplace_back([&] {
        for (size_t i = next++; i < ids.size(); i = next++) {
          try {
            const prefdb::psql::QueryResult res =
                reference->Execute(table.sql[ids[i]], bmo);
            digests[i] = ResultDigest(res.relation, res.utilities);
          } catch (const std::exception& e) {
            std::fprintf(stderr, "reference failed: %s\n", e.what());
          }
        }
      });
    }
    for (std::thread& t : checkers) t.join();
    auto expected = [&](uint32_t id) {
      return digests[std::lower_bound(ids.begin(), ids.end(), id) - ids.begin()];
    };
    v->Add(0, CountWrongReads(w.reads, expected), "wrong answers");
  }
  size_t failed_writes = 0;
  for (const WriteRecord& r : w.writes) failed_writes += r.ok ? 0 : 1;
  v->Add(w.writes.size(), failed_writes, "failed mutations");
  v->Add(0, w.thread_errors, "client errors");
}

void CheckFolds(Deployment* d, const std::string& table,
                const std::vector<std::vector<DeltaRecord>>& deltas,
                Engine* reference, Verdict* v) {
  for (size_t s = 0; s < d->subscribed_sql.size(); ++s) {
    const Relation expected =
        reference->Execute(d->subscribed_sql[s]).relation;
    v->Add(1, FoldMatches(d->boot_rows[s], deltas[s], RowBag(expected)) ? 0 : 1,
           "subscription folds");
  }
  v->Add(1,
         RowBag(*d->engine->Snapshot(table)) == RowBag(*reference->Snapshot(table))
             ? 0
             : 1,
         "final table");
}

void Summarize(const WindowResult& w, std::vector<double>* read_ms,
               std::vector<double>* insert_ms, std::vector<double>* delta_ms,
               uint64_t version0, size_t index0) {
  for (const ReadRecord& r : w.reads) read_ms->push_back(r.ms);
  std::map<uint64_t, Clock::time_point> due_by_version;
  for (const WriteRecord& r : w.writes) {
    if (r.insert) insert_ms->push_back(MsBetween(r.due, r.ack));
    due_by_version[version0 + (r.index - index0) + 1] = r.due;
  }
  for (const auto& per : w.deltas) {
    for (const DeltaRecord& dr : per) {
      auto it = due_by_version.find(dr.version);
      if (it != due_by_version.end()) {
        delta_ms->push_back(MsBetween(it->second, dr.arrival));
      }
    }
  }
}

/// Reads per group: ten samples beyond p95 in each. A scheduler stall on
/// a 4-core host delays tens of pipelined reads at once; with groups of
/// 1000 reads (p99) the median group tail flipped between stall-free and
/// stalled from run to run.
constexpr size_t kGroupReads = 200;

/// Throughput and latency tail of the reads as medians over consecutive
/// groups of kGroupReads reads (in completion order; one group for slower
/// workloads), so a burst of stalls moves a few groups instead of the
/// run's figure. A group's tail is the highest percentile with ten samples
/// beyond it; its rate is its reads over the time they span.
struct ReadSummary {
  double qps = 0;
  Tail tail;
  size_t groups = 1;
};

ReadSummary SummarizeReads(const WindowResult& w) {
  ReadSummary out;
  std::vector<const ReadRecord*> reads;
  for (const ReadRecord& r : w.reads) reads.push_back(&r);
  std::sort(reads.begin(), reads.end(),
            [](const ReadRecord* a, const ReadRecord* b) { return a->done < b->done; });
  const size_t n = reads.size();
  out.groups = std::max<size_t>(1, n / kGroupReads);
  const size_t per = out.groups == 1 ? n : kGroupReads;
  out.tail.percentile = TailPercentile(per);
  out.tail.samples = n;
  if (out.groups == 1) {
    std::vector<double> ms;
    for (const ReadRecord* r : reads) ms.push_back(r->ms);
    out.tail.value = Percentile(std::move(ms), out.tail.percentile);
    out.qps = static_cast<double>(n) / w.read_seconds;
    return out;
  }
  std::vector<double> rates, tails;
  Clock::time_point begin = w.start;
  for (size_t g = 0; g < out.groups; ++g) {
    std::vector<double> ms;
    for (size_t i = g * per; i < (g + 1) * per; ++i) ms.push_back(reads[i]->ms);
    const Clock::time_point end = reads[(g + 1) * per - 1]->done;
    rates.push_back(static_cast<double>(per) / (MsBetween(begin, end) / 1000.0));
    tails.push_back(Percentile(std::move(ms), out.tail.percentile));
    begin = end;
  }
  out.qps = Median(rates);
  out.tail.value = Median(tails);
  return out;
}

int Run(const Options& opt) {
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (opt.workload == s.name) spec = &s;
  }
  if (spec == nullptr) Usage();
  const size_t scale = opt.smoke ? 25 : 1;
  Spec sized = *spec;
  sized.car_rows = std::max<size_t>(200, spec->car_rows / scale);
  sized.trip_rows = spec->trip_rows / (opt.smoke ? 5 : 1);

  RunContext ctx = RunContext::Detect();
  ctx.commit = opt.commit;
  ctx.source_digest = opt.source_digest;
  ctx.seed = opt.seed;
  ctx.workload = sized.name;
  std::printf("context %s\n", ctx.Json().c_str());
  Clock::time_point phase_start = Clock::now();
  auto phase = [&phase_start](const char* name) {
    const Clock::time_point now = Clock::now();
    std::printf("phase   %-24s %10.3f s\n", name,
                MsBetween(phase_start, now) / 1000.0);
    phase_start = now;
  };

  // Inputs (not part of set-up time).
  Inputs in;
  in.cars = prefdb::GenerateCars(sized.car_rows, opt.seed);
  if (sized.trip_rows > 0) in.trips = prefdb::GenerateTrips(sized.trip_rows, opt.seed + 1);
  in.mix = LoadMix(opt.mix_path);
  const size_t window_mutations =
      sized.feed ? static_cast<size_t>(std::ceil(kFeedRatePerS * opt.seconds))
                 : (opt.smoke ? 24 : kProbeMutations);
  if (sized.feed) {
    in.write_table = "car";
    in.mutations = MakeMutations(in.cars, opt.seed,
                                 window_mutations + kSpareMutations);
  } else {
    in.write_table = kProbeTable;
    in.listing = prefdb::GenerateCars(kProbeRows / scale, opt.seed + 2);
    in.mutations = MakeMutations(in.listing, opt.seed,
                                 window_mutations + kSpareMutations);
  }
  phase("inputs");

  StatementTable table;
  std::unique_ptr<AdhocStream> adhoc;
  if (std::string(sized.name) == "serve_hot") {
    table.sql.assign(in.mix.begin(), in.mix.end());
    const size_t n = table.sql.size();
    table.pick = [n](size_t reader, size_t i) {
      return static_cast<uint32_t>((reader * 3 + i) % n);
    };
  } else if (std::string(sized.name) == "adhoc_large") {
    adhoc = std::make_unique<AdhocStream>(in.cars, opt.seed);
    table.pick = [&table, &adhoc](size_t, size_t) {
      table.sql.push_back(adhoc->Next());
      return static_cast<uint32_t>(table.sql.size() - 1);
    };
  } else {
    // One subscribed read to two unsubscribed ones: with a 1:1 alternation
    // the median would sit on the gap between the two latency modes.
    table.sql = {kSubscribeA, kUnsubscribed};
    table.pick = [](size_t, size_t i) { return i % 3 == 0 ? 0u : 1u; };
  }

  // Set-up, several times; the last deployment serves the window.
  std::vector<double> setup_s;
  std::vector<double> first_statement_ms;
  std::unique_ptr<Deployment> d;
  const size_t reps = opt.smoke ? 1 : sized.setup_reps;
  for (size_t r = 0; r < reps; ++r) {
    d.reset();
    double s = 0;
    d = Setup(sized, in, &s);
    setup_s.push_back(s);
    for (const auto& [name, ms] : d->stages) {
      if (name == "first_statement_car") first_statement_ms.push_back(ms);
    }
  }
  phase("set-up");
  for (const auto& [name, ms] : d->stages) {
    std::printf("setup   %-24s %10.3f ms\n", name.c_str(), ms);
  }

  // The reference engine caches no compiled state: every check is a fresh
  // evaluation, and it does not double the process's memory.
  prefdb::EngineOptions reference_options;
  reference_options.enable_exec_cache = false;
  Engine reference(reference_options);
  reference.RegisterTable("car", in.cars);
  if (in.trips.size() > 0) reference.RegisterTable("trip", in.trips);
  if (in.listing.size() > 0) reference.RegisterTable(kProbeTable, in.listing);
  const BmoOptions bmo = SessionBmo(sized);
  const uint64_t version0 = d->engine->TableVersion("car");

  Tracer tracer(opt.trace);
  Tracer off(false);
  Verdict verdict;
  std::vector<Metric> metrics;
  std::vector<double> read_ms, insert_ms, delta_ms;
  if (!opt.trace) {
    // The write probe runs before the read window: after adhoc_large's
    // window the process holds the full exec cache, and the probe's
    // copy-on-write inserts then ran anywhere between 16 and 28 ms.
    WindowResult probe_w;
    if (!sized.feed) {
      uint64_t probe_version0 = 0;
      probe_w = RunWriteProbe(d.get(), in, window_mutations, &probe_version0,
                              &off);
      Summarize(probe_w, &read_ms, &insert_ms, &delta_ms, probe_version0, 0);
    }
    WindowResult w = RunWindow(d.get(), sized, &table, in.mutations, 0,
                               sized.feed ? window_mutations : 0, opt.seconds,
                               &off);
    Summarize(w, &read_ms, &insert_ms, &delta_ms, version0, 0);
    const double rss = PeakRssMb();
    phase("window");

    // Checking, after every timed phase.
    CheckWindow(w, table, &reference, bmo, !sized.feed, &verdict);
    if (sized.feed) {
      ApplyMutations(&reference, in.write_table, in.mutations, 0,
                     w.writes.size());
      CheckFolds(d.get(), in.write_table, w.deltas, &reference, &verdict);
    } else {
      CheckWindow(probe_w, table, &reference, bmo, false, &verdict);
      ApplyMutations(&reference, in.write_table, in.mutations, 0,
                     probe_w.writes.size());
      CheckFolds(d.get(), in.write_table, probe_w.deltas, &reference,
                 &verdict);
    }
    phase("check");

    const ReadSummary rs = SummarizeReads(w);
    const Tail& qt = rs.tail;
    const Tail it = TailOf(insert_ms);
    const Tail dt = TailOf(delta_ms);
    metrics = {
        {"setup_s", Median(setup_s), "s",
         "median of " + std::to_string(setup_s.size()) + " set-ups"},
        {"query_p50_ms", Median(read_ms), "ms",
         std::to_string(read_ms.size()) + " reads"},
        {"query_tail_ms", qt.value, "ms",
         TailNote(qt) + ", median of " + std::to_string(rs.groups) +
             " groups"},
        {"queries_per_s", rs.qps, "1/s",
         "median of " + std::to_string(rs.groups) + " groups"},
        {"insert_p50_ms", Median(insert_ms), "ms",
         std::to_string(insert_ms.size()) + " inserts" +
             (sized.feed ? ", from due time" : ", closed-loop write probe")},
        {"insert_tail_ms", it.value, "ms", TailNote(it)},
        {"delta_p50_ms", Median(delta_ms), "ms",
         std::to_string(delta_ms.size()) + " delta frames"},
        {"delta_tail_ms", dt.value, "ms", TailNote(dt)},
        {"peak_rss_mb", rss, "MiB", ""},
    };
    if (sized.feed && !w.writes.empty()) {
      double late = 0;
      for (const WriteRecord& r : w.writes) {
        late = std::max(late, MsBetween(r.due, r.sent));
      }
      std::printf("feed    writer ran at most %.3f ms behind schedule\n", late);
    }
  } else {
    // Untraced and traced slices alternate, so warm-up and drift fall on
    // both sides of ledger.tracing_overhead; the layer counters cover the
    // traced slices.
    constexpr size_t kSlices = 4;
    const double slice_s = opt.seconds / kSlices;
    const size_t per_slice = sized.feed ? window_mutations / kSlices : 0;
    std::vector<std::vector<DeltaRecord>> all_deltas(d->subscribers.size());
    LayerCounters counted;
    double reads[2] = {0, 0};
    double seconds[2] = {0, 0};
    size_t mutated = 0;
    for (size_t k = 0; k < kSlices; ++k) {
      const bool traced = k % 2 == 1;
      const srv::ServerStats s0 = d->server->stats();
      const Engine::CacheStats e0 = d->engine->cache_stats();
      WindowResult w = RunWindow(d.get(), sized, &table, in.mutations, mutated,
                                 per_slice, slice_s, traced ? &tracer : &off);
      if (traced) {
        counted.Add(s0, e0, d->server->stats(), d->engine->cache_stats());
      }
      reads[traced] += static_cast<double>(w.reads.size());
      seconds[traced] += w.read_seconds;
      mutated += w.writes.size();
      for (size_t s = 0; s < all_deltas.size(); ++s) {
        all_deltas[s].insert(all_deltas[s].end(), w.deltas[s].begin(),
                             w.deltas[s].end());
      }
      CheckWindow(w, table, &reference, bmo, !sized.feed, &verdict);
    }
    if (sized.feed) {
      ApplyMutations(&reference, in.write_table, in.mutations, 0, mutated);
      CheckFolds(d.get(), in.write_table, all_deltas, &reference, &verdict);
    }
    phase("window and check");

    LayerResult layers =
        ReplayLayers(sized, opt, d.get(), &reference, &in, window_mutations,
                     adhoc.get(), first_statement_ms, &tracer);
    phase("layer replay");
    auto& m = layers.metrics;
    m["server.peak_queue_depth"] =
        static_cast<double>(d->server->stats().peak_queue_depth);
    m["server.rejected_overload"] = counted.rejected_overload;
    m["server.read_pauses"] = counted.read_pauses;
    m["server.deltas_pushed"] = counted.deltas_pushed;
    m["engine.plan_hit_ratio"] =
        Ratio(counted.plan_hits, counted.plan_hits + counted.plan_misses);
    m["engine.exec_hit_ratio"] =
        Ratio(counted.exec_hits, counted.exec_hits + counted.exec_misses);
    m["engine.lock_contention_ratio"] =
        Ratio(counted.lock_contentions, counted.lock_acquisitions);
    m["engine.exec_refreshes"] = counted.exec_refreshes;
    m["engine.invalidations"] = counted.invalidations;
    m["ledger.tracing_overhead"] =
        Ratio(reads[1] / seconds[1], reads[0] / seconds[0]);
    std::printf("%s", layers.report.c_str());
    for (const auto& [name, value] : m) {
      metrics.push_back({name, value,
                         UnitOf(kPerLayerMetrics, std::size(kPerLayerMetrics), name),
                         ""});
    }
    std::sort(metrics.begin(), metrics.end(),
              [](const Metric& x, const Metric& y) { return x.name < y.name; });
    if (!opt.trace_out.empty() && !tracer.WriteJson(opt.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
    }
  }
  for (const std::string& note : verdict.notes) {
    std::printf("check   FAILED %s\n", note.c_str());
  }
  // Tear the deployment down before printing, so the run ends with every
  // server thread joined.
  d.reset();
  const bool correct = verdict.failed == 0;
  PrintResult(metrics, correct, verdict.attempted, verdict.failed);
  return correct ? 0 : 1;
}

// ------------------------------------------------------------- selftest

int SelfTest(const Options& opt) {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    std::printf("selftest %-60s %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };
  const Relation cars = prefdb::GenerateCars(2000, 5);
  auto stream = [&cars](uint64_t seed) {
    AdhocStream adhoc(cars, seed);
    std::vector<std::string> statements;
    for (int i = 0; i < 200; ++i) statements.push_back(adhoc.Next());
    return StreamBytes(statements, MakeMutations(cars, seed, 200));
  };
  expect(stream(3) == stream(3), "same seed gives byte-identical streams");
  expect(stream(3) != stream(4), "different seeds give different streams");
  {
    AdhocStream adhoc(cars, 9);
    std::set<std::string> seen;
    Engine engine;
    engine.RegisterTable("car", cars);
    bool distinct = true;
    bool nonempty = true;
    for (int i = 0; i < 60; ++i) {
      std::string sql = adhoc.Next();
      distinct = distinct && seen.insert(sql).second;
      nonempty = nonempty && engine.Execute(sql).relation.size() > 0;
    }
    expect(distinct, "ad-hoc statements are distinct");
    expect(nonempty, "ad-hoc statements have non-empty results");
  }
  {
    bool valid = true;
    std::set<std::string> names;
    for (const auto& m : kEndToEndMetrics) valid = valid && ValidMetricName(m[0]) && names.insert(m[0]).second;
    for (const auto& m : kReportOnlyMetrics) valid = valid && ValidMetricName(m[0]) && names.insert(m[0]).second;
    for (const auto& m : kPerLayerMetrics) valid = valid && ValidMetricName(m[0]) && names.insert(m[0]).second;
    expect(valid, "metric names match [A-Za-z0-9_.-]+ and are unique");
  }
  {
    // A served answer and a deliberately corrupted copy of it: the check
    // must pass the first and catch the second.
    Engine engine;
    engine.RegisterTable("car", cars);
    srv::Server server(&engine, srv::ServerOptions{});
    server.Start();
    srv::Client client;
    client.Connect("127.0.0.1", server.port());
    srv::ClientResponse r = client.Query(kUnsubscribed);
    std::vector<Tuple> rows = r.relation.tuples();
    rows[0][1] = Value(rows[0][1].as_int() + 1);
    const Relation corrupted(r.relation.schema(), rows);
    std::vector<ReadRecord> reads = {
        {0, true, 1.0, ResultDigest(r.relation, r.utilities), Clock::now()},
        {0, true, 1.0, ResultDigest(corrupted, r.utilities), Clock::now()}};
    Engine reference;
    reference.RegisterTable("car", cars);
    const prefdb::psql::QueryResult ref = reference.Execute(kUnsubscribed);
    const uint64_t expected = ResultDigest(ref.relation, ref.utilities);
    expect(r.ok && CountWrongReads(reads, [&](uint32_t) { return expected; }) == 1,
           "a corrupted response is caught, the true one passes");

    // A subscription fold with one delta dropped must not match.
    client.Close();
    std::vector<Mutation> muts = MakeMutations(cars, 5, 40);
    srv::Client writer;
    writer.Connect("127.0.0.1", server.port());
    srv::Client sub;
    sub.Connect("127.0.0.1", server.port());
    std::optional<srv::WireDelta> boot;
    if (sub.Subscribe(kSubscribeA).ok) boot = sub.ReadDelta(10000);
    std::vector<WriteRecord> writes;
    Tracer off(false);
    WriteLoop(&writer, "car", muts, 0, muts.size(), 0, Clock::now(), &writes,
              &off);
    std::atomic<bool> done{true};
    std::vector<DeltaRecord> deltas;
    SubscriberLoop(&sub, &done, &deltas);
    ApplyMutations(&reference, "car", muts, 0, muts.size());
    const auto want = RowBag(reference.Execute(kSubscribeA).relation);
    const bool full = boot && FoldMatches(RowBag(boot->enters), deltas, want);
    std::vector<DeltaRecord> dropped = deltas;
    if (!dropped.empty()) dropped.erase(dropped.begin());
    const bool caught =
        !deltas.empty() && boot && !FoldMatches(RowBag(boot->enters), dropped, want);
    expect(full && caught, "subscription fold matches; a dropped delta is caught");
  }
  for (const char* name : {"serve_hot", "adhoc_large", "feed_subscribe"}) {
    Options smoke;
    smoke.workload = name;
    smoke.seed = 2;
    smoke.seconds = 1;
    smoke.smoke = true;
    smoke.mix_path = opt.mix_path;
    for (bool trace : {false, true}) {
      smoke.trace = trace;
      const int code = Run(smoke);
      expect(code == 0, (std::string("smoke run ") + name +
                         (trace ? " (traced)" : "")).c_str());
    }
  }
  std::printf("selftest %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace prefbench

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // Pin glibc's mmap threshold at its default (128 KiB). Left adaptive, it
  // moves with allocation history, and a 100k-row copy-on-write insert then
  // took 6 ms in some runs and 13 ms in others. Pinned, every large column
  // allocation takes the same path, page faults included, in every run.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  const prefbench::Options opt = prefbench::ParseArgs(argc, argv);
  try {
    return opt.selftest ? prefbench::SelfTest(opt) : prefbench::Run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prefbench: %s\n", e.what());
    return 1;
  }
}
