#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <numeric>
#include <optional>
#include <random>

#include "eval/bmo_internal.h"
#include "eval/optimizer.h"
#include "eval/physical_plan.h"
#include "eval/ranked.h"
#include "exec/score_table.h"
#include "ivm/maintained_view.h"
#include "psql/parser.h"
#include "psql/translator.h"
#include "relation/column_store.h"
#include "server/protocol.h"

namespace prefbench {

using prefdb::BmoAlgorithm;
using prefdb::BmoOptions;
using prefdb::PrefPtr;
using prefdb::Relation;
using prefdb::Tuple;

namespace {

std::vector<size_t> WhereRows(const Relation& table,
                              const prefdb::psql::SelectStatement& stmt) {
  std::vector<size_t> rows;
  auto pred = prefdb::psql::CompileCondition(*stmt.where, table.schema());
  for (size_t i = 0; i < table.size(); ++i) {
    if (pred(table.RowAt(i))) rows.push_back(i);
  }
  return rows;
}

}  // namespace

StageTimes ReplayStatement(const Relation& table,
                           const prefdb::TableStats& stats,
                           const std::string& sql, const BmoOptions& bmo,
                           const prefdb::psql::QueryResult& engine_result,
                           Tracer* tracer, uint64_t parent) {
  namespace psql = prefdb::psql;
  StageTimes st;
  psql::SelectStatement stmt;
  st.parse = Timed(tracer, "psql.parse", parent,
                   [&] { stmt = psql::Parse(sql); });
  PrefPtr pref;
  st.translate = Timed(tracer, "psql.translate", parent, [&] {
    pref = psql::TranslatePreferenceChain(stmt.preferring);
  });
  const bool subset = stmt.where != nullptr;
  std::vector<size_t> pool_rows;
  st.where = Timed(tracer, "psql.where", parent, [&] {
    if (subset) pool_rows = WhereRows(table, stmt);
  });
  const std::vector<size_t>* pool_ptr = subset ? &pool_rows : nullptr;
  const size_t pool_size = subset ? pool_rows.size() : table.size();
  auto global = [&](size_t i) { return subset ? pool_rows[i] : i; };

  std::function<bool(const Tuple&)> but_only;
  std::vector<size_t> rows;
  std::vector<double> utilities;
  if (pref && stmt.ranked) {
    prefdb::ScoreFn utility;
    st.optimize = Timed(tracer, "eval.optimize", parent, [&] {
      utility = prefdb::BindRankedUtility(pref, table.schema());
    });
    std::vector<size_t> ranked_pool;
    st.compile = Timed(tracer, "exec.compile", parent, [&] {
      if (!stmt.but_only) return;
      auto quality =
          psql::CompileQualityCondition(*stmt.but_only, pref, table.schema());
      for (size_t i = 0; i < pool_size; ++i) {
        if (quality(table.RowAt(global(i)))) ranked_pool.push_back(global(i));
      }
    });
    const std::vector<size_t>* ranked_ptr =
        stmt.but_only ? &ranked_pool : pool_ptr;
    st.kernel = Timed(tracer, "eval.kernel", parent, [&] {
      prefdb::RankedRows rr =
          prefdb::TopKRows(table, utility, stmt.top_k, ranked_ptr);
      for (size_t i = 0; i < rr.rows.size(); ++i) {
        rows.push_back(ranked_ptr ? (*ranked_ptr)[rr.rows[i]] : rr.rows[i]);
      }
      utilities = std::move(rr.utilities);
    });
  } else if (pref) {
    prefdb::OptimizedQuery optimized;
    st.optimize = Timed(tracer, "eval.optimize", parent, [&] {
      optimized = prefdb::Optimize(stats, table.schema(), pool_size, pref, bmo);
    });
    const PrefPtr exec_pref = optimized.simplified;
    prefdb::PhysicalPlan physical = optimized.plan;
    st.algorithm = physical.algorithm;
    if (stmt.grouping.empty() &&
        physical.algorithm != BmoAlgorithm::kDecomposition) {
      st.block = true;
      std::optional<prefdb::ScoreTable> score;
      prefdb::ProjectionIndex proj;
      st.compile = Timed(tracer, "exec.compile", parent, [&] {
        if (stmt.but_only) {
          but_only = psql::CompileQualityCondition(*stmt.but_only, pref,
                                                   table.schema());
        }
        if (bmo.vectorize && pool_size > 0 &&
            prefdb::ScoreTable::CompilableColumnar(exec_pref, table) &&
            prefdb::LikelyMostlyDistinct(
                table, table.ResolveColumns(exec_pref->attributes()),
                pool_ptr)) {
          score = prefdb::ScoreTable::CompileColumnar(exec_pref, table,
                                                      pool_ptr);
          st.zero_copy = score.has_value();
        }
        if (st.zero_copy) {
          proj.proj_schema = table.schema().Project(exec_pref->attributes());
        } else {
          proj = prefdb::BuildProjectionIndex(table, *exec_pref, pool_ptr);
          if (bmo.vectorize && !proj.values.empty()) {
            score = prefdb::ScoreTable::Compile(exec_pref, proj.proj_schema,
                                                proj.values.data(),
                                                proj.values.size());
          }
        }
      });
      if (score) {
        st.optimize += Timed(tracer, "eval.optimize", parent, [&] {
          prefdb::PlanScope scope;
          scope.allow_decomposition = false;
          physical = prefdb::PlanPhysical(
              prefdb::MeasureTermStats(*score, exec_pref, pool_size), bmo,
              scope);
        });
      }
      st.algorithm = physical.algorithm;
      st.est_window = physical.stats.est_window;
      std::vector<bool> maximal;
      st.kernel = Timed(tracer, "eval.kernel", parent, [&] {
        if (st.zero_copy) {
          maximal = prefdb::internal::ExecuteBlockPlan(
              nullptr, pool_size, exec_pref, proj.proj_schema, &*score,
              physical);
        } else if (!proj.values.empty()) {
          maximal = prefdb::internal::ExecuteBlockPlan(
              proj.values, exec_pref, proj.proj_schema,
              score ? &*score : nullptr, physical);
        }
      });
      st.true_maxima =
          static_cast<double>(std::count(maximal.begin(), maximal.end(), true));
      for (size_t i = 0; i < pool_size && !maximal.empty(); ++i) {
        if (maximal[st.zero_copy ? i : proj.row_to_value[i]]) {
          rows.push_back(global(i));
        }
      }
    } else {
      // GROUPING and decomposition cascades run the relation-level
      // evaluators; their compile work happens inside the kernel span.
      Relation pool;
      st.compile = Timed(tracer, "exec.compile", parent, [&] {
        if (stmt.but_only) {
          but_only = psql::CompileQualityCondition(*stmt.but_only, pref,
                                                   table.schema());
        }
        pool = subset ? table.SelectRows(pool_rows) : table;
      });
      BmoOptions run = bmo;
      if (physical.algorithm == BmoAlgorithm::kDecomposition) {
        run.algorithm = BmoAlgorithm::kDecomposition;
      }
      std::vector<size_t> found;
      st.kernel = Timed(tracer, "eval.kernel", parent, [&] {
        found = stmt.grouping.empty()
                    ? prefdb::BmoIndices(pool, exec_pref, run)
                    : prefdb::BmoGroupByIndices(pool, exec_pref,
                                                stmt.grouping, run);
      });
      for (size_t i : found) rows.push_back(global(i));
      std::sort(rows.begin(), rows.end());
    }
  } else if (subset) {
    rows = pool_rows;
  } else {
    rows.resize(table.size());
    std::iota(rows.begin(), rows.end(), 0);
  }

  Relation current;
  st.materialize = Timed(tracer, "relation.materialize", parent, [&] {
    current = table.SelectRows(rows);
    if (but_only) current = current.Filter(but_only);
    if (!stmt.select_list.empty()) current = current.Project(stmt.select_list);
    if (stmt.limit > 0 && current.size() > stmt.limit) {
      std::vector<size_t> head(stmt.limit);
      std::iota(head.begin(), head.end(), 0);
      current = current.SelectRows(head);
    }
  });
  if (utilities.size() > current.size()) utilities.resize(current.size());
  st.matches_engine = current == engine_result.relation &&
                      utilities == engine_result.utilities;

  std::string payload;
  st.serialize = Timed(tracer, "server.serialize", parent, [&] {
    payload = prefdb::server::SerializeResult(engine_result);
  });
  st.result_bytes = payload.size();
  st.parse_result = Timed(tracer, "server.parse_result", parent, [&] {
    if (!prefdb::server::ParseResult(payload)) st.matches_engine = false;
  });
  return st;
}

double PlanRegret(const Relation& table, const std::string& sql,
                  const BmoOptions& bmo, BmoAlgorithm chosen_algorithm,
                  size_t reps, Tracer* tracer, uint64_t parent) {
  namespace psql = prefdb::psql;
  psql::SelectStatement stmt = psql::Parse(sql);
  PrefPtr pref = psql::TranslatePreferenceChain(stmt.preferring);
  if (!pref || stmt.ranked || !stmt.grouping.empty()) return -1.0;
  const Relation pool =
      stmt.where ? table.SelectRows(WhereRows(table, stmt)) : table;
  auto time = [&](const BmoOptions& options, const std::string& name,
                  size_t runs) {
    std::vector<double> ms;
    for (size_t r = 0; r < runs; ++r) {
      ms.push_back(Timed(tracer, name, parent, [&] {
        prefdb::BmoIndices(pool, pref, options);
      }));
    }
    return Median(ms);
  };
  BmoOptions chosen = bmo;
  chosen.algorithm = chosen_algorithm;
  const double chosen_ms = time(chosen, "eval.regret.chosen", reps);
  std::vector<BmoAlgorithm> forced = {
      BmoAlgorithm::kBlockNestedLoop, BmoAlgorithm::kSortFilter,
      BmoAlgorithm::kDivideConquer, BmoAlgorithm::kParallel};
  // Decomposition only competes on prioritized (CASCADE) chains; on a
  // Pareto term it degenerates to seconds per call at 100k rows. The
  // exhaustive baseline is quadratic; it only competes on small pools.
  if (stmt.preferring.size() > 1) forced.push_back(BmoAlgorithm::kDecomposition);
  if (pool.size() <= 4096) forced.push_back(BmoAlgorithm::kNaive);
  double best_ms = std::numeric_limits<double>::infinity();
  for (BmoAlgorithm algo : forced) {
    BmoOptions options = bmo;
    options.algorithm = algo;
    const std::string name =
        std::string("eval.regret.") + prefdb::BmoAlgorithmName(algo);
    // One call decides whether the algorithm can compete; only contenders
    // are repeated for a median.
    double ms = time(options, name, 1);
    if (reps > 1 && ms < 2 * std::min(best_ms, chosen_ms)) {
      ms = time(options, name, reps);
    }
    best_ms = std::min(best_ms, ms);
  }
  return best_ms > 0 ? chosen_ms / best_ms : 1.0;
}

WritePathSamples ProbeWritePath(const Relation& table,
                                const std::vector<Mutation>& mutations,
                                const BmoOptions& bmo, size_t reps,
                                Tracer* tracer) {
  WritePathSamples s;
  const uint64_t root = tracer->NewId();
  for (size_t r = 0; r < reps; ++r) {
    s.derive_ms.push_back(Timed(tracer, "stats.derive", root, [&] {
      prefdb::TableStats::Derive(table);
    }));
  }
  std::vector<const Tuple*> inserts;
  for (const Mutation& m : mutations) {
    if (m.insert && inserts.size() < 48) inserts.push_back(&m.row);
  }
  prefdb::TableStatsBuilder builder(table);
  for (const Tuple* row : inserts) {
    s.add_row_us.push_back(
        1000.0 * Timed(tracer, "stats.add_row", root,
                       [&] { builder.AddRow(*row); }));
  }
  for (size_t r = 0; r < reps && !inserts.empty(); ++r) {
    Relation next;
    s.cow_add_ms.push_back(Timed(tracer, "relation.cow_add", root, [&] {
      next = table;
      next.Add(*inserts[r % inserts.size()]);
    }));
  }

  namespace psql = prefdb::psql;
  const PrefPtr pref = psql::TranslatePreferenceChain(
      psql::Parse(kSubscribeA).preferring);
  uint64_t version = 1;
  prefdb::ivm::MaintainedView view(pref, nullptr, table, version, bmo);
  size_t table_rows = table.size();
  auto serialize = [&](const prefdb::ivm::ViewDelta& delta) {
    if (delta.Empty()) return;
    s.delta_serialize_us.push_back(
        1000.0 * Timed(tracer, "ivm.delta_serialize", root, [&] {
          prefdb::server::SerializeDelta(1, view.schema(), delta.version,
                                         delta.resync, delta.enters,
                                         delta.exits);
        }));
  };
  for (const Tuple* row : inserts) {
    prefdb::ivm::ViewDelta delta;
    s.apply_insert_us.push_back(
        1000.0 * Timed(tracer, "ivm.apply_insert", root, [&] {
          delta = view.ApplyInsert(*row, table_rows, ++version);
        }));
    ++table_rows;
    serialize(delta);
  }
  std::mt19937_64 rng(table.size());
  for (size_t d = 0; d < 12 && table_rows > 1; ++d) {
    const size_t victim =
        std::uniform_int_distribution<size_t>(0, table_rows - 1)(rng);
    prefdb::ivm::ViewDelta delta;
    s.apply_delete_us.push_back(
        1000.0 * Timed(tracer, "ivm.apply_delete", root, [&] {
          delta = view.ApplyDelete({victim}, ++version);
        }));
    --table_rows;
    serialize(delta);
  }
  return s;
}

double LedgerClass::UnaccountedShare() const {
  const double e2e = Median(e2e_ms);
  if (e2e <= 0) return 0.0;
  double sum = 0;
  for (const auto& stage : stages) sum += Median(stage.second);
  return (e2e - sum) / e2e;
}

std::string LedgerClass::Render() const {
  const double e2e = Median(e2e_ms);
  char line[160];
  std::string out;
  std::snprintf(line, sizeof(line),
                "ledger  %s: end-to-end median %.4f ms over %zu requests\n",
                title.c_str(), e2e, e2e_ms.size());
  out += line;
  for (const auto& stage : stages) {
    const double m = Median(stage.second);
    std::snprintf(line, sizeof(line), "ledger    %-24s %12.4f ms %7.1f%%\n",
                  stage.first.c_str(), m, e2e > 0 ? 100.0 * m / e2e : 0.0);
    out += line;
  }
  std::snprintf(line, sizeof(line), "ledger    %-24s %12.4f ms %7.1f%%\n",
                "unaccounted", e2e * UnaccountedShare(),
                100.0 * UnaccountedShare());
  out += line;
  return out;
}

}  // namespace prefbench
