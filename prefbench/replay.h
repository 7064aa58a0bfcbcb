// The traced run's layer replay. Spans recorded here wrap calls into each
// layer's public functions (psql, stats, eval, exec, relation, ivm,
// server codec) on the same tables and statements the served workload
// used, so every per-layer metric is measured without changing src/.
#ifndef PREFBENCH_REPLAY_H_
#define PREFBENCH_REPLAY_H_

#include <string>
#include <utility>
#include <vector>

#include "eval/bmo.h"
#include "measure.h"
#include "psql/executor.h"
#include "relation/relation.h"
#include "stats/stats.h"
#include "streams.h"

namespace prefbench {

/// Stage timings (ms) of one statement replayed through the layers in the
/// order the engine runs them on a cold exec-cache entry.
struct StageTimes {
  double parse = 0;
  double translate = 0;
  double where = 0;
  double optimize = 0;
  double compile = 0;
  double kernel = 0;
  double materialize = 0;
  double serialize = 0;
  double parse_result = 0;
  size_t result_bytes = 0;
  /// Planned as one compiled block (the path regret and window estimates
  /// are measured on), and whether it compiled straight off the columns.
  bool block = false;
  bool zero_copy = false;
  /// The algorithm the planner chose (after the measured refinement on
  /// the block path).
  prefdb::BmoAlgorithm algorithm = prefdb::BmoAlgorithm::kAuto;
  /// The planner's window estimate and the maxima count the kernel found.
  double est_window = 0;
  double true_maxima = 0;
  /// The replayed result equals the engine's (a check on the replay).
  bool matches_engine = true;
};

/// Replays `sql` over `table`. `engine_result` is the engine's answer to
/// the same statement: it is serialized and parsed back for the codec
/// stages and compared with the replayed result.
StageTimes ReplayStatement(const prefdb::Relation& table,
                           const prefdb::TableStats& stats,
                           const std::string& sql,
                           const prefdb::BmoOptions& bmo,
                           const prefdb::psql::QueryResult& engine_result,
                           Tracer* tracer, uint64_t parent);

/// Time of the planner's `chosen` algorithm over the best forced
/// algorithm's time for `sql`, each through BmoIndices on the statement's
/// candidate pool (medians of `reps`). Returns a negative value for
/// statements outside the plain BMO fragment (ranked, GROUPING, no
/// PREFERRING).
double PlanRegret(const prefdb::Relation& table, const std::string& sql,
                  const prefdb::BmoOptions& bmo,
                  prefdb::BmoAlgorithm chosen, size_t reps, Tracer* tracer,
                  uint64_t parent);

/// Write-path layer costs on `table`, each a list of samples.
struct WritePathSamples {
  std::vector<double> derive_ms;
  std::vector<double> add_row_us;
  std::vector<double> cow_add_ms;
  std::vector<double> apply_insert_us;
  std::vector<double> apply_delete_us;
  std::vector<double> delta_serialize_us;
};

/// Times TableStats::Derive, TableStatsBuilder::AddRow, a snapshot copy
/// plus Relation::Add, MaintainedView::ApplyInsert/ApplyDelete for the
/// kSubscribeA view, and SerializeDelta of the deltas they produce, using
/// the stream's mutations as inputs.
WritePathSamples ProbeWritePath(const prefdb::Relation& table,
                                const std::vector<Mutation>& mutations,
                                const prefdb::BmoOptions& bmo, size_t reps,
                                Tracer* tracer);

/// One row of the ledger report: requests of one kind, their end-to-end
/// times, and the per-request times of the stages that kind runs.
struct LedgerClass {
  std::string title;
  std::vector<double> e2e_ms;
  std::vector<std::pair<std::string, std::vector<double>>> stages;

  /// (end-to-end median - sum of stage medians) / end-to-end median.
  double UnaccountedShare() const;
  std::string Render() const;
};

}  // namespace prefbench

#endif  // PREFBENCH_REPLAY_H_
