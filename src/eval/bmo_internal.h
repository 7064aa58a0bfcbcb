// Internals shared by eval/bmo.cc and the exec/ parallel engine: maxima
// computation over a block of distinct projected values, steered by a
// PhysicalPlan. Not part of the public API surface.

#ifndef PREFDB_EVAL_BMO_INTERNAL_H_
#define PREFDB_EVAL_BMO_INTERNAL_H_

#include <vector>

#include "core/preference.h"
#include "eval/bmo.h"
#include "eval/physical_plan.h"

namespace prefdb {
class ScoreTable;
}  // namespace prefdb

namespace prefdb::internal {

/// Resolves kAuto for a block of distinct values the way sequential BMO
/// does: D&C for skyline fragments, SFS when sort keys are derivable, BNL
/// otherwise. Never returns kAuto, kParallel or kDecomposition.
BmoAlgorithm ResolveBlockAlgorithm(const PrefPtr& p, const Schema& proj_schema);

/// Closure-path maximal-value flags for the `count` values at `values`,
/// under p bound against proj_schema, running `algo` (kAuto resolves via
/// ResolveBlockAlgorithm). Never compiles: compilation is
/// decided once per block (eval/compiled_block.h). Takes a raw range so
/// partition-parallel callers can evaluate contiguous slices without
/// copying tuples. kParallel and kDecomposition are relation-level
/// strategies, not block algorithms; they fall back to BNL here.
std::vector<bool> ComputeMaximaBlock(const Tuple* values, size_t count,
                                     const PrefPtr& p,
                                     const Schema& proj_schema,
                                     BmoAlgorithm algo);

inline std::vector<bool> ComputeMaximaBlock(const std::vector<Tuple>& values,
                                            const PrefPtr& p,
                                            const Schema& proj_schema,
                                            BmoAlgorithm algo) {
  return ComputeMaximaBlock(values.data(), values.size(), p, proj_schema,
                            algo);
}

/// Executes a planned block over an (optionally) precompiled table — the
/// one dispatch every consumer shares: kParallel routes to the
/// partition-and-merge engine (handing the table in), a compiled table
/// runs its kernels directly, and a null table runs the closure path. `values` may be null when
/// `table` is non-null (the zero-copy columnar compile has no
/// materialized value block); every table-backed path reads only `count`.
std::vector<bool> ExecuteBlockPlan(const Tuple* values, size_t count,
                                   const PrefPtr& p, const Schema& proj_schema,
                                   const ScoreTable* table,
                                   const PhysicalPlan& plan);

std::vector<bool> ExecuteBlockPlan(const std::vector<Tuple>& values,
                                   const PrefPtr& p, const Schema& proj_schema,
                                   const ScoreTable* table,
                                   const PhysicalPlan& plan);

}  // namespace prefdb::internal

#endif  // PREFDB_EVAL_BMO_INTERNAL_H_
