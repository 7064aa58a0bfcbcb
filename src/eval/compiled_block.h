// One BMO block over a candidate pool: the single evaluator behind
// BmoIndices, BmoGroupByIndices and the Engine's cached exec entries.
// Grouping is plain BMO over a block, σ[P groupby A](R) = σ[A<-> & P](R)
// (Def. 16 over Def. 15), so an ungrouped query is one block and a
// GROUPING query is one block per group, both under the same policy.
//
// A block hides two decisions:
//  - the compile mode: zero-copy (ScoreTable::CompileColumnar straight
//    off the column buffers) when the term compiles columnar and a sampled
//    probe finds the pool mostly distinct; otherwise gather (the
//    deduplicating BuildProjectionIndex, then ScoreTable::Compile);
//    otherwise the closure path over the gathered values;
//  - the row mapping: maximal flags back to ascending global row indices.
//
// Not part of the public API surface.

#ifndef PREFDB_EVAL_COMPILED_BLOCK_H_
#define PREFDB_EVAL_COMPILED_BLOCK_H_

#include <optional>
#include <string>
#include <vector>

#include "core/preference.h"
#include "eval/bmo.h"
#include "eval/physical_plan.h"
#include "exec/score_table.h"
#include "relation/relation.h"

namespace prefdb::internal {

enum class CompileMode { kZeroCopy, kGather, kClosure };

/// "zero-copy", "gather" or "closure" (EXPLAIN's compile line).
const char* CompileModeName(CompileMode mode);

class CompiledBlock {
 public:
  /// Compiles `p` over the `pool` rows of `r` (global row indices,
  /// ascending; nullopt = all rows). `plan` is the caller's estimate-level
  /// plan. Under options.algorithm == kAuto the block refines it from what
  /// it measured: a compiled block re-plans from MeasureTermStats; a
  /// closure block keeps a costed plan and plans an uncosted (pass-through)
  /// one from EstimateClosureBlockStats over its exact distinct count.
  /// `scope` bounds that refinement; decomposition is relation-level and
  /// never chosen here. The block keeps no reference to `r`.
  CompiledBlock(const Relation& r, PrefPtr p,
                std::optional<std::vector<size_t>> pool,
                const BmoOptions& options, PhysicalPlan plan,
                PlanScope scope = {});

  /// σ[P] over the pool: the maximal rows as ascending global indices.
  std::vector<size_t> MaximalRows() const;

  CompileMode mode() const { return mode_; }
  const PhysicalPlan& plan() const { return plan_; }

  /// The kernel label surfaced by EXPLAIN and QueryStats.kernel, e.g.
  /// "bnl[avx2,tile=8192]", "parallel+sfs[scalar]" or "closure".
  std::string KernelVariant() const;

 private:
  PrefPtr p_;
  std::optional<std::vector<size_t>> pool_;
  size_t pool_size_ = 0;
  // Distinct projections and row mapping; only proj_schema for zero-copy,
  // whose table row i is pool position i.
  ProjectionIndex proj_;
  std::optional<ScoreTable> table_;
  CompileMode mode_ = CompileMode::kClosure;
  PhysicalPlan plan_;
};

/// Buckets the pool rows (`pool` null = all rows) by their projection
/// onto `cols`, groups in first-occurrence order; each group holds
/// ascending global row indices.
std::vector<std::vector<size_t>> GroupPoolRows(
    const Relation& r, const std::vector<size_t>& cols,
    const std::vector<size_t>* pool);

/// σ[P groupby A] over the pool: one block per GroupPoolRows group, each
/// compiled and planned from its own data. Several groups fan out over
/// the worker pool themselves, so kParallel stays eligible (or, when
/// requested explicitly, in force) only for a single degenerate group.
std::vector<CompiledBlock> CompileGroups(const Relation& r, const PrefPtr& p,
                                         const std::vector<size_t>& group_cols,
                                         const std::vector<size_t>* pool,
                                         const BmoOptions& options);

/// The maximal rows of every block, ascending. More than one block runs
/// one block per task on the shared pool with up to `num_threads` workers
/// (0 = hardware concurrency).
std::vector<size_t> MaximalRows(const std::vector<CompiledBlock>& blocks,
                                size_t num_threads);

}  // namespace prefdb::internal

#endif  // PREFDB_EVAL_COMPILED_BLOCK_H_
