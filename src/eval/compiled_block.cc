#include "eval/compiled_block.h"

#include <algorithm>
#include <utility>

#include "eval/bmo_internal.h"
#include "exec/thread_pool.h"
#include "relation/column_store.h"

namespace prefdb::internal {

const char* CompileModeName(CompileMode mode) {
  switch (mode) {
    case CompileMode::kZeroCopy: return "zero-copy";
    case CompileMode::kGather: return "gather";
    case CompileMode::kClosure: return "closure";
  }
  return "?";
}

CompiledBlock::CompiledBlock(const Relation& r, PrefPtr p,
                             std::optional<std::vector<size_t>> pool,
                             const BmoOptions& options, PhysicalPlan plan,
                             PlanScope scope)
    : p_(std::move(p)), pool_(std::move(pool)), plan_(std::move(plan)) {
  const std::vector<size_t>* rows = pool_ ? &*pool_ : nullptr;
  pool_size_ = rows ? rows->size() : r.size();
  // Zero-copy is gated on a sampled distinctness probe: under heavy
  // duplication the deduplicating gather shrinks the kernel input enough
  // to win instead.
  if (options.vectorize && ScoreTable::CompilableColumnar(p_, r) &&
      LikelyMostlyDistinct(r, r.ResolveColumns(p_->attributes()), rows)) {
    table_ = ScoreTable::CompileColumnar(p_, r, rows);
  }
  if (table_) {
    mode_ = CompileMode::kZeroCopy;
    proj_.proj_schema = r.schema().Project(p_->attributes());
  } else {
    proj_ = BuildProjectionIndex(r, *p_, rows);
    if (options.vectorize && !proj_.values.empty()) {
      table_ = ScoreTable::Compile(p_, proj_.proj_schema, proj_.values.data(),
                                   proj_.values.size());
    }
    mode_ = table_ ? CompileMode::kGather : CompileMode::kClosure;
  }
  if (options.algorithm != BmoAlgorithm::kAuto) return;
  scope.allow_decomposition = false;
  if (table_) {
    // The compiled table sees the actual data (exact distinct counts,
    // injectivity, the sampled window probe): its statistics supersede
    // any estimate-level choice.
    plan_ = PlanPhysical(MeasureTermStats(*table_, p_, pool_size_), options,
                         scope);
  } else if (plan_.considered.empty()) {
    // An uncosted (pass-through) plan carries no cost table; a costed one
    // from the caller already knows more than a closure block measures.
    plan_ = PlanPhysical(
        EstimateClosureBlockStats(proj_.proj_schema, proj_.values.size(),
                                  pool_size_, p_),
        options, scope);
  }
}

std::vector<size_t> CompiledBlock::MaximalRows() const {
  std::vector<size_t> rows;
  if (pool_size_ == 0) return rows;
  const bool zero_copy = mode_ == CompileMode::kZeroCopy;
  const std::vector<bool> maximal = ExecuteBlockPlan(
      zero_copy ? nullptr : proj_.values.data(),
      zero_copy ? pool_size_ : proj_.values.size(), p_, proj_.proj_schema,
      table_ ? &*table_ : nullptr, plan_);
  for (size_t i = 0; i < pool_size_; ++i) {
    if (maximal[zero_copy ? i : proj_.row_to_value[i]]) {
      rows.push_back(pool_ ? (*pool_)[i] : i);
    }
  }
  return rows;
}

std::string CompiledBlock::KernelVariant() const {
  if (!table_) return "closure";
  if (plan_.algorithm != BmoAlgorithm::kParallel) {
    return table_->KernelVariant(plan_.algorithm, plan_);
  }
  return "parallel+" + table_->KernelVariant(BmoAlgorithm::kAuto, plan_);
}

std::vector<std::vector<size_t>> GroupPoolRows(
    const Relation& r, const std::vector<size_t>& cols,
    const std::vector<size_t>* pool) {
  GroupCoding coding = ComputeGroupCoding(r, cols, pool);
  std::vector<std::vector<size_t>> groups(coding.num_groups);
  for (size_t i = 0; i < coding.codes.size(); ++i) {
    groups[coding.codes[i]].push_back(pool ? (*pool)[i] : i);
  }
  return groups;
}

std::vector<CompiledBlock> CompileGroups(const Relation& r, const PrefPtr& p,
                                         const std::vector<size_t>& group_cols,
                                         const std::vector<size_t>* pool,
                                         const BmoOptions& options) {
  std::vector<std::vector<size_t>> groups = GroupPoolRows(r, group_cols, pool);
  PlanScope scope;
  scope.allow_parallel = groups.size() == 1;
  PhysicalPlan plan = PhysicalPlan::FromOptions(options);
  if (!scope.allow_parallel && plan.algorithm == BmoAlgorithm::kParallel) {
    plan.algorithm = BmoAlgorithm::kAuto;
  }
  std::vector<CompiledBlock> blocks;
  blocks.reserve(groups.size());
  for (std::vector<size_t>& rows : groups) {
    blocks.emplace_back(r, p, std::move(rows), options, plan, scope);
  }
  return blocks;
}

std::vector<size_t> MaximalRows(const std::vector<CompiledBlock>& blocks,
                                size_t num_threads) {
  if (blocks.size() == 1) return blocks[0].MaximalRows();
  std::vector<std::vector<size_t>> results(blocks.size());
  ThreadPool& pool = ThreadPool::Shared();
  const size_t threads = ThreadPool::ResolveThreads(num_threads);
  if (blocks.size() > 1 && threads > 1 && !pool.OnWorkerThread()) {
    pool.ParallelForChunks(blocks.size(), threads, 1,
                           [&](size_t, size_t begin, size_t end) {
                             for (size_t b = begin; b < end; ++b) {
                               results[b] = blocks[b].MaximalRows();
                             }
                           });
  } else {
    for (size_t b = 0; b < blocks.size(); ++b) {
      results[b] = blocks[b].MaximalRows();
    }
  }
  std::vector<size_t> rows;
  for (const std::vector<size_t>& block_rows : results) {
    rows.insert(rows.end(), block_rows.begin(), block_rows.end());
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace prefdb::internal
