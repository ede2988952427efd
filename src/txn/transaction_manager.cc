#include "txn/transaction_manager.h"

#include <utility>

#include "algebra/relational_ops.h"
#include "constraints/generalized_relation.h"
#include "constraints/generalized_tuple.h"
#include "constraints/order_graph.h"
#include "core/check.h"
#include "core/str_util.h"
#include "io/commands.h"
#include "storage/storage_engine.h"

namespace dodb {
namespace txn {

namespace {

// Builds every lazy cache concurrent readers would otherwise race to build:
// the relation index, and each stored tuple's signature and closed order
// graph. After this, evaluation
// against copies of the relation performs pure reads on the shared objects.
void WarmRelation(GeneralizedRelation* rel) {
  rel->Index();
  for (const GeneralizedTuple& tuple : rel->tuples()) {
    tuple.CachedSignature();
    OrderGraph* graph = tuple.CachedGraph();
    if (graph != nullptr) graph->Close();
  }
}

}  // namespace

TransactionManager::TransactionManager(Database* db,
                                       storage::StorageEngine* engine,
                                       ViewRegistry* views)
    : db_(db), engine_(engine), views_(views) {
  DODB_CHECK(db_ != nullptr);
  if (engine_ != nullptr) {
    generation_ = engine_->recovery().last_txn_generation;
  }
  std::lock_guard<std::mutex> lock(write_mu_);
  std::set<std::string> all;
  for (const std::string& name : db_->RelationNames()) all.insert(name);
  PublishLocked(generation_, {}, NextSnapshotLocked(all));
}

std::unique_ptr<Transaction> TransactionManager::Begin() {
  auto txn = std::unique_ptr<Transaction>(new Transaction());
  txn->id_ = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    txn->snapshot_ = snapshot_;
    txn->begin_generation_ = generation_;
  }
  // O(#relations): the workspace copies the catalog map, every relation
  // sharing the snapshot's warmed COW tuple storage and built index.
  txn->workspace_ = *txn->snapshot_;
  counters_.begun.fetch_add(1, std::memory_order_relaxed);
  return txn;
}

Result<std::string> TransactionManager::ExecuteBuffered(
    Transaction* txn, std::string_view text) {
  DODB_CHECK(txn != nullptr);
  size_t before = txn->ops_.size();
  Result<std::string> result = ExecuteCommandBuffered(
      &txn->workspace_, text, views_, &txn->ops_, &txn->deltas_);
  if (result.ok()) {
    for (size_t i = before; i < txn->ops_.size(); ++i) {
      txn->written_.insert(txn->ops_[i].name);
    }
  }
  return result;
}

Result<std::string> TransactionManager::AutoCommit(std::string_view text) {
  std::lock_guard<std::mutex> wlock(write_mu_);
  Result<std::string> result = ExecuteCommand(db_, text, engine_, views_);
  if (!result.ok()) return result;
  // An accepted command named an existing (or, for create, a valid)
  // relation, so the shared grammar's target is never empty here.
  std::set<std::string> changed = {CommandTarget(text)};
  PublishLocked(generation_ + 1, changed,
                NextSnapshotLocked(WithDependentViews(changed)));
  return result;
}

Status TransactionManager::Commit(std::unique_ptr<Transaction> txn,
                                  std::string* warning,
                                  uint64_t* commit_generation_out) {
  DODB_CHECK(txn != nullptr);
  if (txn->ops_.empty()) {
    // Read-only: the snapshot it read is a committed state by construction,
    // so there is nothing to validate, log, or install.
    counters_.read_only_commits.fetch_add(1, std::memory_order_relaxed);
    counters_.committed.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  }
  std::lock_guard<std::mutex> wlock(write_mu_);
  uint64_t commit_generation = 0;
  {
    std::lock_guard<std::mutex> slock(state_mu_);
    for (const std::string& name : txn->written_) {
      auto it = last_writer_.find(name);
      if (it != last_writer_.end() && it->second > txn->begin_generation_) {
        counters_.conflicts.fetch_add(1, std::memory_order_relaxed);
        counters_.aborted.fetch_add(1, std::memory_order_relaxed);
        return Status::TxnConflict(StrCat(
            "relation '", name, "' was committed by generation ", it->second,
            " after this transaction began at generation ",
            txn->begin_generation_, "; first committer wins — retry"));
      }
    }
    commit_generation = generation_ + 1;
  }
  // One atomic record group: the whole write set becomes durable together
  // or (torn tail) vanishes together. On failure nothing was applied — the
  // engine is sticky-failed and the transaction dies without trace.
  if (engine_ != nullptr) {
    Status logged = engine_->LogTxnCommit(commit_generation, txn->ops_);
    if (!logged.ok()) {
      counters_.aborted.fetch_add(1, std::memory_order_relaxed);
      return logged;
    }
  }
  // Install: each op replayed against the authoritative catalog (same
  // semantics as WAL recovery), its view delta applied right after — the
  // exact sequence auto-commit would have produced. Validation guaranteed
  // the written relations' base state didn't move since the workspace
  // copied it, so the catalog ends bit-identical to the workspace.
  std::string warn;
  for (size_t i = 0; i < txn->ops_.size(); ++i) {
    Status applied = ApplyOp(txn->ops_[i]);
    if (!applied.ok()) {
      return Status::Internal(StrCat(
          "txn ", txn->id_, " commit diverged applying op ", i, ": ",
          applied.ToString()));
    }
    const BaseDelta& delta = txn->deltas_[i];
    if (views_ != nullptr &&
        (!delta.inserted.empty() || !delta.deleted.empty())) {
      Status maintained = views_->ApplyDelta(delta, db_);
      if (!maintained.ok() && warn.empty()) {
        warn = StrCat("view maintenance failed: ", maintained.message(),
                      "; affected views are stale until recomputed");
      }
    }
  }
  PublishLocked(commit_generation, txn->written_,
                NextSnapshotLocked(WithDependentViews(txn->written_)));
  counters_.committed.fetch_add(1, std::memory_order_relaxed);
  if (warning != nullptr) *warning = std::move(warn);
  if (commit_generation_out != nullptr) {
    *commit_generation_out = commit_generation;
  }
  return Status::Ok();
}

void TransactionManager::Abort(std::unique_ptr<Transaction> txn) {
  DODB_CHECK(txn != nullptr);
  counters_.aborted.fetch_add(1, std::memory_order_relaxed);
  // The write set only ever lived in the transaction; dropping it is the
  // whole rollback.
}

std::shared_ptr<const Database> TransactionManager::current_snapshot() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return snapshot_;
}

uint64_t TransactionManager::generation() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return generation_;
}

Status TransactionManager::Checkpoint() {
  std::lock_guard<std::mutex> wlock(write_mu_);
  if (engine_ == nullptr) {
    return Status::Unsupported("no storage engine attached");
  }
  return engine_->Checkpoint();
}

Status TransactionManager::ApplyOp(const storage::WalRecord& op) {
  switch (op.type) {
    case storage::WalRecordType::kCreateRelation:
      return db_->AddRelation(op.name, GeneralizedRelation(op.arity));
    case storage::WalRecordType::kDropRelation:
      if (!db_->RemoveRelation(op.name)) {
        return Status::Internal(
            StrCat("commit drop of missing relation '", op.name, "'"));
      }
      return Status::Ok();
    case storage::WalRecordType::kSetRelation:
      db_->SetRelation(op.name, op.relation);
      return Status::Ok();
    case storage::WalRecordType::kInsertTuples: {
      const GeneralizedRelation* existing = db_->FindRelation(op.name);
      if (existing == nullptr) {
        return Status::Internal(
            StrCat("commit insert into missing relation '", op.name, "'"));
      }
      db_->SetRelation(op.name, algebra::Union(*existing, op.relation));
      return Status::Ok();
    }
    default:
      return Status::Internal(StrCat("unexpected op type ",
                                     static_cast<int>(op.type),
                                     " in a transaction write set"));
  }
}

std::set<std::string> TransactionManager::WithDependentViews(
    std::set<std::string> changed) const {
  if (views_ == nullptr) return changed;
  std::set<std::string> dependents;
  for (const MaterializedView* view : views_->Views()) {
    for (const std::string& name : changed) {
      if (view->base_relations().count(name) != 0) {
        dependents.insert(view->name());
        break;
      }
    }
  }
  changed.insert(dependents.begin(), dependents.end());
  return changed;
}

std::shared_ptr<const Database> TransactionManager::NextSnapshotLocked(
    const std::set<std::string>& changed) const {
  std::shared_ptr<const Database> prev;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    prev = snapshot_;
  }
  // Start from the previous (already warm) snapshot so unchanged relations
  // keep sharing their built indexes and closed tuple caches; reconcile the
  // name set against the catalog (creates/drops need no changed entry),
  // then install fresh warmed copies of everything that moved.
  auto next = std::make_shared<Database>(prev != nullptr ? *prev : Database());
  for (const std::string& name : next->RelationNames()) {
    if (!db_->HasRelation(name)) next->RemoveRelation(name);
  }
  for (const std::string& name : db_->RelationNames()) {
    if (next->HasRelation(name) && changed.count(name) == 0) continue;
    const GeneralizedRelation* rel = db_->FindRelation(name);
    GeneralizedRelation copy = *rel;
    WarmRelation(&copy);
    next->SetRelation(name, std::move(copy));
  }
  return next;
}

void TransactionManager::PublishLocked(uint64_t generation,
                                       const std::set<std::string>& written,
                                       std::shared_ptr<const Database> next) {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    generation_ = generation;
    for (const std::string& name : written) last_writer_[name] = generation;
    snapshot_ = std::move(next);
  }
  counters_.snapshots_published.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace txn
}  // namespace dodb
