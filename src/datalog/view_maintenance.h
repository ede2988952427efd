#ifndef DODB_DATALOG_VIEW_MAINTENANCE_H_
#define DODB_DATALOG_VIEW_MAINTENANCE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "constraints/closure_cache.h"
#include "core/status.h"
#include "datalog/datalog_evaluator.h"
#include "io/database.h"

namespace dodb {

/// Incremental maintenance of materialized Datalog views (DESIGN.md §13).
///
/// A view is a Datalog program registered under a name that must also be
/// one of the program's head predicates; that predicate's fixpoint relation
/// is exported into the catalog (queryable like any base relation), while
/// helper predicates stay internal to the view. After the initial
/// materialization, committed base-relation DML is propagated at O(delta)
/// cost instead of re-running the fixpoint:
///
///   - inserts fire the program's delta rules semi-naively from the changed
///     tuples only (base-relation occurrences first, then derived deltas),
///     reusing the parallel join kernel and a per-view closure memo that
///     persists across maintenance passes;
///   - deletes run DRed-style over the per-tuple support masks: a wave of
///     delta-restricted firings against the pre-delete snapshot clears the
///     emitting rule's support bit; a touched tuple survives only while a
///     *base-only* rule's bit remains set (recursive-rule bits can be
///     backed by derivation cycles, so they never stop the cascade), the
///     rest are structurally erased and propagated, and one re-derive
///     firing per affected head (over the reduced snapshot) restores
///     everything still derivable, with the restored tuples re-entering
///     the insert pipeline so recursive strata refill in derivation-depth
///     order;
///   - when the statement's delta exceeds options().max_delta_fraction of
///     the view's base tuples — or the program uses negation, or a
///     maintenance pass trips the query guard — the pass falls back to a
///     full recompute (or marks the view stale for a later refresh).
///
/// Consistency contract: after a successful ApplyDelta, every non-stale
/// view's exported relation is structurally identical to a from-scratch
/// evaluation of its program over the current base relations (the
/// randomized differentials in view_maintenance_test check exactly this at
/// 1 and 8 threads). A stale view keeps serving its last materialized state
/// until RefreshStale or the next maintenance pass recomputes it.
///
/// Not thread-safe: the registry serializes with the single-writer command
/// layer, like the catalog and the storage engine. Parallelism lives
/// *inside* a maintenance pass (rule jobs on the shared pool).

struct ViewMaintenanceOptions {
  /// Incremental maintenance hands off to a full recompute when
  /// (inserted + deleted) exceeds this fraction of the view's total base
  /// tuples. Guard-configurable from the shell (`\view threshold`).
  double max_delta_fraction = 0.25;
  /// Evaluation knobs shared by recompute and delta passes (threads, index/
  /// shard toggles, guard limits, fault spec...).
  DatalogOptions datalog;
};

/// One committed base-relation change, as structural tuple sets: `inserted`
/// are canonical tuples now stored that were not, `deleted` the reverse.
/// Note a semantic DML delete often produces both (surviving regions are
/// re-canonicalized into new forms), which is why both directions travel in
/// one delta. `old_relation`, when set, is the relation's pre-statement
/// state (an O(1) copy-on-write snapshot) — the delete pass fires its
/// over-delete rules against it; when absent it is reconstructed from the
/// current state plus the delta.
struct BaseDelta {
  std::string relation;
  std::vector<GeneralizedTuple> inserted;
  std::vector<GeneralizedTuple> deleted;
  std::unique_ptr<GeneralizedRelation> old_relation;
  /// Whether the statement subsume-erased stored base tuples without
  /// reporting them in `deleted` (dominated-delete elision: the displacing
  /// insert covers every derivation the displaced tuple fed). Semantically
  /// harmless for positive programs, but it breaks the support-mask
  /// invariant — bits may reference combinations whose inputs are gone —
  /// so dependent views lose exact_support() and later deletes recompute.
  bool base_displaced = false;
};

class ViewRegistry;

/// One registered view: definition, materialized IDB, and the per-tuple
/// maintenance metadata (support mask + derivation depth).
class MaterializedView {
 public:
  const std::string& name() const { return name_; }
  /// The definition text, verbatim (WAL payload; reparsed on Restore).
  const std::string& text() const { return text_; }
  const DatalogProgram& program() const { return program_; }
  /// Base (EDB) relations the program reads; DML on any of them triggers
  /// maintenance, and dropping one is refused while the view exists.
  const std::set<std::string>& base_relations() const { return bases_; }
  /// Whether the view can be maintained incrementally (positive program
  /// with at most 64 rules); otherwise every DML recomputes.
  bool incremental() const { return incremental_; }
  /// Whether every materialized tuple carries an exact support mask (some
  /// rule's firing emits it verbatim). Rebuilt-from-scratch masks can be
  /// inexact when a tuple's producing inputs were later subsume-erased;
  /// then incremental *deletes* would be unsound, so they recompute while
  /// inserts stay incremental.
  bool exact_support() const { return exact_support_; }
  /// Whether the materialization lags the base relations (a maintenance
  /// pass failed or recovery re-registered the view without state). Stale
  /// views recompute on the next maintenance pass or RefreshStale().
  bool stale() const { return stale_; }
  /// Deepest derivation round recorded in the current materialization.
  uint32_t max_depth() const { return max_depth_; }
  /// Exported relation's tuple count (0 while stale-and-empty).
  size_t tuple_count() const;

 private:
  friend class ViewRegistry;

  struct TupleMeta {
    uint64_t support = 0;  // bit i set = rule i emitted this tuple
    uint32_t depth = 0;    // fixpoint round of first derivation
  };
  struct TupleHash {
    size_t operator()(const GeneralizedTuple& t) const {
      return t.CachedSignature().hash;
    }
  };
  struct TupleEq {
    bool operator()(const GeneralizedTuple& a,
                    const GeneralizedTuple& b) const {
      return a.Compare(b) == 0;
    }
  };
  using MetaMap =
      std::unordered_map<GeneralizedTuple, TupleMeta, TupleHash, TupleEq>;

  std::string name_;
  std::string text_;
  DatalogProgram program_;
  std::map<std::string, int> idb_arities_;
  std::set<std::string> bases_;
  /// Bit i set = rule i's body reads base relations only. Only these bits
  /// are *acyclic* support: a recursive rule's bit may be backed by a
  /// derivation cycle (tc(a,b) and tc(b,a) each justifying the other), so
  /// the over-delete cascade must not stop on it — a tuple survives a
  /// delete wave only while a base-only bit remains set, and anything else
  /// is over-deleted and handed to re-derivation (plain DRed).
  uint64_t base_only_rules_ = 0;
  bool incremental_ = true;
  bool exact_support_ = true;
  bool stale_ = false;
  uint32_t max_depth_ = 0;
  /// Every IDB predicate's materialized fixpoint (the exported predicate
  /// plus helpers). Tuples share storage with the catalog export (COW).
  Database idb_;
  /// Per-predicate maintenance metadata, keyed by canonical tuple.
  std::map<std::string, MetaMap> meta_;
  /// Closure memo persisted across maintenance passes: successive deltas
  /// re-derive mostly-identical candidate conjunctions, so later passes
  /// serve most canonicalizations from here.
  std::unique_ptr<ClosureCache> memo_ = std::make_unique<ClosureCache>();
};

class ViewRegistry {
 public:
  explicit ViewRegistry(ViewMaintenanceOptions options = {});
  ~ViewRegistry();
  ViewRegistry(const ViewRegistry&) = delete;
  ViewRegistry& operator=(const ViewRegistry&) = delete;

  /// Parses and validates `text`, fully materializes the view, and exports
  /// its head relation into `*db` under `name`. The program must define a
  /// predicate named `name`, reference only existing non-view relations as
  /// EDB, and not collide with catalog names.
  Result<const MaterializedView*> Create(const std::string& name,
                                         const std::string& text,
                                         Database* db);

  /// Unregisters the view and removes its exported relation from `*db`.
  Status Drop(const std::string& name, Database* db);

  /// Re-registers a view from its definition text without evaluating it
  /// (the WAL-replay path): the view starts stale and recomputes on the
  /// next RefreshStale or maintenance pass. Validation against the catalog
  /// is deferred to that recompute — during replay the base relations may
  /// not have been reconstructed yet.
  Status Restore(const std::string& name, const std::string& text);

  /// Drops a view's registration without touching any catalog (WAL-replay
  /// counterpart of a logged view drop; the caller removes the relation).
  bool RestoreDrop(const std::string& name);

  /// Recomputes every stale view against `*db` (after crash recovery).
  Status RefreshStale(Database* db);

  /// Propagates one committed base-relation change into every dependent
  /// view — incrementally when possible, by full recompute otherwise. On a
  /// maintenance error (guard trip, resource exhaustion) the affected view
  /// is marked stale and the first error is returned; the base DML itself
  /// is already applied and unaffected.
  Status ApplyDelta(const BaseDelta& delta, Database* db);

  bool IsView(const std::string& name) const;
  /// Whether any view reads `relation` as a base relation.
  bool DependsOn(const std::string& relation) const;
  const MaterializedView* Find(const std::string& name) const;
  /// Registered views in name order.
  std::vector<const MaterializedView*> Views() const;
  size_t view_count() const { return views_.size(); }

  ViewMaintenanceOptions& options() { return options_; }
  const ViewMaintenanceOptions& options() const { return options_; }

 private:
  /// Shared Create/Restore setup: derives IDB arities, base relations and
  /// the incremental gate from the parsed program, and installs empty
  /// relation shells.
  Status Prepare(MaterializedView* view);

  /// From-scratch fixpoint of `view` over the base relations in `*db`
  /// (minus every view export), rebuilding support/depth metadata, then
  /// re-exports. Counts a view_full_recompute.
  Status Recompute(MaterializedView* view, Database* db);

  /// One incremental pass for a single view. `delta` must touch one of its
  /// base relations.
  Status Maintain(MaterializedView* view, const BaseDelta& delta,
                  Database* db);

  /// The semi-naive insert pipeline: seeds per-predicate deltas (base
  /// and/or rederived IDB tuples) and runs delta-rule firings to fixpoint,
  /// updating tuples/meta in place. `eval` is the pass evaluator over the
  /// current base snapshot; the maintenance scopes must already be
  /// installed.
  Status PropagateInserts(MaterializedView* view, DatalogEvaluator* eval,
                          std::map<std::string, GeneralizedRelation> delta_in,
                          const Database& base);

  /// DRed over-delete + re-derive. `delta.deleted` is the statement's
  /// structural removal set; `old_base`/`new_base` the pre-/post-statement
  /// base snapshots. Emits every rederived insert delta into
  /// `rederived_out` for the insert pipeline (which completes recursive
  /// re-derivation in depth order).
  Status MaintainDelete(
      MaterializedView* view, DatalogEvaluator* eval, const BaseDelta& delta,
      const Database& old_base, const Database& new_base,
      std::map<std::string, GeneralizedRelation>* rederived_out);

  /// After a full recompute of an incremental view: one naive firing per
  /// rule over the final fixpoint, OR-ing each rule's bit into the stored
  /// tuples it re-emits verbatim. Clears exact_support_ when some stored
  /// tuple gets no bit (see MaterializedView::exact_support()).
  Status RebuildSupport(MaterializedView* view, DatalogEvaluator* eval,
                        const Database& base);

  /// `*db` minus every view's exported relation: the evaluation base.
  Database BaseSnapshot(const Database& db) const;

  /// Copies the view's exported predicate relation into the catalog.
  void Export(const MaterializedView& view, Database* db) const;

  ViewMaintenanceOptions options_;
  std::map<std::string, std::unique_ptr<MaterializedView>> views_;
};

}  // namespace dodb

#endif  // DODB_DATALOG_VIEW_MAINTENANCE_H_
