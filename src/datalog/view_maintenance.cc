#include "datalog/view_maintenance.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <functional>
#include <optional>
#include <utility>

#include "constraints/eval_counters.h"
#include "constraints/tuple_signature.h"
#include "core/check.h"
#include "core/fault_injection.h"
#include "core/query_guard.h"
#include "core/str_util.h"
#include "core/thread_pool.h"
#include "datalog/datalog_parser.h"

namespace dodb {

namespace {

// Body relations below this size skip semi-join restriction: probing the
// index and materializing the subset costs more than the firing saves.
constexpr size_t kMinRestrictTuples = 16;

// Support masks are one bit per rule; larger programs recompute instead.
constexpr size_t kMaxIncrementalRules = 64;

uint64_t RuleBit(size_t rule_index) { return uint64_t{1} << rule_index; }

bool IsViewName(const std::string& name) {
  if (name.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_') {
    return false;
  }
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  return true;
}

// Installs the evaluation scopes one maintenance pass needs, mirroring
// DatalogEvaluator::Evaluate(): the thread-count override, a resolved guard
// (shared by the sequential merge phases via the thread-local scope and by
// every rule job via eval_options), and the view's persistent closure memo.
// Also owns the pass's wall-clock attribution: the elapsed time lands in the
// view_maintenance_ns counter at destruction.
class MaintenancePass {
 public:
  MaintenancePass(ClosureCache* memo, const ViewMaintenanceOptions& options)
      : options_(options.datalog),
        threads_(options_.eval_options.num_threads),
        guard_(options_.eval_options.guard, options_.eval_options.limits,
               options_.eval_options.fault_spec),
        guard_scope_(guard_.get()),
        memo_scope_(memo),
        start_(std::chrono::steady_clock::now()) {
    options_.eval_options.guard = guard_.get();
    if (options_.eval_options.closure_cache == nullptr) {
      options_.eval_options.closure_cache = memo;
    }
  }
  ~MaintenancePass() {
    EvalCounters::AddViewMaintenanceNs(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count()));
  }
  MaintenancePass(const MaintenancePass&) = delete;
  MaintenancePass& operator=(const MaintenancePass&) = delete;

  /// DatalogOptions with the resolved guard and the view memo installed —
  /// what the pass's DatalogEvaluator (and hence every FireRule job's
  /// nested FoEvaluator) runs under.
  const DatalogOptions& options() const { return options_; }
  QueryGuard* guard() const { return guard_.get(); }
  Status status() const { return guard_.status(); }

 private:
  DatalogOptions options_;
  EvalThreadsScope threads_;
  ResolvedGuard guard_;
  QueryGuardScope guard_scope_;
  ClosureCacheScope memo_scope_;
  std::chrono::steady_clock::time_point start_;
};

// One delta-restricted firing: rule `rule` with body occurrence
// `occurrence` bound to `pred`'s delta.
struct DeltaJob {
  size_t rule = 0;
  size_t occurrence = 0;
  std::string pred;
};

// Plans the round's delta jobs: one per positive relation occurrence of a
// predicate that currently has a nonempty delta. (Incremental views are
// positive programs, so every relation literal qualifies.)
std::vector<DeltaJob> PlanDeltaJobs(
    const DatalogProgram& program,
    const std::map<std::string, GeneralizedRelation>& deltas) {
  std::vector<DeltaJob> jobs;
  for (size_t i = 0; i < program.rules.size(); ++i) {
    const DatalogRule& rule = program.rules[i];
    for (size_t o = 0; o < rule.body.size(); ++o) {
      const DatalogLiteral& literal = rule.body[o];
      if (literal.kind != DatalogLiteral::Kind::kRelation || literal.negated) {
        continue;
      }
      auto it = deltas.find(literal.relation);
      if (it == deltas.end() || it->second.IsEmpty()) continue;
      jobs.push_back(DeltaJob{i, o, literal.relation});
    }
  }
  return jobs;
}

// A delta-directed firing plan: the relation each body occurrence reads in
// the firing (null = the snapshot's relation), plus the static verdict that
// the firing cannot emit anything because some restricted body literal has
// no candidate tuples at all (then the caller skips the firing outright
// instead of evaluating a join with an empty input).
struct FirePlan {
  std::vector<const GeneralizedRelation*> inputs;
  std::vector<std::optional<GeneralizedRelation>> subsets;  // behind inputs
  bool provably_empty = false;
};

// Evaluates `eval_job` for each job index — on the pool when worthwhile,
// with the snapshot's and the plans' input caches warmed first so workers
// share them read-only (same discipline as RunToFixpoint).
std::vector<Result<GeneralizedRelation>> RunJobs(
    size_t n, const Database& snapshot, const std::vector<FirePlan>& plans,
    const std::function<Result<GeneralizedRelation>(size_t)>& eval_job) {
  if (!ShouldParallelize(n)) {
    std::vector<Result<GeneralizedRelation>> out;
    out.reserve(n);
    for (size_t j = 0; j < n; ++j) out.push_back(eval_job(j));
    return out;
  }
  std::vector<const GeneralizedRelation*> bound;
  for (const FirePlan& plan : plans) {
    bound.insert(bound.end(), plan.inputs.begin(), plan.inputs.end());
  }
  WarmDatabaseCaches(snapshot, bound);
  return ParallelMap<Result<GeneralizedRelation>>(n, eval_job);
}

GeneralizedRelation RelationFromTuples(
    int arity, const std::vector<GeneralizedTuple>& tuples) {
  GeneralizedRelation rel(arity);
  for (const GeneralizedTuple& tuple : tuples) rel.AddCanonicalTuple(tuple);
  return rel;
}

// Semi-join restriction for one delta-directed firing — what makes a firing
// O(delta) instead of O(n). The delta occurrence (a body literal, or at
// body.size() the head atom of a re-derivation firing) reads `delta_rel`
// and binds each shared join variable to the delta's per-column cover box;
// every other positive body literal then reads, via the relation index,
// only the stored tuples whose bound box overlaps that cover on the shared
// columns. A shared simple variable lowers to a dense-order equality
// between the two columns, and disjoint column boxes make that equality
// unsatisfiable (exactly the engine's pair-pruning criterion,
// BoundsMayOverlap), so the dropped tuples could not have contributed to
// the join: the restricted firing emits precisely what the unrestricted one
// would, without reading the non-joinable bulk of each body relation.
void PlanSemiJoinRestrictions(const DatalogRule& rule, size_t delta_occurrence,
                              const GeneralizedRelation& delta_rel,
                              const Database& snapshot, FirePlan* plan) {
  plan->inputs.assign(std::max(rule.body.size(), delta_occurrence + 1),
                      nullptr);
  plan->subsets.resize(plan->inputs.size());
  plan->inputs[delta_occurrence] = &delta_rel;
  if (delta_rel.IsEmpty()) {
    plan->provably_empty = true;
    return;
  }
  // Join variables the delta literal binds → the delta column binding them.
  const std::vector<FoExpr>& delta_args =
      delta_occurrence < rule.body.size() ? rule.body[delta_occurrence].args
                                          : rule.head_args;
  std::map<std::string, int> delta_columns;
  for (size_t c = 0; c < delta_args.size(); ++c) {
    if (delta_args[c].IsSimpleVar()) {
      delta_columns.emplace(delta_args[c].VarName(), static_cast<int>(c));
    }
  }
  if (delta_columns.empty()) return;
  // Cover boxes (interval hulls) over the delta's tuples, one per referenced
  // delta column, computed lazily — the delta has O(delta) tuples.
  std::vector<char> have_cover(delta_args.size(), 0);
  std::vector<ColumnBound> covers(delta_args.size());
  auto cover_of = [&](int column) -> const ColumnBound& {
    if (!have_cover[column]) {
      bool first = true;
      for (const GeneralizedTuple& tuple : delta_rel.tuples()) {
        const TupleSignature& sig = tuple.CachedSignature();
        DODB_CHECK(static_cast<size_t>(column) < sig.columns.size());
        if (first) {
          covers[column] = sig.columns[column];
          first = false;
        } else {
          WidenToCover(covers[column], sig.columns[column]);
        }
      }
      have_cover[column] = 1;
    }
    return covers[column];
  };

  for (size_t o = 0; o < rule.body.size(); ++o) {
    if (o == delta_occurrence) continue;
    const DatalogLiteral& literal = rule.body[o];
    if (literal.kind != DatalogLiteral::Kind::kRelation || literal.negated) {
      continue;
    }
    const GeneralizedRelation* rel = snapshot.FindRelation(literal.relation);
    if (rel == nullptr || rel->tuple_count() < kMinRestrictTuples) continue;
    TupleSignature probe;
    probe.columns.resize(literal.args.size());  // default = unbounded
    bool constrained = false;
    for (size_t c = 0; c < literal.args.size(); ++c) {
      if (!literal.args[c].IsSimpleVar()) continue;
      auto it = delta_columns.find(literal.args[c].VarName());
      if (it == delta_columns.end()) continue;
      probe.columns[c] = cover_of(it->second);
      constrained = true;
    }
    if (!constrained) continue;
    std::optional<GeneralizedRelation>& subset = plan->subsets[o];
    subset = rel->OverlapSubset(probe);
    if (subset->IsEmpty()) {
      // No stored tuple can join the delta through this literal, so the
      // whole conjunction is empty — the caller skips the firing.
      plan->provably_empty = true;
      return;
    }
    plan->inputs[o] = &*subset;
  }
}

}  // namespace

size_t MaterializedView::tuple_count() const {
  const GeneralizedRelation* rel = idb_.FindRelation(name_);
  return rel == nullptr ? 0 : rel->tuple_count();
}

ViewRegistry::ViewRegistry(ViewMaintenanceOptions options)
    : options_(std::move(options)) {}

ViewRegistry::~ViewRegistry() = default;

Result<const MaterializedView*> ViewRegistry::Create(const std::string& name,
                                                     const std::string& text,
                                                     Database* db) {
  DODB_CHECK(db != nullptr);
  if (!IsViewName(name)) {
    return Status::InvalidArgument(
        StrCat("'", name, "' is not a valid view name"));
  }
  if (views_.count(name) != 0) {
    return Status::InvalidArgument(StrCat("view '", name, "' already exists"));
  }
  if (db->HasRelation(name)) {
    return Status::InvalidArgument(
        StrCat("a relation named '", name, "' already exists"));
  }
  Result<DatalogProgram> parsed = DatalogParser::ParseProgram(text);
  if (!parsed.ok()) return parsed.status();

  auto view = std::make_unique<MaterializedView>();
  view->name_ = name;
  view->text_ = text;
  view->program_ = std::move(parsed).value();
  DODB_RETURN_IF_ERROR(Prepare(view.get()));
  for (const std::string& base : view->bases_) {
    if (views_.count(base) != 0) {
      return Status::Unsupported(
          StrCat("view '", name, "' reads view '", base,
                 "': views over views are not supported"));
    }
    if (!db->HasRelation(base)) {
      return Status::NotFound(
          StrCat("view '", name, "' reads unknown relation '", base, "'"));
    }
  }

  MaterializedView* raw = view.get();
  Status status = Recompute(raw, db);
  if (!status.ok()) return status;  // nothing registered, catalog untouched
  views_.emplace(name, std::move(view));
  return raw;
}

Status ViewRegistry::Prepare(MaterializedView* view) {
  if (!view->program_.queries.empty()) {
    return Status::InvalidArgument(
        "view definitions must not contain '?-' queries");
  }
  view->idb_arities_ = view->program_.IdbArities();
  if (view->idb_arities_.count(view->name_) == 0) {
    return Status::InvalidArgument(
        StrCat("view program must define a predicate named '", view->name_,
               "'"));
  }
  view->bases_.clear();
  view->base_only_rules_ = 0;
  bool positive = true;
  for (size_t i = 0; i < view->program_.rules.size(); ++i) {
    bool base_only = true;
    for (const DatalogLiteral& literal : view->program_.rules[i].body) {
      if (literal.kind != DatalogLiteral::Kind::kRelation) continue;
      if (literal.negated) positive = false;
      if (view->idb_arities_.count(literal.relation) == 0) {
        view->bases_.insert(literal.relation);
      } else {
        base_only = false;
      }
    }
    if (base_only && i < kMaxIncrementalRules) {
      view->base_only_rules_ |= RuleBit(i);
    }
  }
  view->incremental_ =
      positive && view->program_.rules.size() <= kMaxIncrementalRules;
  // Empty relation shells so tuple_count()/Export are well-defined even
  // while stale; Recompute replaces them wholesale.
  Database shells;
  for (const auto& [pred, arity] : view->idb_arities_) {
    shells.SetRelation(pred, GeneralizedRelation(arity));
  }
  view->idb_ = std::move(shells);
  view->meta_.clear();
  view->max_depth_ = 0;
  view->exact_support_ = true;
  return Status::Ok();
}

Status ViewRegistry::Drop(const std::string& name, Database* db) {
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound(StrCat("no view named '", name, "'"));
  }
  views_.erase(it);
  db->RemoveRelation(name);
  return Status::Ok();
}

Status ViewRegistry::Restore(const std::string& name,
                             const std::string& text) {
  if (views_.count(name) != 0) {
    return Status::InvalidArgument(
        StrCat("view '", name, "' already registered"));
  }
  Result<DatalogProgram> parsed = DatalogParser::ParseProgram(text);
  if (!parsed.ok()) return parsed.status();
  auto view = std::make_unique<MaterializedView>();
  view->name_ = name;
  view->text_ = text;
  view->program_ = std::move(parsed).value();
  DODB_RETURN_IF_ERROR(Prepare(view.get()));
  view->stale_ = true;
  views_.emplace(name, std::move(view));
  return Status::Ok();
}

bool ViewRegistry::RestoreDrop(const std::string& name) {
  return views_.erase(name) != 0;
}

Status ViewRegistry::RefreshStale(Database* db) {
  Status first = Status::Ok();
  for (auto& [name, view] : views_) {
    if (!view->stale_) continue;
    Status status = Recompute(view.get(), db);
    if (!status.ok() && first.ok()) first = status;
  }
  return first;
}

Status ViewRegistry::ApplyDelta(const BaseDelta& delta, Database* db) {
  DODB_CHECK(db != nullptr);
  if (delta.inserted.empty() && delta.deleted.empty()) return Status::Ok();
  Status first = Status::Ok();
  for (auto& [name, view] : views_) {
    if (view->bases_.count(delta.relation) == 0) continue;
    Status status = Maintain(view.get(), delta, db);
    // A failed view is stale (Maintain marked it) but the others still get
    // their maintenance; the first error surfaces to the DML caller.
    if (!status.ok() && first.ok()) first = status;
  }
  return first;
}

bool ViewRegistry::IsView(const std::string& name) const {
  return views_.count(name) != 0;
}

bool ViewRegistry::DependsOn(const std::string& relation) const {
  for (const auto& [name, view] : views_) {
    if (view->bases_.count(relation) != 0) return true;
  }
  return false;
}

const MaterializedView* ViewRegistry::Find(const std::string& name) const {
  auto it = views_.find(name);
  return it == views_.end() ? nullptr : it->second.get();
}

std::vector<const MaterializedView*> ViewRegistry::Views() const {
  std::vector<const MaterializedView*> out;
  out.reserve(views_.size());
  for (const auto& [name, view] : views_) out.push_back(view.get());
  return out;
}

Database ViewRegistry::BaseSnapshot(const Database& db) const {
  Database base = db;
  for (const auto& [name, view] : views_) base.RemoveRelation(name);
  return base;
}

void ViewRegistry::Export(const MaterializedView& view, Database* db) const {
  const GeneralizedRelation* rel = view.idb_.FindRelation(view.name());
  DODB_CHECK(rel != nullptr);
  db->SetRelation(view.name(), *rel);
}

Status ViewRegistry::Recompute(MaterializedView* view, Database* db) {
  EvalCounters::AddViewFullRecomputes(1);
  MaintenancePass pass(view->memo_.get(), options_);
  DODB_RETURN_IF_ERROR(pass.status());
  Database base = BaseSnapshot(*db);
  DatalogEvaluator eval(view->program_, &base, pass.options());
  Result<Database> idb = eval.Evaluate();
  if (!idb.ok()) {
    view->stale_ = true;
    return idb.status();
  }
  view->idb_ = std::move(idb).value();
  view->max_depth_ = static_cast<uint32_t>(eval.iterations());
  view->meta_.clear();
  view->exact_support_ = true;
  view->stale_ = false;
  if (view->incremental_) {
    Status status = RebuildSupport(view, &eval, base);
    if (!status.ok()) {
      view->stale_ = true;
      return status;
    }
  }
  Export(*view, db);
  return Status::Ok();
}

Status ViewRegistry::RebuildSupport(MaterializedView* view,
                                    DatalogEvaluator* eval,
                                    const Database& base) {
  // Seed every stored tuple with an empty mask, then OR in a rule's bit
  // whenever its naive firing over the final fixpoint re-emits the tuple
  // verbatim.
  for (const auto& [pred, arity] : view->idb_arities_) {
    MaterializedView::MetaMap& meta = view->meta_[pred];
    meta.clear();
    const GeneralizedRelation* rel = view->idb_.FindRelation(pred);
    DODB_CHECK(rel != nullptr);
    meta.reserve(rel->tuple_count());
    for (const GeneralizedTuple& tuple : rel->tuples()) {
      meta.emplace(tuple, MaterializedView::TupleMeta{});
    }
  }

  Database snapshot = base;
  for (const std::string& pred : view->idb_.RelationNames()) {
    snapshot.SetRelation(pred, *view->idb_.FindRelation(pred));
  }
  QueryGuard* guard = CurrentQueryGuard();
  const size_t num_rules = view->program_.rules.size();
  auto eval_job = [&](size_t j) -> Result<GeneralizedRelation> {
    if (guard != nullptr && !guard->Checkpoint(GuardSite::kDatalogRule)) {
      return guard->status();
    }
    return eval->FireRule(j, snapshot);
  };
  std::vector<Result<GeneralizedRelation>> fired =
      RunJobs(num_rules, snapshot, {}, eval_job);

  GuardTicker ticker(guard, GuardSite::kViewDeltaApply, 64);
  for (size_t j = 0; j < num_rules; ++j) {
    if (!fired[j].ok()) return fired[j].status();
    MaterializedView::MetaMap& meta =
        view->meta_[view->program_.rules[j].head];
    const uint64_t bit = RuleBit(j);
    for (const GeneralizedTuple& tuple : fired[j].value().tuples()) {
      if (!ticker.Tick()) return guard->status();
      auto it = meta.find(tuple);
      if (it != meta.end()) it->second.support |= bit;
    }
  }
  for (const auto& [pred, meta] : view->meta_) {
    for (const auto& [tuple, tuple_meta] : meta) {
      if (tuple_meta.support == 0) {
        // A stored tuple no final-state firing re-emits verbatim (its
        // producing inputs were subsume-erased after it was derived).
        // Support-driven deletion can't see its death, so deletes on this
        // view fall back to recompute until the next exact rebuild.
        view->exact_support_ = false;
        return Status::Ok();
      }
    }
  }
  return Status::Ok();
}

Status ViewRegistry::Maintain(MaterializedView* view, const BaseDelta& delta,
                              Database* db) {
  if (view->stale_ || !view->incremental_ ||
      (!delta.deleted.empty() && !view->exact_support_)) {
    return Recompute(view, db);
  }
  size_t base_total = 0;
  for (const std::string& base : view->bases_) {
    const GeneralizedRelation* rel = db->FindRelation(base);
    if (rel != nullptr) base_total += rel->tuple_count();
  }
  const size_t delta_size = delta.inserted.size() + delta.deleted.size();
  if (base_total == 0 ||
      static_cast<double>(delta_size) >
          options_.max_delta_fraction * static_cast<double>(base_total)) {
    return Recompute(view, db);
  }

  MaintenancePass pass(view->memo_.get(), options_);
  DODB_RETURN_IF_ERROR(pass.status());
  Database new_base = BaseSnapshot(*db);
  DatalogEvaluator eval(view->program_, &new_base, pass.options());

  Status status = Status::Ok();
  std::map<std::string, GeneralizedRelation> delta_in;
  if (!delta.deleted.empty()) {
    // Reconstruct the pre-statement base state the over-delete waves fire
    // against: either the caller's COW snapshot, or current ∖ inserted ∪
    // deleted (the structural inverse of the statement).
    Database old_base = new_base;
    if (delta.old_relation != nullptr) {
      old_base.SetRelation(delta.relation, *delta.old_relation);
    } else {
      const GeneralizedRelation* current = new_base.FindRelation(delta.relation);
      DODB_CHECK(current != nullptr);
      GeneralizedRelation old_rel = *current;
      for (const GeneralizedTuple& tuple : delta.inserted) {
        old_rel.EraseCanonicalTuple(tuple);
      }
      for (const GeneralizedTuple& tuple : delta.deleted) {
        old_rel.AddCanonicalTuple(tuple);
      }
      old_base.SetRelation(delta.relation, std::move(old_rel));
    }
    status = MaintainDelete(view, &eval, delta, old_base, new_base, &delta_in);
  }
  if (status.ok() && !delta.inserted.empty()) {
    const GeneralizedRelation* rel = new_base.FindRelation(delta.relation);
    DODB_CHECK(rel != nullptr);
    delta_in.emplace(delta.relation,
                     RelationFromTuples(rel->arity(), delta.inserted));
  }
  if (status.ok() && !delta_in.empty()) {
    status = PropagateInserts(view, &eval, std::move(delta_in), new_base);
  }
  if (!status.ok()) {
    view->stale_ = true;
    return status;
  }
  if (delta.base_displaced) view->exact_support_ = false;
  Export(*view, db);
  return Status::Ok();
}

Status ViewRegistry::PropagateInserts(
    MaterializedView* view, DatalogEvaluator* eval,
    std::map<std::string, GeneralizedRelation> delta_in, const Database& base) {
  QueryGuard* guard = CurrentQueryGuard();
  const std::vector<DatalogRule>& rules = view->program_.rules;
  uint64_t rounds = 0;
  const uint64_t max_rounds = options_.datalog.max_iterations;

  while (!delta_in.empty()) {
    if (max_rounds != 0 && ++rounds > max_rounds) {
      return Status::ResourceExhausted(
          StrCat("view '", view->name_,
                 "' maintenance did not stabilize within ", max_rounds,
                 " rounds"));
    }
    if (guard != nullptr &&
        !guard->Checkpoint(GuardSite::kViewDeltaApply)) {
      return guard->status();
    }

    Database snapshot = base;
    for (const std::string& pred : view->idb_.RelationNames()) {
      snapshot.SetRelation(pred, *view->idb_.FindRelation(pred));
    }
    std::vector<DeltaJob> jobs = PlanDeltaJobs(view->program_, delta_in);
    if (jobs.empty()) break;  // deltas no rule body reads

    std::vector<FirePlan> plans(jobs.size());
    for (size_t j = 0; j < jobs.size(); ++j) {
      PlanSemiJoinRestrictions(rules[jobs[j].rule], jobs[j].occurrence,
                               delta_in.at(jobs[j].pred), snapshot,
                               &plans[j]);
    }
    auto eval_job = [&](size_t j) -> Result<GeneralizedRelation> {
      if (plans[j].provably_empty) {
        return GeneralizedRelation(
            static_cast<int>(rules[jobs[j].rule].head_args.size()));
      }
      if (guard != nullptr && !guard->Checkpoint(GuardSite::kDatalogRule)) {
        return guard->status();
      }
      return eval->FireRule(jobs[j].rule, snapshot, plans[j].inputs);
    };
    std::vector<Result<GeneralizedRelation>> fired =
        RunJobs(jobs.size(), snapshot, plans, eval_job);

    // Sequential merge in plan order, mirroring RunToFixpoint. The round's
    // delta is collected *during* the merge — every fresh insert is a delta
    // tuple unless a later insert in the same round subsume-erases it — so
    // producing the delta costs O(delta) probes instead of a structural
    // diff's full-relation scan (which would make every round O(n)).
    std::map<std::string, GeneralizedRelation> work;
    std::map<std::string, std::vector<GeneralizedTuple>> fresh;
    GuardTicker ticker(guard, GuardSite::kViewDeltaApply, 64);
    std::vector<GeneralizedTuple> erased;
    for (size_t j = 0; j < jobs.size(); ++j) {
      if (!fired[j].ok()) return fired[j].status();
      const std::string& head = rules[jobs[j].rule].head;
      auto wit = work.find(head);
      if (wit == work.end()) {
        wit = work.emplace(head, *view->idb_.FindRelation(head)).first;
      }
      MaterializedView::MetaMap& meta = view->meta_[head];
      std::vector<GeneralizedTuple>& fresh_head = fresh[head];
      const uint64_t bit = RuleBit(jobs[j].rule);
      for (const GeneralizedTuple& tuple : fired[j].value().tuples()) {
        if (!ticker.Tick()) return guard->status();
        erased.clear();
        if (wit->second.AddCanonicalTupleCaptured(tuple, &erased)) {
          meta[tuple] = MaterializedView::TupleMeta{
              bit, static_cast<uint32_t>(rounds)};
          fresh_head.push_back(tuple);
          // Displaced tuples may have fed downstream derivations whose
          // support bits now reference unrunnable combinations; deletes on
          // this view recompute until the next exact rebuild.
          if (!erased.empty()) view->exact_support_ = false;
          for (const GeneralizedTuple& dead : erased) {
            meta.erase(dead);
            for (auto fit = fresh_head.begin(); fit != fresh_head.end();
                 ++fit) {
              if (fit->Compare(dead) == 0) {
                fresh_head.erase(fit);
                break;
              }
            }
          }
        } else {
          auto mit = meta.find(tuple);
          if (mit != meta.end()) mit->second.support |= bit;
        }
      }
    }

    uint64_t delta_tuples = 0;
    std::map<std::string, GeneralizedRelation> delta_out;
    for (auto& [head, rel] : work) {
      std::vector<GeneralizedTuple>& fresh_head = fresh[head];
      if (fresh_head.empty()) continue;
      delta_tuples += fresh_head.size();
      GeneralizedRelation diff =
          RelationFromTuples(rel.arity(), fresh_head);
      view->idb_.SetRelation(head, std::move(rel));
      delta_out.emplace(head, std::move(diff));
    }
    EvalCounters::AddViewDeltaTuples(delta_tuples);
    view->max_depth_ =
        std::max(view->max_depth_, static_cast<uint32_t>(rounds));
    delta_in = std::move(delta_out);
  }
  return Status::Ok();
}

Status ViewRegistry::MaintainDelete(
    MaterializedView* view, DatalogEvaluator* eval, const BaseDelta& delta,
    const Database& old_base, const Database& new_base,
    std::map<std::string, GeneralizedRelation>* rederived_out) {
  QueryGuard* guard = CurrentQueryGuard();
  const std::vector<DatalogRule>& rules = view->program_.rules;

  // The over-delete waves all fire against the pre-statement state: wave k
  // re-executes exactly the derivation steps that consumed a tuple deleted
  // in wave k-1, so each emission that matches a stored tuple verbatim
  // clears the emitting rule's support bit. Support empty = every recorded
  // derivation is gone = over-delete (re-derive restores survivors).
  Database old_snapshot = old_base;
  for (const std::string& pred : view->idb_.RelationNames()) {
    old_snapshot.SetRelation(pred, *view->idb_.FindRelation(pred));
  }

  const GeneralizedRelation* base_rel = old_base.FindRelation(delta.relation);
  DODB_CHECK(base_rel != nullptr);
  std::map<std::string, GeneralizedRelation> wave;
  wave.emplace(delta.relation,
               RelationFromTuples(base_rel->arity(), delta.deleted));
  std::map<std::string, std::vector<GeneralizedTuple>> overdeleted;
  uint64_t waves = 0;
  const uint64_t max_rounds = options_.datalog.max_iterations;

  while (!wave.empty()) {
    if (max_rounds != 0 && ++waves > max_rounds) {
      return Status::ResourceExhausted(
          StrCat("view '", view->name_,
                 "' over-delete did not stabilize within ", max_rounds,
                 " waves"));
    }
    if (guard != nullptr &&
        !guard->Checkpoint(GuardSite::kViewDeltaApply)) {
      return guard->status();
    }
    std::vector<DeltaJob> jobs = PlanDeltaJobs(view->program_, wave);
    if (jobs.empty()) break;

    std::vector<FirePlan> plans(jobs.size());
    for (size_t j = 0; j < jobs.size(); ++j) {
      PlanSemiJoinRestrictions(rules[jobs[j].rule], jobs[j].occurrence,
                               wave.at(jobs[j].pred), old_snapshot,
                               &plans[j]);
    }
    auto eval_job = [&](size_t j) -> Result<GeneralizedRelation> {
      if (plans[j].provably_empty) {
        return GeneralizedRelation(
            static_cast<int>(rules[jobs[j].rule].head_args.size()));
      }
      if (guard != nullptr && !guard->Checkpoint(GuardSite::kDatalogRule)) {
        return guard->status();
      }
      return eval->FireRule(jobs[j].rule, old_snapshot, plans[j].inputs);
    };
    std::vector<Result<GeneralizedRelation>> fired =
        RunJobs(jobs.size(), old_snapshot, plans, eval_job);

    std::map<std::string, std::vector<GeneralizedTuple>> dead;
    GuardTicker ticker(guard, GuardSite::kViewDeltaApply, 64);
    for (size_t j = 0; j < jobs.size(); ++j) {
      if (!fired[j].ok()) return fired[j].status();
      const std::string& head = rules[jobs[j].rule].head;
      MaterializedView::MetaMap& meta = view->meta_[head];
      const uint64_t bit = RuleBit(jobs[j].rule);
      for (const GeneralizedTuple& tuple : fired[j].value().tuples()) {
        if (!ticker.Tick()) return guard->status();
        auto mit = meta.find(tuple);
        if (mit == meta.end()) continue;  // emission not stored verbatim
        mit->second.support &= ~bit;
        // Recursive-rule bits are not trustworthy here: they can be backed
        // by a derivation cycle the deleted tuple was part of, so stopping
        // the cascade on them under-deletes. Only a surviving base-only bit
        // (an acyclic derivation from EDB tuples the exactness invariant
        // vouches for) keeps the tuple; everything else is over-deleted and
        // left to the re-derive pass.
        if ((mit->second.support & view->base_only_rules_) == 0) {
          dead[head].push_back(mit->first);
          meta.erase(mit);
        }
      }
    }

    uint64_t dead_tuples = 0;
    std::map<std::string, GeneralizedRelation> next_wave;
    for (auto& [head, tuples] : dead) {
      dead_tuples += tuples.size();
      GeneralizedRelation work = *view->idb_.FindRelation(head);
      for (const GeneralizedTuple& tuple : tuples) {
        bool present = work.EraseCanonicalTuple(tuple);
        DODB_CHECK(present);
      }
      next_wave.emplace(head, RelationFromTuples(work.arity(), tuples));
      view->idb_.SetRelation(head, std::move(work));
      std::vector<GeneralizedTuple>& sink = overdeleted[head];
      sink.insert(sink.end(), tuples.begin(), tuples.end());
    }
    EvalCounters::AddViewDeltaTuples(dead_tuples);
    wave = std::move(next_wave);
  }

  if (overdeleted.empty()) return Status::Ok();

  // Re-derive: for each affected head, fire its rules over the *reduced*
  // state, semi-joined with the over-deleted region — each firing conjoins
  // the rule body with the head atom bound to that head's over-deleted
  // tuples, so only alternative derivations of the removed regions are
  // enumerated (DRed's delta-restricted re-derivation). The head atom plays
  // the delta role for the semi-join plan. Survivors re-enter the insert
  // pipeline, which completes recursion in depth order.
  Database reduced = new_base;
  for (const std::string& pred : view->idb_.RelationNames()) {
    reduced.SetRelation(pred, *view->idb_.FindRelation(pred));
  }
  std::map<std::string, GeneralizedRelation> over;
  for (const auto& [head, tuples] : overdeleted) {
    over.emplace(head, RelationFromTuples(
                           view->idb_.FindRelation(head)->arity(), tuples));
  }
  std::vector<size_t> rederive_rules;
  for (size_t i = 0; i < rules.size(); ++i) {
    if (over.count(rules[i].head) != 0) rederive_rules.push_back(i);
  }
  std::vector<FirePlan> plans(rederive_rules.size());
  for (size_t j = 0; j < rederive_rules.size(); ++j) {
    const DatalogRule& rule = rules[rederive_rules[j]];
    PlanSemiJoinRestrictions(rule, rule.body.size(), over.at(rule.head),
                             reduced, &plans[j]);
  }
  auto eval_job = [&](size_t j) -> Result<GeneralizedRelation> {
    if (plans[j].provably_empty) {
      return GeneralizedRelation(
          static_cast<int>(rules[rederive_rules[j]].head_args.size()));
    }
    if (guard != nullptr && !guard->Checkpoint(GuardSite::kViewRederive)) {
      return guard->status();
    }
    return eval->FireRule(rederive_rules[j], reduced, plans[j].inputs);
  };
  std::vector<Result<GeneralizedRelation>> fired =
      RunJobs(rederive_rules.size(), reduced, plans, eval_job);

  std::map<std::string, GeneralizedRelation> work;
  GuardTicker ticker(guard, GuardSite::kViewRederive, 64);
  std::vector<GeneralizedTuple> erased;
  uint64_t rederived = 0;
  for (size_t j = 0; j < fired.size(); ++j) {
    if (!fired[j].ok()) return fired[j].status();
    const std::string& head = rules[rederive_rules[j]].head;
    auto wit = work.find(head);
    if (wit == work.end()) {
      wit = work.emplace(head, *view->idb_.FindRelation(head)).first;
    }
    MaterializedView::MetaMap& meta = view->meta_[head];
    const uint64_t bit = RuleBit(rederive_rules[j]);
    for (const GeneralizedTuple& tuple : fired[j].value().tuples()) {
      if (!ticker.Tick()) return guard->status();
      erased.clear();
      if (wit->second.AddCanonicalTupleCaptured(tuple, &erased)) {
        ++rederived;
        meta[tuple] = MaterializedView::TupleMeta{bit, view->max_depth_};
        if (!erased.empty()) view->exact_support_ = false;
        for (const GeneralizedTuple& dead : erased) meta.erase(dead);
        auto dit = rederived_out->find(head);
        if (dit == rederived_out->end()) {
          dit = rederived_out
                    ->emplace(head, GeneralizedRelation(wit->second.arity()))
                    .first;
        }
        dit->second.AddCanonicalTuple(tuple);
      } else {
        auto mit = meta.find(tuple);
        if (mit != meta.end()) mit->second.support |= bit;
      }
    }
  }
  for (auto& [head, rel] : work) {
    view->idb_.SetRelation(head, std::move(rel));
  }
  EvalCounters::AddViewRederivations(rederived);
  return Status::Ok();
}

}  // namespace dodb
