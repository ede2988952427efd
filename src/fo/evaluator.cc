#include "fo/evaluator.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "algebra/relational_ops.h"
#include "constraints/closure_cache.h"
#include "constraints/dense_qe.h"
#include "core/check.h"
#include "core/fault_injection.h"
#include "core/str_util.h"
#include "core/thread_pool.h"
#include "fo/analyzer.h"
#include "fo/rewriter.h"

namespace dodb {

namespace {

int IndexOfVar(const std::vector<std::string>& vars, const std::string& var) {
  auto it = std::find(vars.begin(), vars.end(), var);
  if (it == vars.end()) return -1;
  return static_cast<int>(it - vars.begin());
}

// Term of the constraint layer for a simple FoExpr relative to `vars`.
Term LowerSimpleExpr(const FoExpr& expr, const std::vector<std::string>& vars) {
  if (expr.IsConstant()) return Term::Const(expr.constant);
  DODB_CHECK(expr.IsSimpleVar());
  int index = IndexOfVar(vars, expr.VarName());
  DODB_CHECK(index >= 0);
  return Term::Var(index);
}

// Installs the full set of evaluation scopes an options struct implies;
// groups them so Evaluate and EvaluateFormula stay in sync. The local memo
// serves when the caller didn't supply a shared one, and the resolved guard
// (ResolvedGuard's precedence: explicit > inherited from this thread >
// locally owned when limits ask for one) is installed for every operator
// underneath to observe.
class EvalScopes {
 public:
  explicit EvalScopes(const EvalOptions& options)
      : guard_(options.guard, options.limits, options.fault_spec),
        guard_scope_(guard_.get()),
        threads_(options.num_threads),
        memo_scope_(options.closure_cache != nullptr ? options.closure_cache
                                                     : &local_memo_) {}

  QueryGuard* guard() const { return guard_.get(); }
  const Status& guard_status() const { return guard_.status(); }

 private:
  ClosureCache local_memo_;
  ResolvedGuard guard_;
  QueryGuardScope guard_scope_;
  EvalThreadsScope threads_;
  ClosureCacheScope memo_scope_;
};

// Appends the leaves of a (possibly nested) conjunction, left to right.
void FlattenAnd(const Formula& formula, std::vector<const Formula*>* out) {
  if (formula.kind == FormulaKind::kAnd) {
    FlattenAnd(*formula.child, out);
    FlattenAnd(*formula.child2, out);
    return;
  }
  out->push_back(&formula);
}

}  // namespace

GeneralizedRelation ReadRelationAtom(const GeneralizedRelation& stored,
                                     const std::vector<FoExpr>& args,
                                     std::vector<std::string>* vars) {
  const int k = stored.arity();
  DODB_CHECK(static_cast<int>(args.size()) == k);
  vars->clear();
  for (const FoExpr& arg : args) {
    if (arg.IsSimpleVar() && IndexOfVar(*vars, arg.VarName()) < 0) {
      vars->push_back(arg.VarName());
    }
  }
  // Distinct variables first; each constant argument gets an extra tail
  // column, pinned by a selection and then projected away (a cheap
  // substitution). A stored tuple whose box misses a constant cannot survive
  // its selection, so the probe skips it before any copy.
  const int num_vars = static_cast<int>(vars->size());
  int ext_arity = num_vars;
  std::vector<int> mapping(k);
  std::vector<DenseAtom> pins;
  TupleSignature probe;
  probe.columns.resize(k);  // unbounded
  for (int i = 0; i < k; ++i) {
    const FoExpr& arg = args[i];
    if (arg.IsSimpleVar()) {
      mapping[i] = IndexOfVar(*vars, arg.VarName());
      continue;
    }
    DODB_CHECK(arg.IsConstant());
    pins.emplace_back(Term::Var(ext_arity), RelOp::kEq,
                      Term::Const(arg.constant));
    mapping[i] = ext_arity++;
    ColumnBound& point = probe.columns[i];
    point.has_lower = point.has_upper = true;
    point.lower = point.upper = arg.constant;
  }
  GeneralizedRelation rel = algebra::Rename(
      pins.empty() ? stored : stored.OverlapSubset(probe), mapping,
      ext_arity);
  for (const DenseAtom& pin : pins) rel = algebra::Select(rel, pin);
  std::vector<int> keep(num_vars);
  std::iota(keep.begin(), keep.end(), 0);
  return ProjectColumns(rel, keep);
}

FoEvaluator::FoEvaluator(const Database* db, EvalOptions options)
    : db_(db), options_(options) {
  DODB_CHECK(db != nullptr);
}

Status FoEvaluator::CheckSize(const GeneralizedRelation& rel) {
  stats_.max_intermediate_tuples =
      std::max(stats_.max_intermediate_tuples,
               static_cast<uint64_t>(rel.tuple_count()));
  // One guard checkpoint per completed operator — the coarse backstop above
  // the strided in-operator checkpoints, and the point where a trip that an
  // algebra operator absorbed (returning a truncated relation) surfaces as
  // the trip Status instead of a wrong result.
  QueryGuard* guard = CurrentQueryGuard();
  if (guard != nullptr && !guard->Checkpoint(GuardSite::kFoStep)) {
    return guard->status();
  }
  if (options_.max_tuples != 0 && rel.tuple_count() > options_.max_tuples) {
    return Status::ResourceExhausted(
        StrCat("intermediate relation has ", rel.tuple_count(),
               " tuples, over the limit of ", options_.max_tuples));
  }
  return Status::Ok();
}

Result<GeneralizedRelation> FoEvaluator::Evaluate(const Query& query) {
  EvalScopes scopes(options_);
  GuardStatsScope guard_stats(scopes.guard(), &stats_);
  CounterDeltaScope counters(&stats_.counters);
  DODB_RETURN_IF_ERROR(scopes.guard_status());
  if (scopes.guard() != nullptr && scopes.guard()->tripped()) {
    return scopes.guard()->status();
  }
  Result<QueryAnalysis> analysis = Analyze(query, db_);
  if (!analysis.ok()) return analysis.status();
  if (!analysis.value().is_dense_fragment) {
    return Status::Unsupported(
        "query uses linear (FO+) terms; use LinearFoEvaluator");
  }
  if (options_.optimize) {
    FormulaPtr optimized = rewriter::Optimize(*query.body);
    return EvaluateFormula(*optimized, query.head);
  }
  return EvaluateFormula(*query.body, query.head);
}

Result<GeneralizedRelation> FoEvaluator::EvaluateFormula(
    const Formula& formula, const std::vector<std::string>& columns,
    const AtomInputs& inputs) {
  inputs_ = inputs;
  EvalScopes scopes(options_);
  GuardStatsScope guard_stats(scopes.guard(), &stats_);
  CounterDeltaScope counters(&stats_.counters);
  DODB_RETURN_IF_ERROR(scopes.guard_status());
  Result<Binding> binding = Eval(formula);
  if (!binding.ok()) return binding.status();
  for (const std::string& var : binding.value().vars) {
    if (IndexOfVar(columns, var) < 0) {
      return Status::InvalidArgument(
          StrCat("free variable '", var, "' not among the output columns"));
    }
  }
  GeneralizedRelation out = AlignTo(binding.value(), columns).rel;
  // A trip inside the final alignment's Rename is absorbed by the algebra
  // layer (it returns a truncated relation); surface it here so no partial
  // result ever escapes a tripped guard.
  if (scopes.guard() != nullptr && scopes.guard()->tripped()) {
    return scopes.guard()->status();
  }
  return out;
}

FoEvaluator::Binding FoEvaluator::AlignTo(
    const Binding& binding, const std::vector<std::string>& target) {
  std::vector<int> mapping(binding.vars.size());
  for (size_t i = 0; i < binding.vars.size(); ++i) {
    int index = IndexOfVar(target, binding.vars[i]);
    DODB_CHECK_MSG(index >= 0, "AlignTo target misses a variable");
    mapping[i] = index;
  }
  return Binding(target, algebra::Rename(binding.rel, mapping,
                                         static_cast<int>(target.size())));
}

Result<FoEvaluator::Binding> FoEvaluator::Eval(const Formula& formula) {
  switch (formula.kind) {
    case FormulaKind::kBool: {
      GeneralizedRelation rel = formula.bool_value
                                    ? GeneralizedRelation::True(0)
                                    : GeneralizedRelation::False(0);
      return Binding({}, std::move(rel));
    }
    case FormulaKind::kCompare:
      return EvalCompare(formula);
    case FormulaKind::kRelation:
      return EvalRelation(formula);
    case FormulaKind::kNot: {
      Result<Binding> child = Eval(*formula.child);
      if (!child.ok()) return child;
      ++stats_.complements;
      GeneralizedRelation complement =
          algebra::Complement(child.value().rel);
      DODB_RETURN_IF_ERROR(CheckSize(complement));
      return Binding(std::move(child).value().vars, std::move(complement));
    }
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      if (formula.kind == FormulaKind::kAnd) {
        std::vector<const Formula*> conjuncts;
        FlattenAnd(formula, &conjuncts);
        if (conjuncts.size() >= 3) return EvalAndChain(conjuncts);
      }
      Result<Binding> left = Eval(*formula.child);
      if (!left.ok()) return left;
      Result<Binding> right = Eval(*formula.child2);
      if (!right.ok()) return right;
      std::vector<std::string> joint = left.value().vars;
      for (const std::string& var : right.value().vars) {
        if (IndexOfVar(joint, var) < 0) joint.push_back(var);
      }
      Binding a = AlignTo(left.value(), joint);
      Binding b = AlignTo(right.value(), joint);
      GeneralizedRelation combined(static_cast<int>(joint.size()));
      if (formula.kind == FormulaKind::kAnd) {
        ++stats_.intersections;
        combined = algebra::Intersect(a.rel, b.rel);
      } else {
        ++stats_.unions;
        combined = algebra::Union(a.rel, b.rel);
      }
      DODB_RETURN_IF_ERROR(CheckSize(combined));
      return Binding(std::move(joint), std::move(combined));
    }
    case FormulaKind::kExists: {
      Result<Binding> child = Eval(*formula.child);
      if (!child.ok()) return child;
      return EliminateVars(std::move(child).value(), formula.bound_vars);
    }
    case FormulaKind::kForall: {
      // forall x phi == not exists x not phi, evaluated directly on the
      // child's binding to avoid AST rewriting.
      Result<Binding> child = Eval(*formula.child);
      if (!child.ok()) return child;
      Binding binding = std::move(child).value();
      ++stats_.complements;
      binding.rel = algebra::Complement(binding.rel);
      DODB_RETURN_IF_ERROR(CheckSize(binding.rel));
      Result<Binding> eliminated =
          EliminateVars(std::move(binding), formula.bound_vars);
      if (!eliminated.ok()) return eliminated;
      ++stats_.complements;
      GeneralizedRelation complement =
          algebra::Complement(eliminated.value().rel);
      DODB_RETURN_IF_ERROR(CheckSize(complement));
      return Binding(std::move(eliminated).value().vars,
                     std::move(complement));
    }
  }
  return Status::Internal("unknown formula kind");
}

Result<FoEvaluator::Binding> FoEvaluator::EvalAndChain(
    const std::vector<const Formula*>& conjuncts) {
  // Evaluate every conjunct left to right (error order matches the binary
  // fold) and accumulate the joint columns in first-occurrence order — the
  // same column list the nested binary kAnd case would end with.
  std::vector<Binding> parts;
  parts.reserve(conjuncts.size());
  std::vector<std::string> joint;
  for (const Formula* conjunct : conjuncts) {
    Result<Binding> part = Eval(*conjunct);
    if (!part.ok()) return part;
    for (const std::string& var : part.value().vars) {
      if (IndexOfVar(joint, var) < 0) joint.push_back(var);
    }
    parts.push_back(std::move(part).value());
  }
  // Widen everything to the full joint width up front, then fold Intersect
  // in ascending-cardinality order. Intersection of canonical relations is
  // order-independent (each output tuple is the unique canonical form of
  // one conjunction of inputs, pruned to the maximal ones), so reordering
  // changes wall-clock only; a deviation from the syntactic order is
  // counted in planner_reorders.
  std::vector<GeneralizedRelation> aligned;
  aligned.reserve(parts.size());
  for (const Binding& part : parts) {
    aligned.push_back(AlignTo(part, joint).rel);
  }
  std::vector<size_t> order(aligned.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return aligned[x].tuple_count() < aligned[y].tuple_count();
  });
  if (!std::is_sorted(order.begin(), order.end())) {
    EvalCounters::AddPlannerReorders(1);
  }
  GeneralizedRelation combined = std::move(aligned[order[0]]);
  for (size_t k = 1; k < order.size(); ++k) {
    ++stats_.intersections;
    combined = algebra::Intersect(combined, aligned[order[k]]);
    DODB_RETURN_IF_ERROR(CheckSize(combined));
  }
  return Binding(std::move(joint), std::move(combined));
}

Result<FoEvaluator::Binding> FoEvaluator::EvalCompare(
    const Formula& formula) {
  const FoExpr& lhs = formula.lhs;
  const FoExpr& rhs = formula.rhs;
  if (lhs.IsConstant() && rhs.IsConstant()) {
    bool holds = OpHolds(lhs.constant.Compare(rhs.constant), formula.op);
    return Binding({}, holds ? GeneralizedRelation::True(0)
                             : GeneralizedRelation::False(0));
  }
  std::vector<std::string> vars;
  if (lhs.IsSimpleVar()) vars.push_back(lhs.VarName());
  if (rhs.IsSimpleVar() && IndexOfVar(vars, rhs.VarName()) < 0) {
    vars.push_back(rhs.VarName());
  }
  GeneralizedTuple tuple(static_cast<int>(vars.size()));
  tuple.AddAtom(DenseAtom(LowerSimpleExpr(lhs, vars), formula.op,
                          LowerSimpleExpr(rhs, vars)));
  GeneralizedRelation rel(static_cast<int>(vars.size()));
  rel.AddTuple(std::move(tuple));
  return Binding(std::move(vars), std::move(rel));
}

Result<FoEvaluator::Binding> FoEvaluator::EvalRelation(
    const Formula& formula) {
  const GeneralizedRelation* stored = nullptr;
  for (const auto& [atom, rel] : inputs_) {
    if (atom == &formula) stored = rel;
  }
  if (stored == nullptr) stored = db_->FindRelation(formula.relation);
  if (stored == nullptr ||
      stored->arity() != static_cast<int>(formula.args.size())) {
    return Status::InvalidArgument(
        StrCat("relation '", formula.relation,
               "' is missing or used with the wrong arity"));
  }
  Binding binding;
  binding.rel = ReadRelationAtom(*stored, formula.args, &binding.vars);
  DODB_RETURN_IF_ERROR(CheckSize(binding.rel));
  return binding;
}

Result<FoEvaluator::Binding> FoEvaluator::EliminateVars(
    Binding binding, const std::vector<std::string>& vars) {
  for (const std::string& var : vars) {
    int index = IndexOfVar(binding.vars, var);
    if (index < 0) continue;  // vacuous quantifier
    ++stats_.eliminations;
    std::vector<int> keep;
    keep.reserve(binding.vars.size() - 1);
    for (int i = 0; i < static_cast<int>(binding.vars.size()); ++i) {
      if (i != index) keep.push_back(i);
    }
    binding.rel = ProjectColumns(binding.rel, keep);
    binding.vars.erase(binding.vars.begin() + index);
    DODB_RETURN_IF_ERROR(CheckSize(binding.rel));
  }
  return binding;
}

}  // namespace dodb
