#include "complex/ccalc_evaluator.h"

#include <algorithm>
#include <optional>
#include <set>

#include "algebra/relational_ops.h"
#include "constraints/dense_qe.h"
#include "core/check.h"
#include "core/fault_injection.h"
#include "core/query_guard.h"
#include "core/str_util.h"

namespace dodb {

namespace {
int IndexOfVar(const std::vector<std::string>& vars, const std::string& var) {
  auto it = std::find(vars.begin(), vars.end(), var);
  if (it == vars.end()) return -1;
  return static_cast<int>(it - vars.begin());
}
}  // namespace

CCalcEvaluator::CCalcEvaluator(const Database* db, CCalcOptions options)
    : db_(db), options_(options) {
  DODB_CHECK(db != nullptr);
  scale_ = db->AllConstants();
}

uint64_t CCalcEvaluator::CandidateCount(int arity) const {
  uint64_t cells =
      Cell::CountCells(arity, static_cast<int>(scale_.size()));
  if (cells >= 64) return UINT64_MAX;
  return uint64_t{1} << cells;
}

Result<const std::vector<Cell>*> CCalcEvaluator::CellsForArity(int arity) {
  auto it = cells_by_arity_.find(arity);
  if (it != cells_by_arity_.end()) return &it->second;
  uint64_t count = Cell::CountCells(arity, static_cast<int>(scale_.size()));
  if (count > options_.max_cells) {
    return Status::ResourceExhausted(
        StrCat("active domain for arity ", arity, " has ", count,
               " cells, over the limit of ", options_.max_cells));
  }
  std::vector<Cell> cells;
  Cell::EnumerateCells(arity, static_cast<int>(scale_.size()),
                       [&cells](const Cell& cell) {
                         cells.push_back(cell);
                         return true;
                       });
  stats_.max_cell_count = std::max(stats_.max_cell_count,
                                   static_cast<uint64_t>(cells.size()));
  auto [inserted, ok] = cells_by_arity_.emplace(arity, std::move(cells));
  return &inserted->second;
}

GeneralizedRelation CCalcEvaluator::RelationForMask(int arity,
                                                    uint64_t mask) {
  const std::vector<Cell>& cells = cells_by_arity_.at(arity);
  GeneralizedRelation out(arity);
  for (size_t i = 0; i < cells.size(); ++i) {
    if (mask & (uint64_t{1} << i)) {
      out.AddTuple(cells[i].ToTuple(scale_));
    }
  }
  return out;
}

Result<GeneralizedRelation> CCalcEvaluator::Evaluate(
    const CCalcQuery& query) {
  if (query.body == nullptr) {
    return Status::InvalidArgument("query has no body");
  }
  // One guard for the whole evaluation, hyper-exponential candidate
  // enumeration included; the algebra operators called throughout observe
  // it through the thread-local scope.
  ResolvedGuard guard(options_.eval_options.guard, options_.eval_options.limits,
                      options_.eval_options.fault_spec);
  QueryGuardScope guard_scope(guard.get());
  DODB_RETURN_IF_ERROR(guard.status());
  // Re-type "X in F" member atoms into set membership.
  CCalcFormulaPtr body = query.body->Clone();
  std::set<std::string> scope;
  ResolveSetMembers(body.get(), &scope);

  // Extend the active scale with the query's own constants.
  std::set<Rational> constants(scale_.begin(), scale_.end());
  body->CollectConstants(&constants);
  scale_.assign(constants.begin(), constants.end());
  cells_by_arity_.clear();

  std::set<std::string> free_sets;
  body->CollectFreeSetVars(&free_sets);
  if (!free_sets.empty()) {
    return Status::InvalidArgument(
        StrCat("free set variable '", *free_sets.begin(),
               "' in query body"));
  }
  if (body->MaxSetHeight() > 2) {
    return Status::Unsupported(
        "set-height > 2 is not supported by this evaluator");
  }
  for (const std::string& var : body->FreePointVars()) {
    if (IndexOfVar(query.head, var) < 0) {
      return Status::InvalidArgument(
          StrCat("free variable '", var, "' not listed in the query head"));
    }
  }

  Result<Binding> binding = Eval(*body, {});
  if (!binding.ok()) return binding.status();
  GeneralizedRelation out = AlignTo(binding.value(), query.head).rel;
  // Trips inside algebra operators are absorbed (truncated relations);
  // surface them here so no partial answer escapes a tripped guard.
  if (guard.get() != nullptr && guard.get()->tripped()) {
    return guard.get()->status();
  }
  return out;
}

CCalcEvaluator::Binding CCalcEvaluator::AlignTo(
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

Result<CCalcEvaluator::Binding> CCalcEvaluator::CombineOr(Binding a,
                                                          Binding b) {
  std::vector<std::string> joint = a.vars;
  for (const std::string& var : b.vars) {
    if (IndexOfVar(joint, var) < 0) joint.push_back(var);
  }
  Binding wa = AlignTo(a, joint);
  Binding wb = AlignTo(b, joint);
  return Binding(std::move(joint), algebra::Union(wa.rel, wb.rel));
}

Result<CCalcEvaluator::Binding> CCalcEvaluator::CombineAnd(Binding a,
                                                           Binding b) {
  std::vector<std::string> joint = a.vars;
  for (const std::string& var : b.vars) {
    if (IndexOfVar(joint, var) < 0) joint.push_back(var);
  }
  Binding wa = AlignTo(a, joint);
  Binding wb = AlignTo(b, joint);
  return Binding(std::move(joint), algebra::Intersect(wa.rel, wb.rel));
}

Result<CCalcEvaluator::Binding> CCalcEvaluator::EliminatePointVars(
    Binding binding, const std::vector<std::string>& vars) {
  for (const std::string& var : vars) {
    int index = IndexOfVar(binding.vars, var);
    if (index < 0) continue;
    std::vector<int> keep;
    keep.reserve(binding.vars.size() - 1);
    for (int i = 0; i < static_cast<int>(binding.vars.size()); ++i) {
      if (i != index) keep.push_back(i);
    }
    binding.rel = ProjectColumns(binding.rel, keep);
    binding.vars.erase(binding.vars.begin() + index);
  }
  return binding;
}

Result<CCalcEvaluator::Binding> CCalcEvaluator::EvalRelationAtom(
    const std::string& name, const std::vector<FoExpr>& args,
    const GeneralizedRelation& stored) {
  int k = stored.arity();
  if (static_cast<int>(args.size()) != k) {
    return Status::InvalidArgument(
        StrCat("'", name, "' has arity ", k, " but is used with arity ",
               args.size()));
  }
  for (const FoExpr& arg : args) {
    if (!arg.IsSimpleVar() && !arg.IsConstant()) {
      return Status::Unsupported(
          StrCat("linear term '", arg.ToString(), "' in C-CALC atom"));
    }
  }
  Binding binding;
  binding.rel = ReadRelationAtom(stored, args, &binding.vars);
  return binding;
}

Result<CCalcEvaluator::Binding> CCalcEvaluator::EvalMember(
    const CCalcFormula& formula, const SetEnv& env) {
  auto target = env.find(formula.set_name);
  if (target == env.end()) {
    return Status::NotFound(
        StrCat("unbound set variable '", formula.set_name, "'"));
  }
  // "X in F": resolved by ResolveSetMembers into kSetMember.
  if (formula.kind == CCalcKind::kSetMember) {
    auto inner_it = env.find(formula.inner_set);
    if (inner_it == env.end()) {
      return Status::NotFound(
          StrCat("unbound set variable '", formula.inner_set, "'"));
    }
    const SetValue& inner = inner_it->second;
    const SetValue& outer = target->second;
    if (outer.height != 2 || inner.height != 1) {
      return Status::InvalidArgument(
          StrCat("'", formula.inner_set, " in ", formula.set_name,
                 "' requires a level-1 variable inside a level-2 variable"));
    }
    if (outer.arity != inner.arity) {
      return Status::InvalidArgument(
          StrCat("set membership arity mismatch: ", inner.arity, " vs ",
                 outer.arity));
    }
    bool holds = std::binary_search(outer.family.begin(), outer.family.end(),
                                    inner.mask);
    return Binding({}, holds ? GeneralizedRelation::True(0)
                             : GeneralizedRelation::False(0));
  }
  // Point-tuple membership.
  const SetValue& value = target->second;
  if (value.height != 1) {
    return Status::InvalidArgument(
        StrCat("point tuple cannot be a member of the level-2 variable '",
               formula.set_name, "'"));
  }
  GeneralizedRelation rel = RelationForMask(value.arity, value.mask);
  return EvalRelationAtom(formula.set_name, formula.args, rel);
}

Result<CCalcEvaluator::Binding> CCalcEvaluator::EvalFixpoint(
    const CCalcFormula& formula, const SetEnv& env) {
  std::set<std::string> body_free = formula.child->FreePointVars();
  for (const std::string& v : formula.comp_vars) body_free.erase(v);
  if (!body_free.empty()) {
    return Status::InvalidArgument(
        StrCat("fixpoint body has free variable '", *body_free.begin(),
               "' outside its head"));
  }
  int arity = static_cast<int>(formula.comp_vars.size());

  // Inflationary iteration; nested/shadowed uses of the same predicate name
  // are restored on exit.
  std::optional<GeneralizedRelation> saved;
  auto previous = fix_overlay_.find(formula.relation);
  if (previous != fix_overlay_.end()) saved = previous->second;

  GeneralizedRelation current(arity);
  Status failure = Status::Ok();
  for (uint64_t round = 0;; ++round) {
    // One guard checkpoint per inflationary round, mirroring the Datalog
    // evaluator's datalog-round site.
    if (QueryGuard* guard = CurrentQueryGuard();
        guard != nullptr && !guard->Checkpoint(GuardSite::kCCalcFixpoint)) {
      failure = guard->status();
      break;
    }
    if (options_.max_fix_iterations != 0 &&
        round >= options_.max_fix_iterations) {
      failure = Status::ResourceExhausted(
          StrCat("fixpoint '", formula.relation, "' did not stabilize in ",
                 options_.max_fix_iterations, " rounds"));
      break;
    }
    fix_overlay_.insert_or_assign(formula.relation, current);
    Result<Binding> body = Eval(*formula.child, env);
    if (!body.ok()) {
      failure = body.status();
      break;
    }
    Binding aligned = AlignTo(body.value(), formula.comp_vars);
    GeneralizedRelation merged = algebra::Union(current, aligned.rel);
    if (merged.StructurallyEquals(current)) break;
    current = std::move(merged);
  }
  if (saved.has_value()) {
    fix_overlay_.insert_or_assign(formula.relation, *saved);
  } else {
    fix_overlay_.erase(formula.relation);
  }
  if (!failure.ok()) return failure;
  return EvalRelationAtom(formula.relation, formula.args, current);
}

Result<CCalcEvaluator::Binding> CCalcEvaluator::EvalSetQuantifier(
    const CCalcFormula& formula, const SetEnv& env) {
  bool exists = formula.kind == CCalcKind::kSetExists;
  Result<const std::vector<Cell>*> cells = CellsForArity(formula.set_arity);
  if (!cells.ok()) return cells.status();
  size_t n = cells.value()->size();
  // Candidate loops below re-check the guard between bodies: a trip that an
  // algebra operator absorbed mid-body must stop the enumeration instead of
  // grinding through the remaining (possibly hyper-exponential) candidates.
  QueryGuard* guard = CurrentQueryGuard();

  // Level-1 candidate space: all unions of cells.
  if (formula.set_height == 1) {
    if (n >= 63 || (uint64_t{1} << n) > options_.max_candidates) {
      return Status::ResourceExhausted(
          StrCat("level-1 candidate space 2^", n, " over the limit"));
    }
    uint64_t total = uint64_t{1} << n;
    stats_.max_candidate_count =
        std::max(stats_.max_candidate_count, total);
    Binding acc;
    bool first = true;
    for (uint64_t mask = 0; mask < total; ++mask) {
      SetEnv extended = env;
      SetValue value;
      value.arity = formula.set_arity;
      value.height = 1;
      value.mask = mask;
      extended[formula.bound_set] = value;
      ++stats_.set_assignments;
      Result<Binding> body = Eval(*formula.child, extended);
      if (!body.ok()) return body;
      if (guard != nullptr && guard->tripped()) return guard->status();
      if (first) {
        acc = std::move(body).value();
        first = false;
      } else {
        Result<Binding> combined =
            exists ? CombineOr(std::move(acc), std::move(body).value())
                   : CombineAnd(std::move(acc), std::move(body).value());
        if (!combined.ok()) return combined;
        acc = std::move(combined).value();
      }
      // Boolean early exit.
      if (acc.vars.empty()) {
        if (exists && !acc.rel.IsEmpty()) break;
        if (!exists && acc.rel.IsEmpty()) break;
      }
    }
    return acc;
  }

  // Level-2 candidate space: all families of level-1 candidates.
  DODB_CHECK(formula.set_height == 2);
  if (n >= 20 || (uint64_t{1} << n) >= 63) {
    return Status::ResourceExhausted(
        StrCat("level-2 candidate space 2^(2^", n, ") over the limit"));
  }
  uint64_t level1 = uint64_t{1} << n;
  if (level1 >= 63 ||
      (uint64_t{1} << level1) > options_.max_candidates) {
    return Status::ResourceExhausted(
        StrCat("level-2 candidate space 2^", level1, " over the limit"));
  }
  uint64_t total = uint64_t{1} << level1;
  stats_.max_candidate_count = std::max(stats_.max_candidate_count, total);
  Binding acc;
  bool first = true;
  for (uint64_t family_bits = 0; family_bits < total; ++family_bits) {
    SetValue value;
    value.arity = formula.set_arity;
    value.height = 2;
    for (uint64_t m = 0; m < level1; ++m) {
      if (family_bits & (uint64_t{1} << m)) value.family.push_back(m);
    }
    SetEnv extended = env;
    extended[formula.bound_set] = std::move(value);
    ++stats_.set_assignments;
    Result<Binding> body = Eval(*formula.child, extended);
    if (!body.ok()) return body;
    if (guard != nullptr && guard->tripped()) return guard->status();
    if (first) {
      acc = std::move(body).value();
      first = false;
    } else {
      Result<Binding> combined =
          exists ? CombineOr(std::move(acc), std::move(body).value())
                 : CombineAnd(std::move(acc), std::move(body).value());
      if (!combined.ok()) return combined;
      acc = std::move(combined).value();
    }
    if (acc.vars.empty()) {
      if (exists && !acc.rel.IsEmpty()) break;
      if (!exists && acc.rel.IsEmpty()) break;
    }
  }
  return acc;
}

Result<CCalcEvaluator::Binding> CCalcEvaluator::Eval(
    const CCalcFormula& formula, const SetEnv& env) {
  switch (formula.kind) {
    case CCalcKind::kBool:
      return Binding({}, formula.bool_value ? GeneralizedRelation::True(0)
                                            : GeneralizedRelation::False(0));
    case CCalcKind::kCompare: {
      const FoExpr& lhs = formula.lhs;
      const FoExpr& rhs = formula.rhs;
      if (!(lhs.IsSimpleVar() || lhs.IsConstant()) ||
          !(rhs.IsSimpleVar() || rhs.IsConstant())) {
        return Status::Unsupported("linear term in C-CALC comparison");
      }
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
      auto lower = [&vars](const FoExpr& e) {
        if (e.IsConstant()) return Term::Const(e.constant);
        return Term::Var(IndexOfVar(vars, e.VarName()));
      };
      GeneralizedTuple tuple(static_cast<int>(vars.size()));
      tuple.AddAtom(DenseAtom(lower(lhs), formula.op, lower(rhs)));
      GeneralizedRelation rel(static_cast<int>(vars.size()));
      rel.AddTuple(std::move(tuple));
      return Binding(std::move(vars), std::move(rel));
    }
    case CCalcKind::kRelation: {
      // Fixpoint predicates being computed shadow database relations.
      auto fix = fix_overlay_.find(formula.relation);
      const GeneralizedRelation* stored =
          fix != fix_overlay_.end() ? &fix->second
                                    : db_->FindRelation(formula.relation);
      if (stored == nullptr) {
        return Status::NotFound(
            StrCat("relation '", formula.relation, "' not in the database"));
      }
      return EvalRelationAtom(formula.relation, formula.args, *stored);
    }
    case CCalcKind::kFixpointMember:
      return EvalFixpoint(formula, env);
    case CCalcKind::kMember:
    case CCalcKind::kSetMember:
      return EvalMember(formula, env);
    case CCalcKind::kSetCompare: {
      auto a = env.find(formula.inner_set);
      auto b = env.find(formula.inner_set2);
      if (a == env.end() || b == env.end()) {
        return Status::NotFound("unbound set variable in set comparison");
      }
      if (a->second.height != 1 || b->second.height != 1) {
        return Status::Unsupported(
            "set comparison is only supported between level-1 variables");
      }
      if (a->second.arity != b->second.arity) {
        return Status::InvalidArgument(
            "set comparison between different arities");
      }
      bool equal = a->second.mask == b->second.mask;
      bool holds = formula.op == RelOp::kEq ? equal : !equal;
      return Binding({}, holds ? GeneralizedRelation::True(0)
                               : GeneralizedRelation::False(0));
    }
    case CCalcKind::kComprehension: {
      // (t...) in { (x...) | phi }: evaluate phi over the head variables
      // (under the current set environment), then treat the result as a
      // relation atom applied to the member terms.
      std::set<std::string> body_free = formula.child->FreePointVars();
      for (const std::string& v : formula.comp_vars) body_free.erase(v);
      if (!body_free.empty()) {
        return Status::InvalidArgument(
            StrCat("set term body has free variable '", *body_free.begin(),
                   "' outside its head"));
      }
      Result<Binding> body = Eval(*formula.child, env);
      if (!body.ok()) return body;
      Binding aligned = AlignTo(body.value(), formula.comp_vars);
      return EvalRelationAtom("<set term>", formula.args, aligned.rel);
    }
    case CCalcKind::kNot: {
      Result<Binding> child = Eval(*formula.child, env);
      if (!child.ok()) return child;
      return Binding(std::move(child).value().vars,
                     algebra::Complement(child.value().rel));
    }
    case CCalcKind::kAnd:
    case CCalcKind::kOr: {
      Result<Binding> left = Eval(*formula.child, env);
      if (!left.ok()) return left;
      Result<Binding> right = Eval(*formula.child2, env);
      if (!right.ok()) return right;
      if (formula.kind == CCalcKind::kAnd) {
        return CombineAnd(std::move(left).value(), std::move(right).value());
      }
      return CombineOr(std::move(left).value(), std::move(right).value());
    }
    case CCalcKind::kExists: {
      Result<Binding> child = Eval(*formula.child, env);
      if (!child.ok()) return child;
      return EliminatePointVars(std::move(child).value(),
                                formula.bound_vars);
    }
    case CCalcKind::kForall: {
      Result<Binding> child = Eval(*formula.child, env);
      if (!child.ok()) return child;
      Binding binding = std::move(child).value();
      binding.rel = algebra::Complement(binding.rel);
      Result<Binding> eliminated =
          EliminatePointVars(std::move(binding), formula.bound_vars);
      if (!eliminated.ok()) return eliminated;
      return Binding(std::move(eliminated).value().vars,
                     algebra::Complement(eliminated.value().rel));
    }
    case CCalcKind::kSetExists:
    case CCalcKind::kSetForall:
      return EvalSetQuantifier(formula, env);
  }
  return Status::Internal("unknown C-CALC formula kind");
}

}  // namespace dodb
