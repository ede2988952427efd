#include "constraints/order_graph.h"

#include <algorithm>
#include <queue>

#include "constraints/eval_counters.h"
#include "core/check.h"
#include "core/query_guard.h"

namespace dodb {

PaRel RelOpToPa(RelOp op) {
  switch (op) {
    case RelOp::kLt:
      return kPaLt;
    case RelOp::kLe:
      return kPaLe;
    case RelOp::kEq:
      return kPaEq;
    case RelOp::kNeq:
      return kPaNeq;
    case RelOp::kGe:
      return kPaGe;
    case RelOp::kGt:
      return kPaGt;
  }
  DODB_CHECK(false);
  return kPaAll;
}

RelOp PaToRelOp(PaRel rel) {
  switch (rel) {
    case kPaLt:
      return RelOp::kLt;
    case kPaLe:
      return RelOp::kLe;
    case kPaEq:
      return RelOp::kEq;
    case kPaNeq:
      return RelOp::kNeq;
    case kPaGe:
      return RelOp::kGe;
    case kPaGt:
      return RelOp::kGt;
    default:
      DODB_CHECK_MSG(false, "PaToRelOp on trivial relation");
      return RelOp::kEq;
  }
}

PaRel PaCompose(PaRel r1, PaRel r2) {
  // Composition of basic relations over a dense total order.
  static constexpr PaRel kBasicCompose[3][3] = {
      // r2:   <        =      >
      {kPaLt, kPaLt, kPaAll},   // r1 = <
      {kPaLt, kPaEq, kPaGt},    // r1 = =
      {kPaAll, kPaGt, kPaGt},   // r1 = >
  };
  PaRel out = kPaEmpty;
  for (int i = 0; i < 3; ++i) {
    if (!(r1 & (1 << i))) continue;
    for (int j = 0; j < 3; ++j) {
      if (!(r2 & (1 << j))) continue;
      out |= kBasicCompose[i][j];
    }
  }
  return out;
}

PaRel PaInverse(PaRel rel) {
  PaRel out = rel & kPaEq;
  if (rel & kPaLt) out |= kPaGt;
  if (rel & kPaGt) out |= kPaLt;
  return out;
}

OrderGraph::OrderGraph(int num_vars) : num_vars_(num_vars) {
  DODB_CHECK(num_vars >= 0);
  node_terms_.reserve(num_vars);
  for (int i = 0; i < num_vars; ++i) node_terms_.push_back(Term::Var(i));
}

int OrderGraph::NodeForConstant(const Rational& value) {
  auto it = constant_nodes_.find(value);
  if (it != constant_nodes_.end()) return it->second;
  int node = static_cast<int>(node_terms_.size());
  node_terms_.push_back(Term::Const(value));
  constant_nodes_.emplace(value, node);
  return node;
}

void OrderGraph::AddAtom(const DenseAtom& atom) {
  closed_ = false;
  const Term& lhs = atom.lhs();
  const Term& rhs = atom.rhs();
  if (lhs.is_const() && rhs.is_const()) {
    if (!OpHolds(lhs.constant().Compare(rhs.constant()), atom.op())) {
      forced_unsat_ = true;
    }
    return;
  }
  if (lhs.is_var() && rhs.is_var() && lhs.var() == rhs.var()) {
    // x op x: holds iff op admits equality.
    if (!OpHolds(0, atom.op())) forced_unsat_ = true;
    return;
  }
  int a = lhs.is_var() ? lhs.var() : NodeForConstant(lhs.constant());
  int b = rhs.is_var() ? rhs.var() : NodeForConstant(rhs.constant());
  DODB_CHECK_MSG(!lhs.is_var() || lhs.var() < num_vars_,
                 "atom variable out of range");
  DODB_CHECK_MSG(!rhs.is_var() || rhs.var() < num_vars_,
                 "atom variable out of range");
  pending_.push_back({{a, b}, RelOpToPa(atom.op())});
}

void OrderGraph::Set(int a, int b, PaRel rel) {
  int n = num_nodes();
  rel_[a * n + b] = rel;
  rel_[b * n + a] = PaInverse(rel);
}

void OrderGraph::EnsureMatrix() {
  int n = num_nodes();
  rel_.assign(static_cast<size_t>(n) * n, kPaAll);
  for (int i = 0; i < n; ++i) rel_[i * n + i] = kPaEq;
  // Constant nodes carry their exact mutual order; record it as value ranks
  // (the map iterates in value order). Constant-constant relations are read
  // through RelAt, never from the matrix, so no O(C^2) seeding is needed.
  const_rank_.assign(n, 0);
  int rank = 0;
  for (const auto& [value, node] : constant_nodes_) const_rank_[node] = rank++;
}

PaRel OrderGraph::RelAt(int i, int j) const {
  if (i >= num_vars_ && j >= num_vars_) {
    const int d = const_rank_[i] - const_rank_[j];
    if (d < 0) return kPaLt;
    if (d > 0) return kPaGt;
    return kPaEq;
  }
  return rel_[i * static_cast<int>(node_terms_.size()) + j];
}

bool OrderGraph::Close() {
  if (closed_) return satisfiable_;
  closed_ = true;
  satisfiable_ = !forced_unsat_;
  if (!satisfiable_) return false;
  EnsureMatrix();
  int n = num_nodes();
  for (const auto& [edge, mask] : pending_) {
    PaRel cur = rel_[edge.first * n + edge.second] & mask;
    if (cur == kPaEmpty) {
      satisfiable_ = false;
      return false;
    }
    Set(edge.first, edge.second, cur);
  }
  // Path consistency (PC-1). Node counts per tuple are small, so the simple
  // fixpoint loop is preferable to a queue-based PC-2. The sweep is
  // restricted by two sound skips that keep the loop from drowning in
  // constant nodes (canonical tuples mention one node per distinct constant,
  // and those dominate n on realistic data):
  //   - PaCompose(kPaAll, r) == PaCompose(r, kPaAll) == kPaAll for every
  //     nonempty r, so compositions through an unconstrained edge never
  //     refine anything.
  //   - Constant-constant entries (answered by RelAt from value ranks) hold
  //     the exact basic relation realized by the two values, so the only
  //     possible "refinement" is to empty, and constant rows skip constant
  //     columns; at the fixpoint of the remaining triangles emptying cannot
  //     happen. Sketch: suppose composing i -> k -> j would empty the
  //     constant pair (i, j) with basic relation b(i,j). k must be a
  //     variable (constant-constant-constant triangles are consistent by
  //     construction: the ranks are realized by actual values). Emptiness
  //     means PaCompose(rel(i,k), rel(k,j)) excludes b(i,j); but the
  //     variable-involved pair (k, j) is enforced at the restricted
  //     fixpoint, i.e. rel(k,j) <= PaCompose(PaInverse(rel(i,k)), b(i,j)),
  //     which makes b(i,j) a member of the composition — contradiction.
  //     The restricted fixpoint is therefore a fixpoint of the full PC-1
  //     operator; path-consistent closure is unique, so the matrix and the
  //     satisfiability verdict are bit-identical to the full sweep's.
  // A guard trip abandons the sweep with closed_ reset, so no cached
  // verdict survives from a partially propagated matrix; the caller's
  // current computation is discarded (the evaluator returns the trip
  // Status) and a later re-Close restarts from the pending edges.
  GuardTicker ticker(CurrentQueryGuard(), GuardSite::kClosureSweep);
  bool changed = true;
  while (changed) {
    changed = false;
    for (int k = 0; k < n; ++k) {
      for (int i = 0; i < n; ++i) {
        if (i == k) continue;
        if (!ticker.Tick()) {
          closed_ = false;
          return false;
        }
        PaRel rik = RelAt(i, k);
        if (rik == kPaAll) continue;
        const int j_limit = (i < num_vars_) ? n : num_vars_;
        for (int j = 0; j < j_limit; ++j) {
          if (j == i || j == k) continue;
          PaRel rkj = RelAt(k, j);
          if (rkj == kPaAll) continue;
          PaRel composed = PaCompose(rik, rkj);
          PaRel cur = RelAt(i, j);
          PaRel refined = cur & composed;
          if (refined != cur) {
            if (refined == kPaEmpty) {
              satisfiable_ = false;
              return false;
            }
            Set(i, j, refined);
            changed = true;
          }
        }
      }
    }
  }
  return satisfiable_;
}

PaRel OrderGraph::RelBetween(int a, int b) {
  bool sat = Close();
  DODB_CHECK_MSG(sat, "RelBetween on unsatisfiable network");
  return RelAt(a, b);
}

PaRel OrderGraph::RelToValue(int var, const Rational& value) {
  bool sat = Close();
  DODB_CHECK_MSG(sat, "RelToValue on unsatisfiable network");
  // Only the scale constants adjacent to `value` matter: after closure the
  // relation of `var` to the constants is monotone along the scale (the
  // constant-constant edges force e.g. var <= c to propagate to every
  // larger constant), so the nearest neighbors dominate the intersection.
  auto it = constant_nodes_.lower_bound(value);
  if (it != constant_nodes_.end() && it->first == value) {
    return RelBetween(var, it->second);
  }
  PaRel out = kPaAll;
  if (it != constant_nodes_.end()) {
    // it->first is the smallest constant above value.
    out &= PaCompose(RelBetween(var, it->second), kPaGt);
  }
  if (it != constant_nodes_.begin()) {
    auto below = std::prev(it);
    out &= PaCompose(RelBetween(var, below->second), kPaLt);
  }
  return out;
}

bool OrderGraph::Entails(const DenseAtom& atom) {
  if (!Close()) return true;  // ex falso
  const Term& lhs = atom.lhs();
  const Term& rhs = atom.rhs();
  PaRel mask = RelOpToPa(atom.op());
  if (lhs.is_const() && rhs.is_const()) {
    return OpHolds(lhs.constant().Compare(rhs.constant()), atom.op());
  }
  if (lhs.is_var() && rhs.is_var() && lhs.var() == rhs.var()) {
    return OpHolds(0, atom.op());
  }
  PaRel known;
  if (lhs.is_var() && rhs.is_var()) {
    known = RelBetween(lhs.var(), rhs.var());
  } else if (lhs.is_var()) {
    known = RelToValue(lhs.var(), rhs.constant());
  } else {
    known = PaInverse(RelToValue(rhs.var(), lhs.constant()));
  }
  return (known & ~mask) == 0;
}

std::vector<DenseAtom> OrderGraph::CanonicalAtoms() {
  return CanonicalAtomVec().ToVector();
}

AtomVec OrderGraph::CanonicalAtomVec() {
  bool sat = Close();
  DODB_CHECK_MSG(sat, "CanonicalAtoms on unsatisfiable network");
  AtomVec atoms;
  int n = num_nodes();
  // Constants all have node ids >= num_vars_, so the pairs that survive the
  // constant-constant skip are exactly var-var (i < j) and var-const. Walking
  // the var partner block in index order and the constant partner block in
  // value order (constant_nodes_ iterates by value) emits the atoms already
  // in DenseAtom order — every atom has lhs = x_i (so it is oriented), lhs
  // groups are ascending, and within a group the rhs runs over variables by
  // index and then constants by value, which is exactly Term order. Callers
  // can install the list without re-sorting or re-orienting.
  for (int i = 0; i < num_vars_; ++i) {
    for (int j = i + 1; j < num_vars_; ++j) {
      PaRel rel = rel_[i * n + j];
      if (rel == kPaAll) continue;
      atoms.push_back(
          DenseAtom(node_terms_[i], PaToRelOp(rel), node_terms_[j]));
    }
    // Minimal form: drop every var-const atom implied by transitivity
    // through the constant scale. After closure the relation of x_i to the
    // scale is monotone (constant-constant edges are exact, so e.g.
    // x >= c propagates x > c' to every c' < c): below the tightest lower
    // bound every relation is exactly {>}, above the tightest upper bound
    // exactly {<}, and an inequation survives only strictly between the
    // bounds (at a bound it is absorbed: {>=} ∩ {≠} = {>}). Hence
    //   { equality }                                 when one exists, else
    //   { tightest lower, surviving ≠s, tightest upper }
    // conjoined with the ground constant order entails the full form, and
    // is a subset of it — the two are logically equivalent. First pass:
    // locate the selected nodes. Second pass: emit them, which reproduces
    // value order (hence Term order) without a sort.
    int eq_node = -1;
    int lower_node = -1;  // largest constant with rel ∈ {>, >=}
    int upper_node = -1;  // smallest constant with rel ∈ {<, <=}
    bool has_neq = false;
    for (const auto& [value, node] : constant_nodes_) {
      PaRel rel = rel_[i * n + node];
      if (rel == kPaAll) continue;
      if (rel == kPaEq) {
        eq_node = node;
        break;
      }
      if ((rel & kPaLt) == 0) {
        lower_node = node;  // ascending walk: the last lower bound wins
      } else if ((rel & kPaGt) == 0) {
        if (upper_node < 0) upper_node = node;  // the first upper bound wins
      } else {
        has_neq = true;  // kPaNeq
      }
    }
    if (eq_node >= 0) {
      // x_i = c entails every other var-const relation of x_i (through the
      // exact constant order), so the equality atom stands alone.
      atoms.push_back(
          DenseAtom(node_terms_[i], RelOp::kEq, node_terms_[eq_node]));
      continue;
    }
    if (lower_node < 0 && upper_node < 0 && !has_neq) continue;
    for (const auto& [value, node] : constant_nodes_) {
      if (node != lower_node && node != upper_node) {
        if (!has_neq) continue;
        if (rel_[i * n + node] != kPaNeq) continue;
      }
      PaRel rel = rel_[i * n + node];
      atoms.push_back(
          DenseAtom(node_terms_[i], PaToRelOp(rel), node_terms_[node]));
    }
  }
  EvalCounters::AddCanonicalForm(atoms.size());
  return atoms;
}

std::optional<Term> OrderGraph::EqualityRep(int var) {
  if (!Close()) return std::nullopt;
  int n = num_nodes();
  std::optional<Term> best;
  for (int j = 0; j < n; ++j) {
    if (j == var) continue;
    if (rel_[var * n + j] != kPaEq) continue;
    const Term& t = node_terms_[j];
    if (t.is_const()) return t;  // constants are the preferred reps
    if (!best.has_value() || t.var() < best->var()) best = t;
  }
  return best;
}

std::optional<std::vector<Rational>> OrderGraph::SampleWitness() {
  if (!Close()) return std::nullopt;
  int n = num_nodes();
  if (n == 0) return std::vector<Rational>();

  // 1. Equality classes.
  std::vector<int> parent(n);
  for (int i = 0; i < n; ++i) parent[i] = i;
  auto find = [&](int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (RelAt(i, j) == kPaEq) parent[find(i)] = find(j);
    }
  }
  std::vector<int> class_of(n);
  std::vector<int> reps;
  for (int i = 0; i < n; ++i) {
    int r = find(i);
    if (r == i) reps.push_back(i);
  }
  std::vector<int> rep_index(n, -1);
  for (size_t c = 0; c < reps.size(); ++c) rep_index[reps[c]] = c;
  for (int i = 0; i < n; ++i) class_of[i] = rep_index[find(i)];
  int num_classes = static_cast<int>(reps.size());

  // Pinned value per class (class containing a constant node).
  std::vector<std::optional<Rational>> pin(num_classes);
  for (int i = 0; i < n; ++i) {
    if (node_terms_[i].is_const()) pin[class_of[i]] = node_terms_[i].constant();
  }

  // 2. Strictifiable order edges between distinct classes: i -> j whenever
  //    the closed relation forbids i > j.
  std::vector<std::vector<bool>> edge(num_classes,
                                      std::vector<bool>(num_classes, false));
  std::vector<int> indegree(num_classes, 0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      int ci = class_of[i];
      int cj = class_of[j];
      if (ci == cj) continue;
      PaRel rel = RelAt(i, j);
      if ((rel & kPaGt) == 0 && !edge[ci][cj]) {
        edge[ci][cj] = true;
        ++indegree[cj];
      }
    }
  }

  // 3. Topological order (Kahn, smallest-index first for determinism).
  std::priority_queue<int, std::vector<int>, std::greater<int>> ready;
  for (int c = 0; c < num_classes; ++c) {
    if (indegree[c] == 0) ready.push(c);
  }
  std::vector<int> topo;
  topo.reserve(num_classes);
  while (!ready.empty()) {
    int c = ready.top();
    ready.pop();
    topo.push_back(c);
    for (int d = 0; d < num_classes; ++d) {
      if (edge[c][d] && --indegree[d] == 0) ready.push(d);
    }
  }
  DODB_CHECK_MSG(static_cast<int>(topo.size()) == num_classes,
                 "cycle in closed order graph");

  // 4. Assign strictly increasing values along the topological order,
  //    pinned classes keeping their constants. Runs of unpinned classes are
  //    spread strictly inside the surrounding pin interval.
  std::vector<Rational> value(num_classes);
  size_t pos = 0;
  std::optional<Rational> lo;  // value of the most recent pinned class
  while (pos < topo.size()) {
    if (pin[topo[pos]].has_value()) {
      value[topo[pos]] = *pin[topo[pos]];
      lo = value[topo[pos]];
      ++pos;
      continue;
    }
    // Maximal run of unpinned classes [pos, end).
    size_t end = pos;
    while (end < topo.size() && !pin[topo[end]].has_value()) ++end;
    std::optional<Rational> hi =
        end < topo.size() ? std::optional<Rational>(*pin[topo[end]])
                          : std::nullopt;
    int64_t run = static_cast<int64_t>(end - pos);
    for (int64_t i = 0; i < run; ++i) {
      Rational v;
      if (lo.has_value() && hi.has_value()) {
        v = *lo + (*hi - *lo) * Rational(i + 1, run + 1);
      } else if (lo.has_value()) {
        v = *lo + Rational(i + 1);
      } else if (hi.has_value()) {
        v = *hi - Rational(run - i);
      } else {
        v = Rational(i);
      }
      value[topo[pos + i]] = v;
    }
    pos = end;
  }

  std::vector<Rational> point(num_vars_);
  for (int i = 0; i < num_vars_; ++i) point[i] = value[class_of[i]];
  return point;
}

}  // namespace dodb
