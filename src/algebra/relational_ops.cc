#include "algebra/relational_ops.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "cells/cell_decomposition.h"
#include "constraints/eval_counters.h"
#include "constraints/relation_index.h"
#include "constraints/relation_shards.h"
#include "core/check.h"
#include "core/query_guard.h"

namespace dodb {
namespace algebra {

namespace {

// Below this many candidate pairs the plain all-pairs loop beats the index
// setup cost; both paths produce bit-identical relations either way.
constexpr size_t kIndexMinPairs = 16;

// Below this many candidate pairs the shard-pair machinery (cover matrix,
// per-shard probes) costs more than it prunes; the flat probe handles
// small joins.
constexpr size_t kShardMinPairs = 256;

uint64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

using ColumnPairs = std::vector<std::pair<int, int>>;

// Whether tuple bounds `sa` (of a) and `sb` (of b) can agree on every
// joined column pair.
bool BoundsAgree(const TupleSignature& sa, const TupleSignature& sb,
                 const ColumnPairs& columns) {
  for (const auto& [left, right] : columns) {
    if (!BoundsMayOverlap(sa.columns[left], sb.columns[right])) return false;
  }
  return true;
}

// The column pair both probes key on: the one whose b column is bounded in
// the most b tuples (ties to the earliest), where interval windowing
// discriminates best.
std::pair<int, int> ProbePair(const RelationIndex& ib,
                              const ColumnPairs& columns) {
  if (columns.size() == 1) return columns.front();
  std::pair<int, int> best = columns.front();
  size_t best_count = 0;
  for (const std::pair<int, int>& pair : columns) {
    size_t count = 0;
    for (size_t j = 0; j < ib.size(); ++j) {
      const ColumnBound& bound = ib.signature(j).columns[pair.second];
      if (bound.has_lower || bound.has_upper) ++count;
    }
    if (count > best_count) {
      best = pair;
      best_count = count;
    }
  }
  return best;
}

// The one candidate-pair enumerator behind Intersect and EquiJoin (and so
// CrossProduct and Difference): the pairs (i, j) of a × b, in row-major
// order, whose bounds on `left` (in a) and `right` (in b) can agree for
// every joined column pair (left, right).
// A skipped pair is provably unsatisfiable, so AddTuplesParallel over the
// rest replays the nested loop's insertion sequence minus no-ops, and the
// output is bit-identical to the full product's whichever strategy ran.
// The strategy is picked by input size:
//   - every pair, below kIndexMinPairs or with no joined columns (kept
//     implicit, so a large cross product never lists its pairs before the
//     guard's upfront work check sees it);
//   - the flat probe: each tuple of a probes b's interval index;
//   - shard pairs, from kShardMinPairs when both sides have several
//     shards: shard pairs whose covers cannot agree are skipped whole, and
//     the members of the rest probe b's per-shard interval indexes.
// Shard layout only decides which pairs get tested, never which survive.
class CandidatePairs {
 public:
  CandidatePairs(const GeneralizedRelation& a, const GeneralizedRelation& b,
                 const ColumnPairs& columns)
      : nb_(b.tuple_count()), total_(a.tuple_count() * nb_) {
    EvalCounters::AddPairsConsidered(total_);
    if (total_ == 0 || columns.empty() || total_ < kIndexMinPairs) return;
    all_ = false;
    const RelationIndex& ib = b.Index();
    if (total_ >= kShardMinPairs && a.Index().Shards()->shard_count() > 1 &&
        ib.Shards()->shard_count() > 1) {
      ProbeShardPairs(a.Index(), ib, columns);
    } else {
      ProbeFlat(a.tuples(), ib, columns);
    }
    EvalCounters::AddPairsPruned(total_ - listed_.size());
  }

  size_t size() const { return all_ ? total_ : listed_.size(); }
  std::pair<size_t, size_t> operator[](size_t k) const {
    return all_ ? std::make_pair(k / nb_, k % nb_) : listed_[k];
  }

 private:
  void ProbeFlat(const std::vector<GeneralizedTuple>& ta,
                 const RelationIndex& ib, const ColumnPairs& columns) {
    const auto [left, right] = ProbePair(ib, columns);
    const ColumnIntervalIndex* intervals = ib.IntervalIndex(right);
    auto probe_start = std::chrono::steady_clock::now();
    std::vector<size_t> window;
    GuardTicker ticker(CurrentQueryGuard(), GuardSite::kAlgebraMaterialize);
    for (size_t i = 0; i < ta.size(); ++i) {
      if (!ticker.Tick()) break;
      const TupleSignature& sa = ta[i].CachedSignature();
      window.clear();
      intervals->AppendCandidates(sa.columns[left], &window);
      std::sort(window.begin(), window.end());
      for (size_t j : window) {
        if (BoundsAgree(sa, ib.signature(j), columns)) {
          listed_.emplace_back(i, j);
        }
      }
    }
    EvalCounters::AddIndexProbes(ta.size(), ElapsedNs(probe_start));
  }

  void ProbeShardPairs(const RelationIndex& ia, const RelationIndex& ib,
                       const ColumnPairs& columns) {
    const RelationShards& sha = *ia.Shards();
    const RelationShards& shb = *ib.Shards();
    const auto [left, right] = ProbePair(ib, columns);
    auto probe_start = std::chrono::steady_clock::now();
    std::vector<size_t> window;
    GuardTicker ticker(CurrentQueryGuard(), GuardSite::kShardJoin);
    uint64_t live = 0;
    for (uint32_t sa = 0; sa < sha.shard_count(); ++sa) {
      const RelationShards::ShardStats& stats_a = sha.stats(sa);
      if (stats_a.size == 0) continue;
      for (uint32_t sb = 0; sb < shb.shard_count(); ++sb) {
        // Member boxes lie inside their shard's cover, so covers that
        // cannot agree prove every member pair unsatisfiable.
        const RelationShards::ShardStats& stats_b = shb.stats(sb);
        if (stats_b.size == 0 ||
            !BoundsAgree(stats_a.cover, stats_b.cover, columns)) {
          continue;
        }
        ++live;
        const std::vector<size_t>& members_b = shb.Members(sb);
        const ColumnIntervalIndex* intervals =
            ib.ShardIntervalIndex(sb, right);
        for (size_t i : sha.Members(sa)) {
          // A tripped guard discards the operator's output, so the partial
          // list never surfaces.
          if (!ticker.Tick()) return;
          const TupleSignature& si = ia.signature(i);
          window.clear();
          intervals->AppendCandidates(si.columns[left], &window);
          for (size_t w : window) {
            if (BoundsAgree(si, ib.signature(members_b[w]), columns)) {
              listed_.emplace_back(i, members_b[w]);
            }
          }
        }
      }
    }
    const uint64_t considered =
        static_cast<uint64_t>(sha.shard_count()) * shb.shard_count();
    EvalCounters::AddShardPairs(considered, considered - live);
    std::sort(listed_.begin(), listed_.end());
    EvalCounters::AddIndexProbes(live, ElapsedNs(probe_start));
  }

  const size_t nb_;
  const size_t total_;
  bool all_ = true;
  std::vector<std::pair<size_t, size_t>> listed_;
};

}  // namespace

GeneralizedRelation Union(const GeneralizedRelation& a,
                          const GeneralizedRelation& b) {
  DODB_CHECK_MSG(a.arity() == b.arity(), "Union arity mismatch");
  GeneralizedRelation out = a;
  // Stored tuples are already canonical (relation invariant), so they merge
  // directly — re-running the closure on them would be a no-op.
  GuardTicker ticker(CurrentQueryGuard(), GuardSite::kAlgebraMaterialize, 64);
  for (const GeneralizedTuple& addition : b.tuples()) {
    if (!ticker.Tick()) break;
    out.AddCanonicalTuple(addition);
  }
  return out;
}

GeneralizedRelation Intersect(const GeneralizedRelation& a,
                              const GeneralizedRelation& b) {
  DODB_CHECK_MSG(a.arity() == b.arity(), "Intersect arity mismatch");
  // Column-aligned conjunction: every column is a joined pair.
  ColumnPairs columns;
  columns.reserve(a.arity());
  for (int c = 0; c < a.arity(); ++c) columns.emplace_back(c, c);
  const std::vector<GeneralizedTuple>& ta = a.tuples();
  const std::vector<GeneralizedTuple>& tb = b.tuples();
  CandidatePairs pairs(a, b, columns);
  GeneralizedRelation out(a.arity());
  out.AddTuplesParallel(pairs.size(), [&](size_t k) {
    const auto [i, j] = pairs[k];
    return ta[i].Conjoin(tb[j]);
  });
  return out;
}

GeneralizedRelation Complement(const GeneralizedRelation& rel) {
  // Arity-1 fast path: the cell decomposition over the relation's own
  // constants has only 2m+1 cells, so the exact complement is linear in
  // the scale (the incremental DNF is cubic on interval unions).
  if (rel.arity() == 1) {
    return ComplementViaCells(rel);
  }
  // At arity >= 2 the incremental DNF is kept even for wide relations: the
  // cell-based complement is often faster to *compute* but produces one
  // tuple per cell, which makes every downstream join pay for the blowup
  // (measured: parity workloads run 3x slower end-to-end with a cell-based
  // complement here).
  return ComplementViaDnf(rel);
}

GeneralizedRelation ComplementViaCells(const GeneralizedRelation& rel) {
  return CellDecomposition::Complement(rel).value();
}

GeneralizedRelation ComplementViaDnf(const GeneralizedRelation& rel) {
  // not(T1 or ... or Tn) == and_i not(Ti); each not(Ti) is the disjunction
  // of the negated atoms of a *minimized* Ti. The accumulator is kept as a
  // pruned DNF throughout.
  GeneralizedRelation acc = GeneralizedRelation::True(rel.arity());
  GuardTicker ticker(CurrentQueryGuard(), GuardSite::kAlgebraMaterialize, 4);
  bool covers_everything = false;
  for (const GeneralizedTuple& tuple : rel.tuples()) {
    // Each accumulator step multiplies the partials, so a complement blowup
    // grows between ticks; tick every few input tuples (the inner products
    // are themselves strided through AddTuplesParallel).
    if (!ticker.Tick()) break;
    GeneralizedTuple minimized = tuple.Minimized();
    if (minimized.is_true()) {
      covers_everything = true;
      break;
    }
    GeneralizedRelation next(rel.arity());
    const std::vector<GeneralizedTuple>& partials = acc.tuples();
    const AtomVec& atoms = minimized.atoms();
    const size_t total = partials.size() * atoms.size();
    EvalCounters::AddPairsConsidered(total);
    // The outer accumulator walk is inherently sequential; the partial x
    // negated-atom product inside one step is not. Filters unsat, prunes
    // subsumption, in partial-major order.
    if (total < kIndexMinPairs) {
      next.AddTuplesParallel(total, [&](size_t i) {
        GeneralizedTuple candidate = partials[i / atoms.size()];
        candidate.AddAtom(atoms[i % atoms.size()].Negated());
        return candidate;
      });
    } else {
      // A negated var-constant atom confines one column to a half-line; a
      // partial whose signature box is disjoint from it yields an
      // unsatisfiable conjunction, so the pair is skipped up front.
      std::vector<std::optional<std::pair<int, ColumnBound>>> negated_bounds;
      negated_bounds.reserve(atoms.size());
      for (const DenseAtom& atom : atoms) {
        negated_bounds.push_back(BoundOfAtom(atom.Negated()));
      }
      std::vector<std::pair<size_t, size_t>> pairs;
      for (size_t p = 0; p < partials.size(); ++p) {
        const TupleSignature& sp = partials[p].CachedSignature();
        for (size_t k = 0; k < atoms.size(); ++k) {
          if (negated_bounds[k].has_value() &&
              !BoundsMayOverlap(sp.columns[negated_bounds[k]->first],
                                negated_bounds[k]->second)) {
            continue;
          }
          pairs.emplace_back(p, k);
        }
      }
      EvalCounters::AddPairsPruned(total - pairs.size());
      next.AddTuplesParallel(pairs.size(), [&](size_t i) {
        GeneralizedTuple candidate = partials[pairs[i].first];
        candidate.AddAtom(atoms[pairs[i].second].Negated());
        return candidate;
      });
    }
    acc = std::move(next);
    if (acc.IsEmpty()) break;
  }
  if (covers_everything) return GeneralizedRelation(rel.arity());
  return acc;
}

GeneralizedRelation Difference(const GeneralizedRelation& a,
                               const GeneralizedRelation& b) {
  DODB_CHECK_MSG(a.arity() == b.arity(), "Difference arity mismatch");
  if (a.arity() == 0 || a.IsEmpty() || b.IsEmpty() ||
      a.tuple_count() * b.tuple_count() < kIndexMinPairs) {
    return Intersect(a, Complement(b));
  }
  // Overlap-restricted containment pre-filter: a tuple of `a` wholly inside
  // a single tuple of `b` contributes nothing to a - b, and every Intersect
  // candidate it would have produced against not(b) is unsatisfiable — so
  // dropping it up front removes only no-ops and the result stays
  // bit-identical. In semi-naive fixpoints most re-derived tuples fall out
  // here, often before the complement is ever computed.
  const RelationIndex& index = b.Index();
  const std::vector<GeneralizedTuple>& tb = b.tuples();
  GeneralizedRelation kept(a.arity());
  uint64_t checks = 0;
  auto probe_start = std::chrono::steady_clock::now();
  std::vector<size_t> window;
  GuardTicker ticker(CurrentQueryGuard(), GuardSite::kAlgebraMaterialize);
  for (const GeneralizedTuple& tuple : a.tuples()) {
    if (!ticker.Tick()) break;
    window.clear();
    index.AppendOverlapCandidates(tuple.CachedSignature(), &window);
    bool contained = false;
    for (size_t j : window) {
      ++checks;
      if (tuple.EntailsTuple(tb[j])) {
        contained = true;
        break;
      }
    }
    if (!contained) kept.AddCanonicalTuple(tuple);
  }
  EvalCounters::AddIndexProbes(a.tuple_count(), ElapsedNs(probe_start));
  EvalCounters::AddSubsumptionChecks(checks);
  if (kept.IsEmpty()) return kept;
  return Intersect(kept, Complement(b));
}

GeneralizedRelation CrossProduct(const GeneralizedRelation& a,
                                 const GeneralizedRelation& b) {
  return EquiJoin(a, b, {});
}

GeneralizedRelation EquiJoin(
    const GeneralizedRelation& a, const GeneralizedRelation& b,
    const std::vector<std::pair<int, int>>& column_pairs) {
  const int arity = a.arity() + b.arity();
  std::vector<int> a_map(a.arity());
  for (int i = 0; i < a.arity(); ++i) a_map[i] = i;
  std::vector<int> b_map(b.arity());
  for (int i = 0; i < b.arity(); ++i) b_map[i] = a.arity() + i;
  std::vector<DenseAtom> eq_atoms;
  eq_atoms.reserve(column_pairs.size());
  for (const auto& [left, right] : column_pairs) {
    DODB_CHECK(left >= 0 && left < a.arity());
    DODB_CHECK(right >= 0 && right < b.arity());
    eq_atoms.push_back(DenseAtom(Term::Var(left), RelOp::kEq,
                                 Term::Var(a.arity() + right)));
  }
  // Fused cross product + equality selection: each candidate pair is widened
  // and conjoined with every join-equality atom in one step, so candidates
  // that fail the join never materialize as intermediates.
  const std::vector<GeneralizedTuple>& ta = a.tuples();
  const std::vector<GeneralizedTuple>& tb = b.tuples();
  CandidatePairs pairs(a, b, column_pairs);
  GeneralizedRelation out(arity);
  out.AddTuplesParallel(pairs.size(), [&](size_t k) {
    const auto [i, j] = pairs[k];
    GeneralizedTuple candidate = ta[i].Reindexed(a_map, arity).Conjoin(
        tb[j].Reindexed(b_map, arity));
    for (const DenseAtom& atom : eq_atoms) candidate.AddAtom(atom);
    return candidate;
  });
  return out;
}

GeneralizedRelation Select(const GeneralizedRelation& rel,
                           const DenseAtom& atom) {
  const std::vector<GeneralizedTuple>& tuples = rel.tuples();
  GeneralizedRelation out(rel.arity());
  out.AddTuplesParallel(tuples.size(), [&](size_t i) {
    GeneralizedTuple selected = tuples[i];
    selected.AddAtom(atom);
    return selected;
  });
  return out;
}

GeneralizedRelation Rename(const GeneralizedRelation& rel,
                           const std::vector<int>& mapping, int new_arity) {
  bool identity = new_arity == rel.arity();
  for (size_t i = 0; identity && i < mapping.size(); ++i) {
    identity = mapping[i] == static_cast<int>(i);
  }
  if (identity) return rel;  // shares rel's tuples (copy-on-write)
  GeneralizedRelation out(new_arity);
  // Injective renamings (column permutation / widening — the common case in
  // rule evaluation) preserve canonical form up to re-orienting and
  // re-sorting atoms, so stored tuples skip the closure pass entirely. A
  // non-injective mapping merges columns, which adds implicit equalities and
  // needs the full pipeline.
  bool injective = true;
  std::vector<char> seen(new_arity, 0);
  for (int target : mapping) {
    if (target < 0) continue;  // unused source column
    if (target >= new_arity || seen[target]) {
      injective = false;
      break;
    }
    seen[target] = 1;
  }
  if (injective) {
    GuardTicker ticker(CurrentQueryGuard(), GuardSite::kAlgebraMaterialize,
                       64);
    for (const GeneralizedTuple& tuple : rel.tuples()) {
      if (!ticker.Tick()) break;
      out.AddCanonicalTuple(tuple.ReindexedCanonical(mapping, new_arity));
    }
    return out;
  }
  const std::vector<GeneralizedTuple>& tuples = rel.tuples();
  out.AddTuplesParallel(tuples.size(), [&](size_t i) {
    return tuples[i].Reindexed(mapping, new_arity);
  });
  return out;
}

}  // namespace algebra
}  // namespace dodb
