#include "algebra/relational_ops.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "algebra/join_planner.h"
#include "cells/cell_decomposition.h"
#include "constraints/closure_cache.h"
#include "constraints/eval_counters.h"
#include "constraints/relation_index.h"
#include "constraints/relation_shards.h"
#include "core/check.h"
#include "core/query_guard.h"
#include "core/thread_pool.h"

namespace dodb {
namespace algebra {

namespace {

// Below this many candidate pairs the plain all-pairs loop beats the index
// setup cost; both paths produce bit-identical relations either way.
constexpr size_t kIndexMinPairs = 16;

// Below this many candidate pairs the shard-pair machinery (profiles, cover
// matrix, per-pair jobs) costs more than it prunes; the flat indexed path
// handles small joins.
constexpr size_t kShardMinPairs = 256;

uint64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

// Routes a paged-fetch failure through cooperative cancellation: the guard
// (usually already tripped — the failure propagated out of one of its own
// page-cache checkpoints) aborts the query with this Status, and the
// enclosing operator's partial output is discarded like any tripped run's.
// Without a guard a spill-file I/O error mid-operator is unrecoverable.
void FailPagedFetch(const Status& status) {
  QueryGuard* guard = CurrentQueryGuard();
  DODB_CHECK_MSG(guard != nullptr, status.message().c_str());
  if (!guard->tripped()) {
    guard->Trip(GuardSite::kPageEvict, status);
  }
}

// Position-addressed tuple access over either storage form of a join
// input. Resident relations hand out references to their vector; paged
// relations decode positions through their bounded run cache, so an
// operator's live decoded memory stays O(runs in flight) while signatures
// keep coming from the resident index. Get/Signature are safe to call
// concurrently (the run cache locks; index signatures are read-only here),
// which is what lets paged inputs flow through the existing shard-pair
// pool jobs unchanged.
class InputTuples {
 public:
  explicit InputTuples(const GeneralizedRelation& rel)
      : rel_(rel),
        runs_(rel.PagedRuns()),
        resident_(runs_ == nullptr ? &rel.tuples() : nullptr) {}

  size_t size() const { return rel_.tuple_count(); }

  /// The tuple at position i, by value (a paged position is a copy out of
  /// its decoded run — cheap: atom storage is shared, not cloned).
  GeneralizedTuple Get(size_t i) const {
    if (resident_ != nullptr) return (*resident_)[i];
    auto tuple = runs_->TupleAt(i);
    if (tuple.ok()) return std::move(tuple).value();
    FailPagedFetch(tuple.status());
    // The guard is tripped; any well-formed tuple keeps the worker loops
    // type-correct until they observe it (the merged output never
    // surfaces).
    return GeneralizedTuple(rel_.arity());
  }

  /// The signature at position i without touching the payload (the index
  /// mirrors signatures position by position).
  const TupleSignature& Signature(size_t i) const {
    if (resident_ != nullptr) return (*resident_)[i].CachedSignature();
    return rel_.Index().signature(i);
  }

 private:
  const GeneralizedRelation& rel_;
  std::shared_ptr<PagedRunCache> runs_;
  const std::vector<GeneralizedTuple>* resident_;
};

// Streams rel's tuples in position order through fn (which returns false
// to stop early). Paged inputs decode one run at a time through the shared
// run cache — the whole relation is never resident at once.
template <typename Fn>
void ForEachTuple(const GeneralizedRelation& rel, Fn&& fn) {
  std::shared_ptr<PagedRunCache> runs = rel.PagedRuns();
  if (runs == nullptr) {
    for (const GeneralizedTuple& tuple : rel.tuples()) {
      if (!fn(tuple)) return;
    }
    return;
  }
  const PagedTupleSource& source = runs->source();
  for (size_t r = 0; r < source.run_count(); ++r) {
    auto run = runs->Run(r);
    if (!run.ok()) {
      FailPagedFetch(run.status());
      return;
    }
    for (const GeneralizedTuple& tuple : *run.value()) {
      if (!fn(tuple)) return;
    }
  }
}

// One candidate surviving the shard-pair filters, keyed by its row-major
// pair rank i * |tb| + j so the sequential merge can replay the exact
// nested-loop insertion sequence (minus provably-unsatisfiable pairs) no
// matter which shard-pair job produced it.
struct KeyedCandidate {
  uint64_t key;
  std::optional<GeneralizedTuple> canonical;
};

// Whether the sharded pair-join path applies: both inputs sharded into more
// than one shard and the pair matrix is large enough to amortize it.
bool ShardedJoinApplies(const GeneralizedRelation& a,
                        const GeneralizedRelation& b, size_t total_pairs) {
  if (total_pairs < kShardMinPairs) return false;
  return a.Index().Shards()->shard_count() > 1 &&
         b.Index().Shards()->shard_count() > 1;
}

// Shard-pair–parallel join kernel shared by Intersect and EquiJoin.
//
// A candidate pair (i, j) survives iff, for every (left, right) in
// `test_columns`, tuple i's bounds on `left` and tuple j's bounds on
// `right` can agree on a value — the same predicate the flat indexed path
// applies, so the surviving pair set is identical; shard covers only decide
// which pairs get *tested*. Surviving candidates are canonicalized inside
// the shard-pair jobs (per-shard parallelism instead of per-tuple-block)
// and merged sequentially in ascending row-major key order, which replays
// the nested-loop insertion sequence exactly — outputs stay bit-identical
// to the flat indexed path at any thread count.
//
// The planner picks which side enumerates and which side's per-shard
// interval indexes are probed (an enumeration-only decision): enumerating
// the smaller side minimizes probe work.
void ShardedJoinInto(
    GeneralizedRelation* out, const GeneralizedRelation& a,
    const GeneralizedRelation& b,
    const std::vector<std::pair<int, int>>& test_columns,
    const std::function<GeneralizedTuple(size_t, size_t)>& make) {
  const RelationIndex& ia = a.Index();
  const RelationIndex& ib = b.Index();
  const RelationShards& sha = *ia.Shards();
  const RelationShards& shb = *ib.Shards();
  const size_t nb = b.tuple_count();
  const int probe_left = test_columns.front().first;
  const int probe_right = test_columns.front().second;
  const bool keep =
      KeepOrientation(ProfileRelation(a), ProfileRelation(b));
  if (!keep) EvalCounters::AddPlannerReorders(1);

  // Cover matrix: keep only shard pairs whose covers can agree on every
  // tested column pair (member boxes are contained in their shard's cover,
  // so a disjoint cover pair proves every member pair disjoint).
  struct ShardPair {
    uint32_t sa;
    uint32_t sb;
  };
  std::vector<ShardPair> live;
  const uint64_t considered =
      static_cast<uint64_t>(sha.shard_count()) * shb.shard_count();
  for (uint32_t sa = 0; sa < sha.shard_count(); ++sa) {
    const RelationShards::ShardStats& stats_a = sha.stats(sa);
    if (stats_a.size == 0) continue;
    for (uint32_t sb = 0; sb < shb.shard_count(); ++sb) {
      const RelationShards::ShardStats& stats_b = shb.stats(sb);
      if (stats_b.size == 0) continue;
      bool compatible = true;
      for (const auto& [left, right] : test_columns) {
        if (!BoundsMayOverlap(stats_a.cover.columns[left],
                              stats_b.cover.columns[right])) {
          compatible = false;
          break;
        }
      }
      if (compatible) live.push_back(ShardPair{sa, sb});
    }
  }
  EvalCounters::AddShardPairs(considered, considered - live.size());

  // Fault in the lazy member lists and the probed per-shard interval
  // indexes sequentially, so concurrent jobs read warm caches instead of
  // serializing on the build mutex.
  auto probe_start = std::chrono::steady_clock::now();
  for (const ShardPair& pair : live) {
    sha.Members(pair.sa);
    shb.Members(pair.sb);
    if (keep) {
      ib.ShardIntervalIndex(pair.sb, probe_right);
    } else {
      ia.ShardIntervalIndex(pair.sa, probe_left);
    }
  }

  // One job per surviving shard pair: filter member pairs by the exact
  // per-pair predicate and canonicalize the survivors. The memo pointer is
  // read here (calling thread) and captured — workers don't inherit the
  // thread-local scope.
  ClosureCache* memo = CurrentClosureCache();
  QueryGuard* guard = CurrentQueryGuard();
  auto eval_pair = [&](size_t k) -> std::vector<KeyedCandidate> {
    // Workers don't inherit the guard thread-local either; re-install it so
    // closure sweeps and the memo observe it, and bail before enumerating
    // when a sibling job already tripped.
    QueryGuardScope guard_scope(guard);
    if (guard != nullptr && !guard->Checkpoint(GuardSite::kShardJoin)) {
      return {};
    }
    GuardTicker ticker(guard, GuardSite::kShardJoin);
    const ShardPair& pair = live[k];
    const std::vector<size_t>& members_a = sha.Members(pair.sa);
    const std::vector<size_t>& members_b = shb.Members(pair.sb);
    std::vector<std::pair<size_t, size_t>> pairs;
    std::vector<size_t> window;
    auto test = [&](size_t i, size_t j) {
      const TupleSignature& siga = ia.signature(i);
      const TupleSignature& sigb = ib.signature(j);
      for (const auto& [left, right] : test_columns) {
        if (!BoundsMayOverlap(siga.columns[left], sigb.columns[right])) {
          return false;
        }
      }
      return true;
    };
    if (keep) {
      const ColumnIntervalIndex* intervals =
          ib.ShardIntervalIndex(pair.sb, probe_right);
      for (size_t i : members_a) {
        if (!ticker.Tick()) return {};
        window.clear();
        intervals->AppendCandidates(ia.signature(i).columns[probe_left],
                                    &window);
        for (size_t w : window) {
          size_t j = members_b[w];
          if (test(i, j)) pairs.emplace_back(i, j);
        }
      }
    } else {
      const ColumnIntervalIndex* intervals =
          ia.ShardIntervalIndex(pair.sa, probe_left);
      for (size_t j : members_b) {
        if (!ticker.Tick()) return {};
        window.clear();
        intervals->AppendCandidates(ib.signature(j).columns[probe_right],
                                    &window);
        for (size_t w : window) {
          size_t i = members_a[w];
          if (test(i, j)) pairs.emplace_back(i, j);
        }
      }
    }
    std::vector<KeyedCandidate> result;
    result.reserve(pairs.size());
    // Stride 64 here, not 1024: each iteration runs a full closure, so a
    // finer stride still costs well under the canonicalization and keeps
    // the deadline reaction inside one operator's millisecond budget. An
    // aborted job returns an empty chunk — a tripped run never surfaces
    // the merged relation, only the guard's Status.
    GuardTicker canon_ticker(guard, GuardSite::kShardJoin, 64);
    for (const auto& [i, j] : pairs) {
      if (!canon_ticker.Tick()) return {};
      GeneralizedTuple candidate = make(i, j);
      std::optional<GeneralizedTuple> canonical =
          memo != nullptr ? memo->CanonicalIfSatisfiable(std::move(candidate))
                          : candidate.CanonicalIfSatisfiable();
      result.push_back(
          KeyedCandidate{static_cast<uint64_t>(i) * nb + j,
                         std::move(canonical)});
    }
    return result;
  };

  std::vector<std::vector<KeyedCandidate>> per_pair;
  if (!ShouldParallelize(live.size())) {
    per_pair.reserve(live.size());
    for (size_t k = 0; k < live.size(); ++k) per_pair.push_back(eval_pair(k));
  } else {
    per_pair = ParallelMap<std::vector<KeyedCandidate>>(live.size(),
                                                        eval_pair);
  }
  EvalCounters::AddIndexProbes(live.size(), ElapsedNs(probe_start));

  size_t survivors = 0;
  for (const auto& chunk : per_pair) survivors += chunk.size();
  EvalCounters::AddPairsPruned(a.tuple_count() * nb - survivors);
  EvalCounters::AddCanonicalized(survivors);

  std::vector<KeyedCandidate> merged;
  merged.reserve(survivors);
  for (auto& chunk : per_pair) {
    for (KeyedCandidate& candidate : chunk) {
      merged.push_back(std::move(candidate));
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const KeyedCandidate& x, const KeyedCandidate& y) {
              return x.key < y.key;
            });
  uint64_t inserted = 0;
  for (KeyedCandidate& candidate : merged) {
    if (!candidate.canonical.has_value()) continue;
    if (guard != nullptr) {
      if ((inserted++ & 63) == 63 &&
          !guard->Checkpoint(GuardSite::kShardJoin)) {
        return;
      }
      uint64_t bytes = candidate.canonical->ApproxBytes();
      out->AddCanonicalTuple(std::move(*candidate.canonical));
      if (!guard->AccountBytes(GuardSite::kShardJoin, bytes) ||
          !guard->CheckRelationSize(GuardSite::kShardJoin,
                                    out->tuple_count())) {
        return;
      }
      continue;
    }
    out->AddCanonicalTuple(std::move(*candidate.canonical));
  }
}

}  // namespace

GeneralizedRelation Union(const GeneralizedRelation& a,
                          const GeneralizedRelation& b) {
  DODB_CHECK_MSG(a.arity() == b.arity(), "Union arity mismatch");
  GeneralizedRelation out = a;
  // Stored tuples are already canonical (relation invariant), so they merge
  // directly — re-running the closure on them would be a no-op. A paged `b`
  // streams run by run; a paged `a` residentizes on the first merge (the
  // union is a new relation, not the spilled image).
  GuardTicker ticker(CurrentQueryGuard(), GuardSite::kAlgebraMaterialize, 64);
  ForEachTuple(b, [&](const GeneralizedTuple& addition) {
    if (!ticker.Tick()) return false;
    out.AddCanonicalTuple(addition);
    return true;
  });
  return out;
}

GeneralizedRelation Intersect(const GeneralizedRelation& a,
                              const GeneralizedRelation& b) {
  DODB_CHECK_MSG(a.arity() == b.arity(), "Intersect arity mismatch");
  GeneralizedRelation out(a.arity());
  if (a.is_paged() || b.is_paged()) {
    // Streaming variant: same paths, same enumeration orders, same pruning
    // predicates as the resident code below — signatures come from the
    // resident index and tuple payloads through the bounded run caches, so
    // outputs stay bit-identical while decoded memory stays O(runs in
    // flight). Kept separate so the resident hot path pays nothing.
    if (a.IsEmpty() || b.IsEmpty()) return out;
    InputTuples in_a(a);
    InputTuples in_b(b);
    const size_t nb = in_b.size();
    const size_t total = in_a.size() * nb;
    EvalCounters::AddPairsConsidered(total);
    if (a.arity() == 0 || total < kIndexMinPairs) {
      out.AddTuplesParallel(total, [&](size_t i) {
        return in_a.Get(i / nb).Conjoin(in_b.Get(i % nb));
      });
      return out;
    }
    if (ShardedJoinApplies(a, b, total)) {
      std::vector<std::pair<int, int>> columns;
      columns.reserve(a.arity());
      for (int c = 0; c < a.arity(); ++c) columns.emplace_back(c, c);
      ShardedJoinInto(&out, a, b, columns, [&](size_t i, size_t j) {
        return in_a.Get(i).Conjoin(in_b.Get(j));
      });
      return out;
    }
    const RelationIndex& index = b.Index();
    const int probe_column = index.ProbeColumn(b.arity());
    const ColumnIntervalIndex* intervals = index.IntervalIndex(probe_column);
    auto probe_start = std::chrono::steady_clock::now();
    std::vector<std::pair<size_t, size_t>> pairs;
    std::vector<size_t> window;
    GuardTicker ticker(CurrentQueryGuard(), GuardSite::kAlgebraMaterialize);
    for (size_t i = 0; i < in_a.size(); ++i) {
      if (!ticker.Tick()) break;
      const TupleSignature& sa = in_a.Signature(i);
      window.clear();
      intervals->AppendCandidates(sa.columns[probe_column], &window);
      std::sort(window.begin(), window.end());
      for (size_t j : window) {
        if (SignaturesMayOverlap(sa, index.signature(j))) {
          pairs.emplace_back(i, j);
        }
      }
    }
    EvalCounters::AddIndexProbes(in_a.size(), ElapsedNs(probe_start));
    EvalCounters::AddPairsPruned(total - pairs.size());
    out.AddTuplesParallel(pairs.size(), [&](size_t k) {
      return in_a.Get(pairs[k].first).Conjoin(in_b.Get(pairs[k].second));
    });
    return out;
  }
  const std::vector<GeneralizedTuple>& ta = a.tuples();
  const std::vector<GeneralizedTuple>& tb = b.tuples();
  if (ta.empty() || tb.empty()) return out;
  const size_t total = ta.size() * tb.size();
  EvalCounters::AddPairsConsidered(total);
  if (a.arity() == 0 || total < kIndexMinPairs) {
    // The pairwise-conjunction product in row-major order, so the merge
    // matches the classic nested loop exactly.
    out.AddTuplesParallel(total, [&](size_t i) {
      return ta[i / tb.size()].Conjoin(tb[i % tb.size()]);
    });
    return out;
  }
  if (ShardedJoinApplies(a, b, total)) {
    // Sharded path: prune whole shard pairs by their cover boxes, then test
    // and canonicalize surviving member pairs inside per-shard-pair pool
    // jobs. Intersect conjoins column-aligned, so the per-pair test spans
    // every column.
    std::vector<std::pair<int, int>> columns;
    columns.reserve(a.arity());
    for (int c = 0; c < a.arity(); ++c) columns.emplace_back(c, c);
    ShardedJoinInto(&out, a, b, columns, [&](size_t i, size_t j) {
      return ta[i].Conjoin(tb[j]);
    });
    return out;
  }
  // Indexed path: enumerate, still in row-major order, only the pairs whose
  // per-column bound boxes share a point. A pruned pair is provably
  // unsatisfiable, so it would have contributed nothing to the merge — the
  // surviving sequence is exactly the nested-loop sequence minus no-ops, and
  // the result is bit-identical to the full product's.
  const RelationIndex& index = b.Index();
  const int probe_column = index.ProbeColumn(b.arity());
  const ColumnIntervalIndex* intervals = index.IntervalIndex(probe_column);
  auto probe_start = std::chrono::steady_clock::now();
  std::vector<std::pair<size_t, size_t>> pairs;
  std::vector<size_t> window;
  GuardTicker ticker(CurrentQueryGuard(), GuardSite::kAlgebraMaterialize);
  for (size_t i = 0; i < ta.size(); ++i) {
    if (!ticker.Tick()) break;
    const TupleSignature& sa = ta[i].CachedSignature();
    window.clear();
    intervals->AppendCandidates(sa.columns[probe_column], &window);
    std::sort(window.begin(), window.end());
    for (size_t j : window) {
      if (SignaturesMayOverlap(sa, index.signature(j))) {
        pairs.emplace_back(i, j);
      }
    }
  }
  EvalCounters::AddIndexProbes(ta.size(), ElapsedNs(probe_start));
  EvalCounters::AddPairsPruned(total - pairs.size());
  out.AddTuplesParallel(pairs.size(), [&](size_t k) {
    return ta[pairs[k].first].Conjoin(tb[pairs[k].second]);
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
  ForEachTuple(rel, [&](const GeneralizedTuple& tuple) {
    // Each accumulator step multiplies the partials, so a complement blowup
    // grows between ticks; tick every few input tuples (the inner products
    // are themselves strided through AddTuplesParallel).
    if (!ticker.Tick()) return false;
    GeneralizedTuple minimized = tuple.Minimized();
    if (minimized.is_true()) {
      covers_everything = true;
      return false;
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
    return !acc.IsEmpty();
  });
  if (covers_everything) return GeneralizedRelation(rel.arity());
  return acc;
}

GeneralizedRelation Difference(const GeneralizedRelation& a,
                               const GeneralizedRelation& b) {
  DODB_CHECK_MSG(a.arity() == b.arity(), "Difference arity mismatch");
  if (a.is_paged() || b.is_paged()) {
    // Streaming variant of the prefilter below (same predicate, same
    // order); the Intersect/Complement it feeds handle paged inputs
    // themselves.
    if (a.arity() > 0 && !a.IsEmpty() && !b.IsEmpty() &&
        a.tuple_count() * b.tuple_count() >= kIndexMinPairs) {
      const RelationIndex& index = b.Index();
      InputTuples in_b(b);
      GeneralizedRelation kept(a.arity());
      uint64_t checks = 0;
      auto probe_start = std::chrono::steady_clock::now();
      std::vector<size_t> window;
      GuardTicker ticker(CurrentQueryGuard(), GuardSite::kAlgebraMaterialize);
      ForEachTuple(a, [&](const GeneralizedTuple& tuple) {
        if (!ticker.Tick()) return false;
        window.clear();
        index.AppendOverlapCandidates(tuple.CachedSignature(), &window);
        bool contained = false;
        for (size_t j : window) {
          ++checks;
          if (tuple.EntailsTuple(in_b.Get(j))) {
            contained = true;
            break;
          }
        }
        if (!contained) kept.AddCanonicalTuple(tuple);
        return true;
      });
      EvalCounters::AddIndexProbes(a.tuple_count(), ElapsedNs(probe_start));
      EvalCounters::AddSubsumptionChecks(checks);
      if (kept.IsEmpty()) return kept;
      return Intersect(kept, Complement(b));
    }
    return Intersect(a, Complement(b));
  }
  if (a.arity() > 0 && !a.IsEmpty() && !b.IsEmpty() &&
      a.tuples().size() * b.tuples().size() >= kIndexMinPairs) {
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
    EvalCounters::AddIndexProbes(a.tuples().size(), ElapsedNs(probe_start));
    EvalCounters::AddSubsumptionChecks(checks);
    if (kept.IsEmpty()) return kept;
    return Intersect(kept, Complement(b));
  }
  return Intersect(a, Complement(b));
}

GeneralizedRelation CrossProduct(const GeneralizedRelation& a,
                                 const GeneralizedRelation& b) {
  int arity = a.arity() + b.arity();
  std::vector<int> a_map(a.arity());
  for (int i = 0; i < a.arity(); ++i) a_map[i] = i;
  std::vector<int> b_map(b.arity());
  for (int i = 0; i < b.arity(); ++i) b_map[i] = a.arity() + i;
  GeneralizedRelation out(arity);
  if (a.is_paged() || b.is_paged()) {
    // Streaming variant: widen per candidate instead of precomputing
    // wide_a — the candidate conjunction (and so the canonical output) is
    // identical, only the resident precompute is skipped.
    InputTuples in_a(a);
    InputTuples in_b(b);
    const size_t nb = in_b.size();
    out.AddTuplesParallel(nb == 0 ? 0 : in_a.size() * nb, [&](size_t i) {
      return in_a.Get(i / nb).Reindexed(a_map, arity).Conjoin(
          in_b.Get(i % nb).Reindexed(b_map, arity));
    });
    return out;
  }
  const std::vector<GeneralizedTuple>& tb = b.tuples();
  std::vector<GeneralizedTuple> wide_a;
  wide_a.reserve(a.tuples().size());
  for (const GeneralizedTuple& ta : a.tuples()) {
    wide_a.push_back(ta.Reindexed(a_map, arity));
  }
  out.AddTuplesParallel(
      tb.empty() ? 0 : wide_a.size() * tb.size(), [&](size_t i) {
        return wide_a[i / tb.size()].Conjoin(
            tb[i % tb.size()].Reindexed(b_map, arity));
      });
  return out;
}

GeneralizedRelation EquiJoin(
    const GeneralizedRelation& a, const GeneralizedRelation& b,
    const std::vector<std::pair<int, int>>& column_pairs) {
  std::vector<DenseAtom> eq_atoms;
  eq_atoms.reserve(column_pairs.size());
  for (const auto& [left, right] : column_pairs) {
    DODB_CHECK(left >= 0 && left < a.arity());
    DODB_CHECK(right >= 0 && right < b.arity());
    eq_atoms.push_back(DenseAtom(Term::Var(left), RelOp::kEq,
                                 Term::Var(a.arity() + right)));
  }
  // Fused cross-product + equality selection: each candidate pair is widened
  // and conjoined with every join-equality atom in one step, so candidates
  // that fail the join never materialize as intermediates. Every path
  // enumerates the fused candidates in row-major order; the index only
  // removes pairs with provably disjoint joined-column bounds, keeping the
  // output bit-identical to the full product's.
  const int arity = a.arity() + b.arity();
  GeneralizedRelation out(arity);
  if (a.is_paged() || b.is_paged()) {
    // Streaming variant: same fused candidates, same paths and enumeration
    // orders as the resident code below; widening happens per candidate
    // instead of through the wide_a precompute (the conjunction is the
    // same, so canonical outputs are bit-identical).
    if (a.IsEmpty() || b.IsEmpty()) return out;
    std::vector<int> a_map(a.arity());
    for (int i = 0; i < a.arity(); ++i) a_map[i] = i;
    std::vector<int> b_map(b.arity());
    for (int i = 0; i < b.arity(); ++i) b_map[i] = a.arity() + i;
    InputTuples in_a(a);
    InputTuples in_b(b);
    auto make_candidate = [&](size_t i, size_t j) {
      GeneralizedTuple candidate = in_a.Get(i).Reindexed(a_map, arity)
                                       .Conjoin(in_b.Get(j).Reindexed(
                                           b_map, arity));
      for (const DenseAtom& atom : eq_atoms) candidate.AddAtom(atom);
      return candidate;
    };
    const size_t nb = in_b.size();
    const size_t total = in_a.size() * nb;
    EvalCounters::AddPairsConsidered(total);
    if (column_pairs.empty() || total < kIndexMinPairs) {
      out.AddTuplesParallel(total, [&](size_t k) {
        return make_candidate(k / nb, k % nb);
      });
      return out;
    }
    if (ShardedJoinApplies(a, b, total)) {
      ShardedJoinInto(&out, a, b, column_pairs, [&](size_t i, size_t j) {
        return make_candidate(i, j);
      });
      return out;
    }
    const RelationIndex& index = b.Index();
    const int probe_left = column_pairs.front().first;
    const int probe_right = column_pairs.front().second;
    const ColumnIntervalIndex* intervals = index.IntervalIndex(probe_right);
    auto probe_start = std::chrono::steady_clock::now();
    std::vector<std::pair<size_t, size_t>> pairs;
    std::vector<size_t> window;
    GuardTicker ticker(CurrentQueryGuard(), GuardSite::kAlgebraMaterialize);
    for (size_t i = 0; i < in_a.size(); ++i) {
      if (!ticker.Tick()) break;
      const TupleSignature& sa = in_a.Signature(i);
      window.clear();
      intervals->AppendCandidates(sa.columns[probe_left], &window);
      std::sort(window.begin(), window.end());
      for (size_t j : window) {
        const TupleSignature& sb = index.signature(j);
        bool compatible = true;
        for (const auto& [left, right] : column_pairs) {
          if (!BoundsMayOverlap(sa.columns[left], sb.columns[right])) {
            compatible = false;
            break;
          }
        }
        if (compatible) pairs.emplace_back(i, j);
      }
    }
    EvalCounters::AddIndexProbes(in_a.size(), ElapsedNs(probe_start));
    EvalCounters::AddPairsPruned(total - pairs.size());
    out.AddTuplesParallel(pairs.size(), [&](size_t k) {
      return make_candidate(pairs[k].first, pairs[k].second);
    });
    return out;
  }
  const std::vector<GeneralizedTuple>& ta = a.tuples();
  const std::vector<GeneralizedTuple>& tb = b.tuples();
  if (ta.empty() || tb.empty()) return out;
  std::vector<int> a_map(a.arity());
  for (int i = 0; i < a.arity(); ++i) a_map[i] = i;
  std::vector<int> b_map(b.arity());
  for (int i = 0; i < b.arity(); ++i) b_map[i] = a.arity() + i;
  std::vector<GeneralizedTuple> wide_a;
  wide_a.reserve(ta.size());
  for (const GeneralizedTuple& tuple : ta) {
    wide_a.push_back(tuple.Reindexed(a_map, arity));
  }
  auto make_candidate = [&](size_t i, size_t j) {
    GeneralizedTuple candidate =
        wide_a[i].Conjoin(tb[j].Reindexed(b_map, arity));
    for (const DenseAtom& atom : eq_atoms) candidate.AddAtom(atom);
    return candidate;
  };
  const size_t total = ta.size() * tb.size();
  EvalCounters::AddPairsConsidered(total);
  if (column_pairs.empty() || total < kIndexMinPairs) {
    out.AddTuplesParallel(total, [&](size_t k) {
      return make_candidate(k / tb.size(), k % tb.size());
    });
    return out;
  }
  if (ShardedJoinApplies(a, b, total)) {
    // Sharded path; the per-pair test spans exactly the joined column
    // pairs, as in the flat indexed path below.
    ShardedJoinInto(&out, a, b, column_pairs, [&](size_t i, size_t j) {
      return make_candidate(i, j);
    });
    return out;
  }
  // Indexed path: a pair survives only if, for every joined column pair,
  // the left column's bounds (in a) and the right column's bounds (in b)
  // can agree on a value — the join forces them equal, so disjoint bounds
  // mean an unsatisfiable candidate.
  const RelationIndex& index = b.Index();
  const int probe_left = column_pairs.front().first;
  const int probe_right = column_pairs.front().second;
  const ColumnIntervalIndex* intervals = index.IntervalIndex(probe_right);
  auto probe_start = std::chrono::steady_clock::now();
  std::vector<std::pair<size_t, size_t>> pairs;
  std::vector<size_t> window;
  GuardTicker ticker(CurrentQueryGuard(), GuardSite::kAlgebraMaterialize);
  for (size_t i = 0; i < ta.size(); ++i) {
    if (!ticker.Tick()) break;
    const TupleSignature& sa = ta[i].CachedSignature();
    window.clear();
    intervals->AppendCandidates(sa.columns[probe_left], &window);
    std::sort(window.begin(), window.end());
    for (size_t j : window) {
      const TupleSignature& sb = index.signature(j);
      bool compatible = true;
      for (const auto& [left, right] : column_pairs) {
        if (!BoundsMayOverlap(sa.columns[left], sb.columns[right])) {
          compatible = false;
          break;
        }
      }
      if (compatible) pairs.emplace_back(i, j);
    }
  }
  EvalCounters::AddIndexProbes(ta.size(), ElapsedNs(probe_start));
  EvalCounters::AddPairsPruned(total - pairs.size());
  out.AddTuplesParallel(pairs.size(), [&](size_t k) {
    return make_candidate(pairs[k].first, pairs[k].second);
  });
  return out;
}

GeneralizedRelation Select(const GeneralizedRelation& rel,
                           const DenseAtom& atom) {
  GeneralizedRelation out(rel.arity());
  if (rel.is_paged()) {
    InputTuples in(rel);
    out.AddTuplesParallel(in.size(), [&](size_t i) {
      GeneralizedTuple selected = in.Get(i);
      selected.AddAtom(atom);
      return selected;
    });
    return out;
  }
  const std::vector<GeneralizedTuple>& tuples = rel.tuples();
  out.AddTuplesParallel(tuples.size(), [&](size_t i) {
    GeneralizedTuple selected = tuples[i];
    selected.AddAtom(atom);
    return selected;
  });
  return out;
}

GeneralizedRelation Rename(const GeneralizedRelation& rel,
                           const std::vector<int>& mapping, int new_arity) {
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
    ForEachTuple(rel, [&](const GeneralizedTuple& tuple) {
      if (!ticker.Tick()) return false;
      out.AddCanonicalTuple(tuple.ReindexedCanonical(mapping, new_arity));
      return true;
    });
    return out;
  }
  if (rel.is_paged()) {
    InputTuples in(rel);
    out.AddTuplesParallel(in.size(), [&](size_t i) {
      return in.Get(i).Reindexed(mapping, new_arity);
    });
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
