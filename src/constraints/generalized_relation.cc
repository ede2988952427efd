#include "constraints/generalized_relation.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "constraints/closure_cache.h"
#include "constraints/eval_counters.h"
#include "core/check.h"
#include "core/query_guard.h"
#include "core/str_util.h"
#include "core/thread_pool.h"

namespace dodb {

namespace {

uint64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

GeneralizedRelation::GeneralizedRelation(int arity) : arity_(arity) {
  DODB_CHECK(arity >= 0);
}

const std::vector<GeneralizedTuple>& GeneralizedRelation::tuples() const {
  static const std::vector<GeneralizedTuple> kEmpty;
  return tuples_ ? *tuples_ : kEmpty;
}

std::vector<GeneralizedTuple>& GeneralizedRelation::MutableTuples() {
  if (!tuples_) {
    tuples_ = std::make_shared<std::vector<GeneralizedTuple>>();
  } else if (tuples_.use_count() > 1) {
    tuples_ = std::make_shared<std::vector<GeneralizedTuple>>(*tuples_);
  }
  return *tuples_;
}

GeneralizedRelation GeneralizedRelation::True(int arity) {
  GeneralizedRelation rel(arity);
  rel.AddTuple(GeneralizedTuple(arity));
  return rel;
}

GeneralizedRelation GeneralizedRelation::False(int arity) {
  return GeneralizedRelation(arity);
}

GeneralizedRelation GeneralizedRelation::FromPoints(
    int arity, const std::vector<std::vector<Rational>>& points) {
  GeneralizedRelation rel(arity);
  for (const std::vector<Rational>& point : points) {
    DODB_CHECK(static_cast<int>(point.size()) == arity);
    rel.AddTuple(GeneralizedTuple::Point(point));
  }
  return rel;
}

GeneralizedRelation GeneralizedRelation::FromCanonicalTuples(
    int arity, std::vector<GeneralizedTuple> tuples) {
  GeneralizedRelation rel(arity);
  if (!tuples.empty()) {
    // Loaded tuples arrive heap-backed from the decoder; pack them into one
    // arena so a freshly loaded database scans as flat as a computed one.
    for (GeneralizedTuple& tuple : tuples) rel.PlaceInArena(tuple);
    rel.tuples_ =
        std::make_shared<std::vector<GeneralizedTuple>>(std::move(tuples));
  }
  return rel;
}

void GeneralizedRelation::PlaceInArena(GeneralizedTuple& tuple) {
  if (tuple.atoms().is_arena_backed()) {
    EvalCounters::AddArenaReuseHits(1);
    return;
  }
  if (!tuple.atoms().is_heap_backed()) return;  // inline: nothing to place
  if (!arena_) arena_ = std::make_shared<AtomArena>();
  uint64_t added = tuple.PlaceAtomsIn(arena_);
  if (added != 0) EvalCounters::AddArenaBytes(added);
}

size_t GeneralizedRelation::atom_count() const {
  size_t count = 0;
  for (const GeneralizedTuple& tuple : tuples()) count += tuple.atoms().size();
  return count;
}

void GeneralizedRelation::AddTuple(GeneralizedTuple tuple) {
  DODB_CHECK_MSG(tuple.arity() == arity_, "AddTuple arity mismatch");
  EvalCounters::AddCanonicalized(1);
  // Canonicalization is a pure function of the atom list, so serving it
  // from the installed memo (when one is in scope) is bit-identical to
  // recomputing.
  if (ClosureCache* memo = CurrentClosureCache()) {
    std::optional<GeneralizedTuple> canonical =
        memo->CanonicalIfSatisfiable(std::move(tuple));
    if (canonical.has_value()) AddCanonicalTuple(std::move(*canonical));
    return;
  }
  if (!tuple.IsSatisfiable()) return;
  AddCanonicalTuple(tuple.Canonical());
}

const RelationIndex& GeneralizedRelation::Index() const {
  if (!index_) {
    auto start = std::chrono::steady_clock::now();
    index_ = std::make_shared<RelationIndex>(RelationIndex::Build(tuples()));
    EvalCounters::AddIndexBuild(ElapsedNs(start));
  }
  return *index_;
}

RelationIndex* GeneralizedRelation::MutableIndex() {
  if (index_ && index_.use_count() == 1) return index_.get();
  auto start = std::chrono::steady_clock::now();
  if (index_) {
    // Unshare a snapshot another copy of the relation still holds.
    index_ = std::make_shared<RelationIndex>(*index_);
  } else {
    index_ = std::make_shared<RelationIndex>(RelationIndex::Build(tuples()));
  }
  EvalCounters::AddIndexBuild(ElapsedNs(start));
  return index_.get();
}

void GeneralizedRelation::AddCanonicalTuple(GeneralizedTuple canonical) {
  (void)AddCanonicalTupleCaptured(std::move(canonical), nullptr);
}

bool GeneralizedRelation::AddCanonicalTupleCaptured(
    GeneralizedTuple canonical, std::vector<GeneralizedTuple>* captured) {
  DODB_CHECK_MSG(canonical.arity() == arity_, "AddTuple arity mismatch");
  RelationIndex* index = MutableIndex();
  const TupleSignature& signature = canonical.CachedSignature();
  const std::vector<GeneralizedTuple>& stored = tuples();
  // Exact duplicates are by far the common case in fixpoint loops. The hash
  // multiset rejects most non-duplicates in O(1); only a hash hit pays for
  // the binary-search confirmation against the sorted tuple vector. The
  // duplicate and subsumed cases return before MutableTuples(), so they
  // never detach a shared (copy-on-write) vector.
  size_t insert_at = stored.size();
  bool pos_valid = false;
  if (index->MayContainHash(signature.hash)) {
    auto pos = std::lower_bound(stored.begin(), stored.end(), canonical);
    insert_at = static_cast<size_t>(pos - stored.begin());
    pos_valid = true;
    if (pos != stored.end() && pos->Compare(canonical) == 0) return false;
  } else {
    EvalCounters::AddHashSkips(1);
  }
  // Subsumption in either direction needs the bounding boxes to share a
  // point, so the entailment scans can be restricted to the tuples whose
  // signature overlaps the candidate's.
  std::vector<size_t> overlap;
  auto probe_start = std::chrono::steady_clock::now();
  index->AppendOverlapCandidates(signature, &overlap);
  EvalCounters::AddIndexProbes(1, ElapsedNs(probe_start));
  size_t checks = 0;
  bool subsumed = false;
  for (size_t p : overlap) {
    ++checks;
    if (canonical.EntailsTuple(stored[p])) {
      subsumed = true;
      break;
    }
  }
  if (subsumed) {
    EvalCounters::AddSubsumptionChecks(checks);
    return false;
  }
  std::vector<GeneralizedTuple>& tuples = MutableTuples();
  bool erased = false;
  for (size_t i = overlap.size(); i-- > 0;) {
    size_t p = overlap[i];
    ++checks;
    if (tuples[p].EntailsTuple(canonical)) {
      if (captured != nullptr) captured->push_back(tuples[p]);
      tuples.erase(tuples.begin() + p);
      index->EraseAt(p);
      erased = true;
    }
  }
  EvalCounters::AddSubsumptionChecks(checks);
  if (erased || !pos_valid) {
    insert_at = static_cast<size_t>(
        std::lower_bound(tuples.begin(), tuples.end(), canonical) -
        tuples.begin());
  }
  index->InsertAt(insert_at, signature);
  PlaceInArena(canonical);
  tuples.insert(tuples.begin() + insert_at, std::move(canonical));
  return true;
}

bool GeneralizedRelation::EraseCanonicalTuple(
    const GeneralizedTuple& canonical) {
  const std::vector<GeneralizedTuple>& stored = tuples();
  auto pos = std::lower_bound(stored.begin(), stored.end(), canonical);
  if (pos == stored.end() || pos->Compare(canonical) != 0) return false;
  size_t at = static_cast<size_t>(pos - stored.begin());
  MutableIndex()->EraseAt(at);
  std::vector<GeneralizedTuple>& tuples = MutableTuples();
  tuples.erase(tuples.begin() + at);
  return true;
}

void GeneralizedRelation::AddTuplesParallel(
    size_t n, const std::function<GeneralizedTuple(size_t)>& make) {
  // Every operator that materializes candidates funnels through here, so
  // this is the guard's main in-operator coverage: the upfront checkpoint
  // accounts the whole candidate count against the work budget before any
  // canonicalization starts (a pathological cross product trips instantly),
  // the strided per-candidate checkpoints catch deadline blowups mid-phase,
  // and the merge loop enforces the byte and relation-size budgets as
  // tuples land. With no guard installed every added branch is one null
  // test; an untripped guard changes no outputs.
  QueryGuard* guard = CurrentQueryGuard();
  constexpr GuardSite kSite = GuardSite::kAlgebraMaterialize;
  if (guard != nullptr && !guard->Checkpoint(kSite, n)) return;
  if (!ShouldParallelize(n)) {
    // Bytes batch at the checkpoint stride: per-tuple accounting would put
    // an atomic (and formerly a clock read) on every insertion for a
    // budget that is approximate anyway.
    uint64_t pending_bytes = 0;
    for (size_t i = 0; i < n; ++i) {
      if (guard == nullptr) {
        AddTuple(make(i));
        continue;
      }
      if ((i & 63) == 63) {
        guard->AccountBytes(kSite, pending_bytes);
        pending_bytes = 0;
        if (!guard->Checkpoint(kSite)) return;
      }
      GeneralizedTuple candidate = make(i);
      pending_bytes += candidate.ApproxBytes();
      AddTuple(std::move(candidate));
      if (!guard->CheckRelationSize(kSite, tuple_count())) return;
    }
    if (guard != nullptr) guard->AccountBytes(kSite, pending_bytes);
    return;
  }
  // Parallel phase: satisfiability + canonicalization per candidate, each a
  // pure function of its index. Sequential phase: the same insertions, in
  // the same order, as the inline loop above. The memo pointer and the
  // guard are read on the calling thread and captured by value — worker
  // threads don't inherit the thread-local scopes. The first worker to trip
  // flips the shared flag; siblings see it at their next strided checkpoint
  // and bail without doing more closure work (their slots stay empty, which
  // is fine: a tripped run never surfaces the merged relation, only the
  // guard's Status).
  EvalCounters::AddCanonicalized(n);
  ClosureCache* memo = CurrentClosureCache();
  std::vector<std::optional<GeneralizedTuple>> prepared =
      ParallelMap<std::optional<GeneralizedTuple>>(
          n, [&make, memo, guard](size_t i) {
            QueryGuardScope guard_scope(guard);
            if (guard != nullptr) {
              if ((i & 63) == 63 && !guard->Checkpoint(kSite)) {
                return std::optional<GeneralizedTuple>();
              }
              if (guard->tripped()) return std::optional<GeneralizedTuple>();
            }
            GeneralizedTuple candidate = make(i);
            if (memo != nullptr) {
              return memo->CanonicalIfSatisfiable(std::move(candidate));
            }
            return candidate.CanonicalIfSatisfiable();
          });
  uint64_t merged = 0;
  uint64_t pending_bytes = 0;  // batched like the inline loop above
  for (std::optional<GeneralizedTuple>& candidate : prepared) {
    if (!candidate.has_value()) continue;
    if (guard == nullptr) {
      AddCanonicalTuple(std::move(*candidate));
      continue;
    }
    if ((merged++ & 63) == 63) {
      guard->AccountBytes(kSite, pending_bytes);
      pending_bytes = 0;
      if (!guard->Checkpoint(kSite)) return;
    }
    pending_bytes += candidate->ApproxBytes();
    AddCanonicalTuple(std::move(*candidate));
    if (!guard->CheckRelationSize(kSite, tuple_count())) return;
  }
  if (guard != nullptr) guard->AccountBytes(kSite, pending_bytes);
}

GeneralizedRelation GeneralizedRelation::OverlapSubset(
    const TupleSignature& probe) const {
  std::vector<size_t> positions;
  Index().AppendOverlapCandidates(probe, &positions);
  if (positions.size() == tuple_count()) return *this;
  GeneralizedRelation subset(arity_);
  if (positions.empty()) return subset;
  subset.tuples_ = std::make_shared<std::vector<GeneralizedTuple>>();
  subset.tuples_->reserve(positions.size());
  for (size_t pos : positions) subset.tuples_->push_back((*tuples_)[pos]);
  return subset;
}

bool GeneralizedRelation::Contains(const std::vector<Rational>& point) const {
  for (const GeneralizedTuple& tuple : tuples()) {
    if (tuple.Contains(point)) return true;
  }
  return false;
}

std::vector<Rational> GeneralizedRelation::Constants() const {
  std::set<Rational> seen;
  for (const GeneralizedTuple& tuple : tuples()) {
    for (const Rational& c : tuple.Constants()) seen.insert(c);
  }
  return std::vector<Rational>(seen.begin(), seen.end());
}

bool GeneralizedRelation::StructurallyEquals(
    const GeneralizedRelation& other) const {
  if (arity_ != other.arity_) return false;
  // Copies share their vector until a mutation detaches it, so identical
  // storage proves structural equality without a scan.
  if (tuples_ == other.tuples_) return true;
  const std::vector<GeneralizedTuple>& a = tuples();
  const std::vector<GeneralizedTuple>& b = other.tuples();
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].Compare(b[i]) != 0) return false;
  }
  return true;
}

std::string GeneralizedRelation::ToString(
    const std::vector<std::string>* names) const {
  if (IsEmpty()) return "{}";
  std::vector<std::string> parts;
  parts.reserve(tuple_count());
  for (const GeneralizedTuple& tuple : tuples()) {
    // Stored tuples are closure-canonical (quadratic in atoms); print the
    // minimized equivalent — ToString is for humans.
    parts.push_back(tuple.Minimized().ToString(names));
  }
  return StrCat("{ ", StrJoin(parts, " ; "), " }");
}

}  // namespace dodb
