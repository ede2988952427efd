#include "constraints/closure_cache.h"

#include <utility>

#include "constraints/eval_counters.h"
#include "core/query_guard.h"

namespace dodb {

namespace {

thread_local ClosureCache* tls_closure_cache = nullptr;

// splitmix64 finalizer: diffuses every input bit across the word, so the two
// accumulation streams below stay independent even for structurally similar
// atom lists.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Fingerprint {
  uint64_t lo;
  uint64_t hi;
};

// A term's own word: a variable's column index or a constant's pool slot,
// tagged in the low bit. Interning is canonical (equal values share a
// slot), so distinct terms get distinct words.
uint64_t TermWord(const Term& term) {
  return term.is_var() ? static_cast<uint64_t>(term.var()) << 1
                       : (static_cast<uint64_t>(term.const_slot()) << 1) | 1;
}

// Order-sensitive 128-bit fingerprint of (arity, atom count, atom list): two
// polynomial accumulations with distinct odd multipliers over independently
// re-mixed words. Each atom folds its own words — the lhs term, then the rhs
// term with the operator — so two distinct lists always differ in some
// folded word, and each accumulation step is a bijection of the running
// value. DenseAtom::Hash is no substitute: it is a 64-bit digest that
// collides on small constants (x0 >= 5 and x0 > 2 share one), and the
// memo never compares keys.
Fingerprint FingerprintOf(const GeneralizedTuple& tuple) {
  Fingerprint fp;
  fp.lo = Mix64(static_cast<uint64_t>(tuple.arity()) << 32 |
                static_cast<uint64_t>(tuple.atoms().size()));
  fp.hi = Mix64(fp.lo ^ 0x6a09e667f3bcc909ULL);
  auto fold = [&fp](uint64_t word) {
    fp.lo = fp.lo * 0x100000001b3ULL ^ Mix64(word);
    fp.hi = fp.hi * 0xc6a4a7935bd1e995ULL ^ Mix64(word ^ 0x2545f4914f6cdd1dULL);
  };
  for (const DenseAtom& atom : tuple.atoms()) {
    fold(TermWord(atom.lhs()));
    fold(TermWord(atom.rhs()) << 3 | static_cast<uint64_t>(atom.op()));
  }
  return fp;
}

}  // namespace

std::optional<GeneralizedTuple> ClosureCache::CanonicalIfSatisfiable(
    GeneralizedTuple tuple) {
  const Fingerprint fp = FingerprintOf(tuple);
  Stripe& stripe = stripes_[fp.lo % kStripes];
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.entries.find(fp.lo);
    if (it != stripe.entries.end()) {
      for (const Entry& entry : it->second) {
        if (entry.hi == fp.hi) {
          EvalCounters::AddClosureMemoHits(1);
          return entry.canonical;
        }
      }
    }
  }
  // Miss: run the closure outside the lock (it dominates the cost), then
  // publish. A racing thread may have inserted the same key meanwhile; both
  // computed the same pure function, so keeping either entry is equivalent —
  // keep the first and drop ours.
  Entry entry;
  entry.hi = fp.hi;
  entry.canonical = tuple.CanonicalIfSatisfiable();
  std::optional<GeneralizedTuple> result = entry.canonical;
  // A query-guard trip aborts the closure sweep mid-propagation, making
  // CanonicalIfSatisfiable report nullopt for a tuple that may well be
  // satisfiable. Publishing that would poison the memo — under the Datalog
  // evaluator it outlives the failed query — so a tripped run computes
  // without writing back.
  QueryGuard* guard = CurrentQueryGuard();
  if (guard != nullptr && guard->tripped()) return result;
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    std::vector<Entry>& bucket = stripe.entries[fp.lo];
    bool present = false;
    for (const Entry& existing : bucket) {
      if (existing.hi == entry.hi) {
        present = true;
        break;
      }
    }
    if (!present) bucket.push_back(std::move(entry));
  }
  return result;
}

size_t ClosureCache::size() const {
  size_t total = 0;
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (const auto& [hash, bucket] : stripe.entries) total += bucket.size();
  }
  return total;
}

ClosureCache* CurrentClosureCache() { return tls_closure_cache; }

ClosureCacheScope::ClosureCacheScope(ClosureCache* cache)
    : prev_(tls_closure_cache) {
  tls_closure_cache = cache;
}

ClosureCacheScope::~ClosureCacheScope() { tls_closure_cache = prev_; }

}  // namespace dodb
