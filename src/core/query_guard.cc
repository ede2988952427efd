#include "core/query_guard.h"

#include <utility>

#include "constraints/eval_counters.h"
#include "core/str_util.h"

namespace dodb {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

thread_local QueryGuard* tls_query_guard = nullptr;

}  // namespace

const char* GuardSiteName(GuardSite site) {
  switch (site) {
    case GuardSite::kAlgebraMaterialize:
      return "algebra-materialize";
    case GuardSite::kShardJoin:
      return "shard-join";
    case GuardSite::kClosureSweep:
      return "closure-sweep";
    case GuardSite::kQuantifierElim:
      return "quantifier-elim";
    case GuardSite::kFoStep:
      return "fo-step";
    case GuardSite::kLinearFo:
      return "linear-fo";
    case GuardSite::kCellEnumerate:
      return "cell-enumerate";
    case GuardSite::kDatalogRound:
      return "datalog-round";
    case GuardSite::kDatalogRule:
      return "datalog-rule";
    case GuardSite::kCCalcFixpoint:
      return "ccalc-fixpoint";
    case GuardSite::kSnapshotWrite:
      return "snapshot-write";
    case GuardSite::kSnapshotRename:
      return "snapshot-rename";
    case GuardSite::kWalAppend:
      return "wal-append";
    case GuardSite::kWalSync:
      return "wal-sync";
    case GuardSite::kWalReplay:
      return "wal-replay";
    case GuardSite::kViewDeltaApply:
      return "view-delta-apply";
    case GuardSite::kViewRederive:
      return "view-rederive";
    case GuardSite::kWalSyncDegrade:
      return "wal-sync-degrade";
    case GuardSite::kServerAccept:
      return "server-accept";
    case GuardSite::kServerRead:
      return "server-read";
    case GuardSite::kServerWrite:
      return "server-write";
    case GuardSite::kSessionCommit:
      return "session-commit";
    case GuardSite::kTxnBegin:
      return "txn-begin";
    case GuardSite::kTxnCommitValidate:
      return "txn-commit-validate";
    case GuardSite::kTxnWalCommit:
      return "txn-wal-commit";
  }
  return "unknown";
}

QueryGuard::QueryGuard(GuardLimits limits)
    : limits_(limits),
      has_deadline_(limits.deadline_ms != 0),
      deadline_(std::chrono::steady_clock::now() +
                std::chrono::milliseconds(limits.deadline_ms)) {}

void QueryGuard::ArmFault(GuardSite site, uint64_t nth) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fault_site_.load(kRelaxed) >= 0) return;  // first arm wins
  fault_nth_ = nth;
  // Release after fault_nth_: Checkpoint reads fault_nth_ only once its
  // acquire load has seen this site.
  fault_site_.store(static_cast<int>(site), std::memory_order_release);
}

void QueryGuard::Trip(GuardSite site, Status status) {
  DODB_CHECK_MSG(!status.ok(), "QueryGuard tripped with an OK status");
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (trip_site_ >= 0) return;  // first trip wins
    trip_status_ = std::move(status);
    trip_site_ = static_cast<int>(site);
  }
  // Release store after the status is in place: any thread that observes
  // tripped() == true via the acquire load will see the full trip record.
  tripped_.store(true, std::memory_order_release);
  EvalCounters::AddGuardTrips(1);
}

Status QueryGuard::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (trip_site_ < 0) return Status::Ok();
  return trip_status_;
}

std::string QueryGuard::trip_site_name() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (trip_site_ < 0) return "";
  return GuardSiteName(static_cast<GuardSite>(trip_site_));
}

uint64_t QueryGuard::site_checkpoints(GuardSite site) const {
  return site_counts_[static_cast<int>(site)].load(kRelaxed);
}

// The per-limit trip messages depend only on the configured limit, never on
// observed counts or thread interleaving, so every thread that loses the
// trip race would have produced the same Status the winner recorded.
bool QueryGuard::Enforce(GuardSite site, bool check_deadline) {
  if (tripped()) return false;
  if (limits_.max_work_tuples != 0 &&
      work_.load(kRelaxed) > limits_.max_work_tuples) {
    Trip(site, Status::ResourceExhausted(
                   StrCat("query exceeded its work budget of ",
                          limits_.max_work_tuples, " candidate tuples")));
    return false;
  }
  if (limits_.max_memory_bytes != 0 &&
      bytes_.load(kRelaxed) > limits_.max_memory_bytes) {
    Trip(site, Status::ResourceExhausted(
                   StrCat("query exceeded its memory budget of ",
                          limits_.max_memory_bytes, " bytes")));
    return false;
  }
  if (check_deadline && has_deadline_ &&
      std::chrono::steady_clock::now() >= deadline_) {
    Trip(site, Status::DeadlineExceeded(
                   StrCat("query exceeded its deadline of ",
                          limits_.deadline_ms, " ms")));
    return false;
  }
  return true;
}

bool QueryGuard::Checkpoint(GuardSite site, uint64_t work) {
  checkpoints_.fetch_add(1, kRelaxed);
  EvalCounters::AddGuardCheckpoints(1);
  uint64_t nth = site_counts_[static_cast<int>(site)].fetch_add(1, kRelaxed) + 1;
  if (work != 0) work_.fetch_add(work, kRelaxed);
  if (fault_site_.load(std::memory_order_acquire) ==
          static_cast<int>(site) &&
      nth == fault_nth_) {
    Trip(site, Status::ResourceExhausted(
                   StrCat("injected fault at checkpoint site '",
                          GuardSiteName(site), "' #", fault_nth_)));
    return false;
  }
  return Enforce(site, /*check_deadline=*/true);
}

bool QueryGuard::AccountWork(GuardSite site, uint64_t work) {
  if (work != 0) work_.fetch_add(work, kRelaxed);
  return Enforce(site, /*check_deadline=*/false);
}

bool QueryGuard::AccountBytes(GuardSite site, uint64_t bytes) {
  if (bytes != 0) bytes_.fetch_add(bytes, kRelaxed);
  return Enforce(site, /*check_deadline=*/false);
}

bool QueryGuard::CheckRelationSize(GuardSite site, uint64_t tuples) {
  if (tripped()) return false;
  if (limits_.max_rel_tuples != 0 && tuples > limits_.max_rel_tuples) {
    Trip(site, Status::ResourceExhausted(
                   StrCat("intermediate relation over the limit of ",
                          limits_.max_rel_tuples, " tuples")));
    return false;
  }
  return true;
}

QueryGuard* CurrentQueryGuard() { return tls_query_guard; }

QueryGuardScope::QueryGuardScope(QueryGuard* guard) : prev_(tls_query_guard) {
  tls_query_guard = guard;
}

QueryGuardScope::~QueryGuardScope() { tls_query_guard = prev_; }

}  // namespace dodb
