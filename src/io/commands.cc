#include "io/commands.h"

#include <cctype>
#include <vector>

#include "algebra/relational_ops.h"
#include "core/check.h"
#include "core/query_guard.h"
#include "core/str_util.h"
#include "core/thread_pool.h"
#include "datalog/view_maintenance.h"
#include "fo/evaluator.h"
#include "fo/parser.h"
#include "storage/storage_engine.h"

namespace dodb {

namespace {

// Splits off the first whitespace-delimited word.
std::string_view NextWord(std::string_view* text) {
  *text = StripWhitespace(*text);
  size_t end = 0;
  while (end < text->size() &&
         !std::isspace(static_cast<unsigned char>((*text)[end]))) {
    ++end;
  }
  std::string_view word = text->substr(0, end);
  text->remove_prefix(end);
  *text = StripWhitespace(*text);
  return word;
}

bool IsIdentifier(std::string_view word) {
  if (word.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(word[0])) && word[0] != '_') {
    return false;
  }
  for (char c : word) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  return true;
}

// A command split by the DML grammar (see ExecuteCommand): its verb, the
// relation it names, and what follows the name — the "<arity>" inside
// create's parentheses, insert's formula, delete's "where <formula>".
struct CommandParts {
  std::string_view verb;
  std::string name;
  std::string_view rest;
};

Result<CommandParts> SplitCommand(std::string_view text) {
  std::string_view rest = StripWhitespace(text);
  if (!rest.empty() && rest.back() == ';') rest.remove_suffix(1);
  CommandParts parts;
  parts.verb = NextWord(&rest);
  if (parts.verb == "create") {
    // create <name>(<arity>)
    size_t paren = rest.find('(');
    size_t close = rest.rfind(')');
    if (paren == std::string_view::npos || close == std::string_view::npos ||
        close < paren) {
      return Status::ParseError("usage: create <name>(<arity>)");
    }
    parts.name = std::string(StripWhitespace(rest.substr(0, paren)));
    parts.rest = rest.substr(paren + 1, close - paren - 1);
  } else if (parts.verb == "drop") {
    parts.name = std::string(rest);
  } else if (parts.verb == "insert") {
    // insert into <name> <formula>
    if (NextWord(&rest) != "into") {
      return Status::ParseError("usage: insert into <name> <formula>");
    }
    parts.name = std::string(NextWord(&rest));
    parts.rest = rest;
  } else if (parts.verb == "delete") {
    // delete from <name> where <formula>
    if (NextWord(&rest) != "from") {
      return Status::ParseError("usage: delete from <name> where <formula>");
    }
    parts.name = std::string(NextWord(&rest));
    parts.rest = rest;
  } else {
    return Status::ParseError(
        StrCat("unknown command '", parts.verb,
               "' (expected create/drop/insert/delete)"));
  }
  return parts;
}

// Evaluates `formula_text` over the columns x0..x(arity-1) of `db`.
Result<GeneralizedRelation> EvalCondition(const Database& db, int arity,
                                          std::string_view formula_text) {
  Result<FormulaPtr> formula = FoParser::ParseFormula(formula_text);
  if (!formula.ok()) return formula.status();
  Query query;
  for (int i = 0; i < arity; ++i) query.head.push_back(StrCat("x", i));
  query.body = std::move(formula).value();
  // The DML layer always runs at the engine-wide default, which is where
  // the DODB_THREADS override lands; per-query knobs stay internal.
  EvalOptions options;
  options.num_threads = DefaultNumThreads();
  FoEvaluator evaluator(&db, options);
  return evaluator.Evaluate(query);
}

// Where a buffered (transactional) statement's effects go instead of the
// WAL + view maintenance: the write-set op and its captured delta, kept
// index-aligned for replay at commit.
struct TxnBuffer {
  std::vector<storage::WalRecord>* ops;
  std::vector<BaseDelta>* deltas;

  void Push(storage::WalRecord op, BaseDelta delta) {
    ops->push_back(std::move(op));
    deltas->push_back(std::move(delta));
  }
};

// Runs view maintenance for a committed base change and renders the result
// as a summary suffix: empty on success (or nothing to do), a warning when
// some view's maintenance failed — the DML itself is already durable and
// applied, and the failed views are stale until refreshed.
std::string MaintainViews(ViewRegistry* views, const BaseDelta& delta,
                          Database* db) {
  if (views == nullptr ||
      (delta.inserted.empty() && delta.deleted.empty())) {
    return "";
  }
  Status status = views->ApplyDelta(delta, db);
  if (status.ok()) return "";
  return StrCat(" (warning: view maintenance failed: ", status.message(),
                "; affected views are stale until recomputed)");
}

Result<std::string> Create(Database* db, storage::StorageEngine* engine,
                           TxnBuffer* buffer, const std::string& name,
                           std::string_view arity_text) {
  if (!IsIdentifier(name)) {
    return Status::ParseError(StrCat("bad relation name '", name, "'"));
  }
  Result<Rational> arity = Rational::FromString(arity_text);
  if (!arity.ok() || !arity.value().is_integer() ||
      arity.value() < Rational(0) || arity.value() > Rational(16)) {
    return Status::ParseError("arity must be an integer in 0..16");
  }
  int k = static_cast<int>(arity.value().num().ToInt64().value());
  if (db->HasRelation(name)) {
    return Status::InvalidArgument(StrCat("relation '", name,
                                          "' already exists"));
  }
  if (buffer != nullptr) {
    storage::WalRecord op;
    op.type = storage::WalRecordType::kCreateRelation;
    op.name = name;
    op.arity = k;
    buffer->Push(std::move(op), BaseDelta{});
  } else if (engine != nullptr) {
    DODB_RETURN_IF_ERROR(engine->LogCreate(name, k));
  }
  DODB_RETURN_IF_ERROR(db->AddRelation(name, GeneralizedRelation(k)));
  return StrCat("created ", name, "/", k);
}

Result<std::string> Drop(Database* db, storage::StorageEngine* engine,
                         ViewRegistry* views, TxnBuffer* buffer,
                         const std::string& name) {
  if (!db->HasRelation(name)) {
    return Status::NotFound(StrCat("no relation '", name, "'"));
  }
  if (views != nullptr) {
    if (views->IsView(name)) {
      return Status::InvalidArgument(
          StrCat("'", name, "' is a materialized view; use \\view drop"));
    }
    if (views->DependsOn(name)) {
      return Status::InvalidArgument(
          StrCat("relation '", name,
                 "' is read by a materialized view; drop the view first"));
    }
  }
  if (buffer != nullptr) {
    storage::WalRecord op;
    op.type = storage::WalRecordType::kDropRelation;
    op.name = name;
    buffer->Push(std::move(op), BaseDelta{});
  } else if (engine != nullptr) {
    DODB_RETURN_IF_ERROR(engine->LogDrop(name));
  }
  db->RemoveRelation(name);
  return StrCat("dropped ", name);
}

Result<std::string> Insert(Database* db, storage::StorageEngine* engine,
                           ViewRegistry* views, TxnBuffer* buffer,
                           const std::string& name, std::string_view rest) {
  const GeneralizedRelation* rel = db->FindRelation(name);
  if (rel == nullptr) {
    return Status::NotFound(StrCat("no relation '", name, "'"));
  }
  if (views != nullptr && views->IsView(name)) {
    return Status::InvalidArgument(
        StrCat("'", name,
               "' is a materialized view; insert into its base relations"));
  }
  if (rest.empty()) {
    return Status::ParseError("insert needs a formula");
  }
  Result<GeneralizedRelation> addition =
      EvalCondition(*db, rel->arity(), rest);
  if (!addition.ok()) return addition.status();
  // Log the batch, not the merged result: replay re-unions it into the
  // relation's recovered state, reproducing exactly the merge below. In
  // buffered mode the same batch op joins the write set instead.
  if (buffer == nullptr && engine != nullptr) {
    DODB_RETURN_IF_ERROR(engine->LogInsert(name, addition.value()));
  }
  // The same merge algebra::Union performs (replay depends on that), but
  // capturing the statement's structural delta tuple by tuple instead of
  // diffing whole relations afterwards. Additions subsumed by stored tuples
  // contribute nothing; stored tuples displaced by a subsuming addition are
  // elided from the delta (the inserted tuple covers every derivation the
  // displaced one fed — dominated-delete elision) but poison support-mask
  // exactness, which the registry tracks via base_displaced.
  const bool track = views != nullptr && views->DependsOn(name);
  GeneralizedRelation merged = *rel;
  BaseDelta delta;
  delta.relation = name;
  {
    GuardTicker ticker(CurrentQueryGuard(), GuardSite::kAlgebraMaterialize,
                       64);
    std::vector<GeneralizedTuple> displaced;
    for (const GeneralizedTuple& tuple : addition.value().tuples()) {
      if (!ticker.Tick()) break;
      displaced.clear();
      bool inserted = merged.AddCanonicalTupleCaptured(tuple, &displaced);
      if (track && inserted) delta.inserted.push_back(tuple);
      if (!displaced.empty()) delta.base_displaced = true;
    }
  }
  size_t added = merged.tuple_count();
  db->SetRelation(name, std::move(merged));
  if (buffer != nullptr) {
    storage::WalRecord op;
    op.type = storage::WalRecordType::kInsertTuples;
    op.name = name;
    op.relation = std::move(addition).value();
    buffer->Push(std::move(op), std::move(delta));
    return StrCat("insert buffered: ", name, " now has ", added,
                  " generalized tuples (uncommitted)");
  }
  std::string warning = MaintainViews(views, delta, db);
  return StrCat("insert ok: ", name, " now has ", added,
                " generalized tuples", warning);
}

Result<std::string> Delete(Database* db, storage::StorageEngine* engine,
                           ViewRegistry* views, TxnBuffer* buffer,
                           const std::string& name, std::string_view rest) {
  const GeneralizedRelation* rel = db->FindRelation(name);
  if (rel == nullptr) {
    return Status::NotFound(StrCat("no relation '", name, "'"));
  }
  if (views != nullptr && views->IsView(name)) {
    return Status::InvalidArgument(
        StrCat("'", name,
               "' is a materialized view; delete from its base relations"));
  }
  std::string_view where = NextWord(&rest);
  if (where != "where" || rest.empty()) {
    return Status::ParseError("usage: delete from <name> where <formula>");
  }
  Result<GeneralizedRelation> removal =
      EvalCondition(*db, rel->arity(), rest);
  if (!removal.ok()) return removal.status();
  GeneralizedRelation remaining = algebra::Difference(*rel, removal.value());
  if (buffer == nullptr && engine != nullptr) {
    DODB_RETURN_IF_ERROR(engine->LogSet(name, remaining));
  }
  // A semantic delete reshapes tuples (surviving regions re-canonicalize),
  // so the statement's structural delta has both directions: old ∖ new are
  // removals the DRed pass propagates, new ∖ old are fresh canonical forms
  // the insert pipeline propagates. The pre-statement relation rides along
  // as a COW snapshot — the over-delete waves fire against it.
  const bool track = views != nullptr && views->DependsOn(name);
  BaseDelta delta;
  delta.relation = name;
  if (track) {
    GeneralizedRelation removed = StructuralTupleDifference(*rel, remaining);
    for (const GeneralizedTuple& tuple : removed.tuples()) {
      delta.deleted.push_back(tuple);
    }
    GeneralizedRelation reshaped = StructuralTupleDifference(remaining, *rel);
    for (const GeneralizedTuple& tuple : reshaped.tuples()) {
      delta.inserted.push_back(tuple);
    }
    delta.old_relation = std::make_unique<GeneralizedRelation>(*rel);
  }
  size_t left = remaining.tuple_count();
  if (buffer != nullptr) {
    storage::WalRecord op;
    op.type = storage::WalRecordType::kSetRelation;
    op.name = name;
    op.relation = remaining;
    db->SetRelation(name, std::move(remaining));
    buffer->Push(std::move(op), std::move(delta));
    return StrCat("delete buffered: ", name, " now has ", left,
                  " generalized tuples (uncommitted)");
  }
  db->SetRelation(name, std::move(remaining));
  std::string warning = MaintainViews(views, delta, db);
  return StrCat("delete ok: ", name, " now has ", left,
                " generalized tuples", warning);
}

Result<std::string> Dispatch(Database* db, std::string_view text,
                             storage::StorageEngine* engine,
                             ViewRegistry* views, TxnBuffer* buffer) {
  DODB_CHECK(db != nullptr);
  Result<CommandParts> parts = SplitCommand(text);
  if (!parts.ok()) return parts.status();
  const auto& [verb, name, rest] = parts.value();
  if (verb == "create") return Create(db, engine, buffer, name, rest);
  if (verb == "drop") return Drop(db, engine, views, buffer, name);
  if (verb == "insert") return Insert(db, engine, views, buffer, name, rest);
  return Delete(db, engine, views, buffer, name, rest);
}

}  // namespace

std::string CommandTarget(std::string_view text) {
  Result<CommandParts> parts = SplitCommand(text);
  return parts.ok() ? parts.value().name : std::string();
}

Result<std::string> ExecuteCommand(Database* db, std::string_view text) {
  return ExecuteCommand(db, text, nullptr, nullptr);
}

Result<std::string> ExecuteCommand(Database* db, std::string_view text,
                                   storage::StorageEngine* engine) {
  return ExecuteCommand(db, text, engine, nullptr);
}

Result<std::string> ExecuteCommand(Database* db, std::string_view text,
                                   storage::StorageEngine* engine,
                                   ViewRegistry* views) {
  return Dispatch(db, text, engine, views, nullptr);
}

Result<std::string> ExecuteCommandBuffered(
    Database* workspace, std::string_view text, ViewRegistry* views,
    std::vector<storage::WalRecord>* ops, std::vector<BaseDelta>* deltas) {
  DODB_CHECK(ops != nullptr && deltas != nullptr);
  TxnBuffer buffer{ops, deltas};
  return Dispatch(workspace, text, nullptr, views, &buffer);
}

}  // namespace dodb
