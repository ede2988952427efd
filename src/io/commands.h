#ifndef DODB_IO_COMMANDS_H_
#define DODB_IO_COMMANDS_H_

#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "io/database.h"

namespace dodb {

namespace storage {
class StorageEngine;
struct WalRecord;
}  // namespace storage

class ViewRegistry;
struct BaseDelta;

/// Data-manipulation commands over a constraint database. Because relations
/// are (possibly infinite) pointsets, inserts and deletes take *formulas*,
/// not rows — and the formulas may reference other relations:
///
///   create parcels(2)
///   insert into parcels x0 >= 0 and x0 <= 4 and x1 >= 0 and x1 <= 2
///   insert into parcels exists y (survey(x0, x1, y) and y > 10)
///   delete from parcels where x0 > 3
///   drop parcels
///
/// Column variables are x0..x(k-1). Insert unions { (x0..) | formula } into
/// the relation; delete subtracts { (x0..) | formula } (set difference over
/// infinite sets, in closed form). Returns a one-line human summary.
Result<std::string> ExecuteCommand(Database* db, std::string_view text);

/// The relation a create/drop/insert/delete command names, split off by
/// the same grammar ExecuteCommand parses with; "" when the text does not
/// parse that far (ExecuteCommand rejects such text).
std::string CommandTarget(std::string_view text);

/// ExecuteCommand with write-ahead logging: when `engine` is non-null, the
/// logical operation is logged durably BEFORE the in-memory catalog mutates
/// (storage/storage_engine.h's discipline). A logging failure aborts the
/// command — the catalog is untouched and the error is returned, so an
/// acknowledged command is always recoverable.
Result<std::string> ExecuteCommand(Database* db, std::string_view text,
                                   storage::StorageEngine* engine);

/// ExecuteCommand with view maintenance: when `views` is non-null, DML is
/// refused on materialized-view names (and dropping a relation some view
/// reads is refused), the merge/difference captures the statement's
/// structural delta, and every dependent view is maintained incrementally
/// after the base change commits (datalog/view_maintenance.h). A
/// maintenance failure does NOT fail the DML — the base change is already
/// durable; the affected view is stale and the summary carries a warning.
Result<std::string> ExecuteCommand(Database* db, std::string_view text,
                                   storage::StorageEngine* engine,
                                   ViewRegistry* views);

/// Transactional (buffered) DML: executes one command against `workspace`
/// — a transaction's private snapshot copy — WITHOUT touching the WAL or
/// running view maintenance. Instead the statement's logical operation is
/// appended to `ops` (the write set the TransactionManager logs as one
/// atomic kTxnCommit group) and its structural view delta to `deltas`
/// (applied at commit, after the matching op lands on the authoritative
/// catalog). `ops` and `deltas` stay index-aligned: op i's delta is
/// deltas[i], empty when no registered view reads the relation. `views` is
/// consulted only for refusals (DML on a view name, dropping a relation a
/// view reads) and for the delta-tracking decision; it is not mutated.
Result<std::string> ExecuteCommandBuffered(Database* workspace,
                                           std::string_view text,
                                           ViewRegistry* views,
                                           std::vector<storage::WalRecord>* ops,
                                           std::vector<BaseDelta>* deltas);

}  // namespace dodb

#endif  // DODB_IO_COMMANDS_H_
