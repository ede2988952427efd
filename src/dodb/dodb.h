#ifndef DODB_DODB_H_
#define DODB_DODB_H_

/// Umbrella header for the dodb dense-order constraint database engine —
/// a from-scratch implementation of the model and query languages of
/// Grumbach & Su, "Dense-Order Constraint Databases" (PODS 1995).
///
/// Layers (bottom-up):
///   core/         exact arithmetic (BigInt, Rational) and error handling
///   constraints/  generalized tuples & relations over (Q, <=), closure,
///                 satisfiability, quantifier elimination
///   linear/       FO+ substrate: linear constraints, Fourier-Motzkin
///   cells/        complete order types, semantic operations, the standard
///                 encoding, automorphisms of Q
///   algebra/      closed-form generalized relational algebra
///   fo/           FO / FO+ surface syntax, parser and evaluators
///   datalog/      inflationary & stratified Datalog(not)
///   complex/      complex constraint objects and the C-CALC calculus
///   spatial/      Figure-1 regions, intervals, region connectivity
///   io/           database catalog and text format
///   storage/      durable storage: binary snapshots, write-ahead log,
///                 crash recovery
///   server/       multi-client TCP server, wire protocol, client library
///   txn/          MVCC transactions: snapshot isolation, write-set
///                 validation, atomic commit record groups

#include "algebra/relational_ops.h"
#include "cells/cell.h"
#include "cells/cell_decomposition.h"
#include "cells/standard_encoding.h"
#include "complex/ccalc_ast.h"
#include "complex/ccalc_evaluator.h"
#include "complex/ccalc_parser.h"
#include "complex/cobject.h"
#include "complex/ctype.h"
#include "complex/range_restriction.h"
#include "constraints/closure_cache.h"
#include "constraints/dense_atom.h"
#include "constraints/dense_qe.h"
#include "constraints/eval_counters.h"
#include "constraints/generalized_relation.h"
#include "constraints/generalized_tuple.h"
#include "constraints/order_graph.h"
#include "constraints/relation_index.h"
#include "constraints/relation_shards.h"
#include "constraints/term.h"
#include "constraints/tuple_signature.h"
#include "core/bigint.h"
#include "core/fault_injection.h"
#include "core/query_guard.h"
#include "core/rational.h"
#include "core/status.h"
#include "core/str_util.h"
#include "core/thread_pool.h"
#include "datalog/datalog_ast.h"
#include "datalog/datalog_evaluator.h"
#include "datalog/datalog_parser.h"
#include "datalog/view_maintenance.h"
#include "fo/analyzer.h"
#include "fo/ast.h"
#include "fo/cell_evaluator.h"
#include "fo/evaluator.h"
#include "fo/lexer.h"
#include "fo/linear_evaluator.h"
#include "fo/parser.h"
#include "fo/rewriter.h"
#include "gaporder/gap_relation.h"
#include "gaporder/gap_system.h"
#include "io/commands.h"
#include "io/database.h"
#include "io/text_format.h"
#include "linear/linear_atom.h"
#include "linear/linear_expr.h"
#include "linear/linear_relation.h"
#include "linear/linear_system.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "spatial/connectivity.h"
#include "spatial/interval.h"
#include "spatial/polygon.h"
#include "spatial/region.h"
#include "storage/binary_format.h"
#include "storage/file_io.h"
#include "storage/snapshot.h"
#include "storage/storage_engine.h"
#include "storage/wal.h"
#include "txn/transaction_manager.h"

#endif  // DODB_DODB_H_
