// Oracles for the differential tests. The engine has one evaluation path,
// so its answers are checked against references that share none of its
// join, index, shard or memo machinery: a relation's meaning evaluated
// point by point at one witness of every cell of the decomposition over the
// constants involved — the relational representation in the proof of
// Grumbach & Su's Thm 4.4 — and CellDecomposition::SemanticallyEqual when
// the reference is itself a relation.

#ifndef DODB_TESTS_ORACLE_H_
#define DODB_TESTS_ORACLE_H_

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cells/cell.h"
#include "cells/cell_decomposition.h"
#include "constraints/generalized_relation.h"

namespace dodb {
namespace oracle {

using Point = std::vector<Rational>;
/// Membership in a reference point set.
using Member = std::function<bool(const Point&)>;

inline std::string PointString(const Point& point) {
  std::string out = "(";
  for (size_t i = 0; i < point.size(); ++i) {
    if (i > 0) out += ", ";
    out += point[i].ToString();
  }
  return out + ")";
}

/// The sorted, duplicate-free union of the relations' constants.
inline std::vector<Rational> JointScale(
    const std::vector<const GeneralizedRelation*>& relations) {
  std::vector<Rational> scale;
  for (const GeneralizedRelation* rel : relations) {
    for (const Rational& c : rel->Constants()) scale.push_back(c);
  }
  std::sort(scale.begin(), scale.end());
  scale.erase(std::unique(scale.begin(), scale.end()), scale.end());
  return scale;
}

/// Calls fn on one witness of every cell of Q^arity over `scale`, stopping
/// early when fn returns false.
inline void ForEachCellWitness(int arity, const std::vector<Rational>& scale,
                               const std::function<bool(const Point&)>& fn) {
  Cell::EnumerateCells(arity, static_cast<int>(scale.size()),
                       [&](const Cell& cell) {
                         return fn(cell.WitnessPoint(scale));
                       });
}

/// Expects `got` to hold exactly the points `member` accepts. Exact as long
/// as `inputs` lists every relation `member` reads: both sides are then
/// unions of cells over the joint scale, so one witness per cell decides.
inline void ExpectMatchesOracle(
    const GeneralizedRelation& got,
    std::vector<const GeneralizedRelation*> inputs, const Member& member,
    const std::string& context) {
  inputs.push_back(&got);
  ForEachCellWitness(got.arity(), JointScale(inputs), [&](const Point& w) {
    if (got.Contains(w) == member(w)) return true;
    ADD_FAILURE() << context << ": engine and oracle disagree at "
                  << PointString(w) << "; engine says " << got.Contains(w);
    return false;
  });
}

inline void ExpectSemanticallyEqual(const GeneralizedRelation& a,
                                    const GeneralizedRelation& b,
                                    const std::string& context) {
  Result<bool> equal = CellDecomposition::SemanticallyEqual(a, b);
  ASSERT_TRUE(equal.ok()) << context << ": " << equal.status().ToString();
  EXPECT_TRUE(equal.value()) << context;
}

// The set-theoretic definitions of the algebra operators.

inline Member Intersection(const GeneralizedRelation& a,
                           const GeneralizedRelation& b) {
  return [&a, &b](const Point& w) { return a.Contains(w) && b.Contains(w); };
}

inline Member UnionOf(const GeneralizedRelation& a,
                      const GeneralizedRelation& b) {
  return [&a, &b](const Point& w) { return a.Contains(w) || b.Contains(w); };
}

inline Member DifferenceOf(const GeneralizedRelation& a,
                           const GeneralizedRelation& b) {
  return [&a, &b](const Point& w) { return a.Contains(w) && !b.Contains(w); };
}

inline Member ComplementOf(const GeneralizedRelation& a) {
  return [&a](const Point& w) { return !a.Contains(w); };
}

/// a x b restricted to w[left] = w[|a| + right] for every joined pair.
inline Member EquiJoinOf(const GeneralizedRelation& a,
                         const GeneralizedRelation& b,
                         std::vector<std::pair<int, int>> column_pairs) {
  return [&a, &b, column_pairs](const Point& w) {
    const auto split = w.begin() + a.arity();
    for (const auto& [left, right] : column_pairs) {
      if (w[left] != w[a.arity() + right]) return false;
    }
    return a.Contains(Point(w.begin(), split)) &&
           b.Contains(Point(split, w.end()));
  };
}

}  // namespace oracle
}  // namespace dodb

#endif  // DODB_TESTS_ORACLE_H_
