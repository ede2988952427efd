// Differential round trips between the two serialization formats: for
// randomized catalogs (negative rationals included, since those once broke
// the text path), text -> parse -> binary -> load -> text must be a fixed
// point, and both formats must rebuild a structurally identical database.

#include <cctype>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/text_format.h"
#include "storage/file_io.h"
#include "storage/snapshot.h"

namespace dodb {
namespace {

GeneralizedRelation RandomRelation(int arity, int tuples, int atoms,
                                   uint64_t seed) {
  std::mt19937_64 rng(seed);
  const RelOp kOps[] = {RelOp::kLt, RelOp::kLe, RelOp::kGe, RelOp::kGt,
                        RelOp::kNeq};
  GeneralizedRelation rel(arity);
  for (int t = 0; t < tuples; ++t) {
    GeneralizedTuple tuple(arity);
    for (int a = 0; a < atoms; ++a) {
      Term lhs = Term::Var(static_cast<int>(rng() % arity));
      uint64_t kind = rng() % 4;
      Term rhs =
          kind == 0
              ? Term::Const(Rational(static_cast<int64_t>(rng() % 21) - 10))
          : kind == 1
              ? Term::Const(Rational(static_cast<int64_t>(rng() % 41) - 20,
                                     1 + static_cast<int64_t>(rng() % 9)))
              : Term::Var(static_cast<int>(rng() % arity));
      tuple.AddAtom(DenseAtom(lhs, kOps[rng() % 5], rhs));
    }
    rel.AddTuple(std::move(tuple));
  }
  return rel;
}

Database RandomDatabase(uint64_t seed) {
  Database db;
  db.SetRelation("neg", RandomRelation(1, 8, 3, seed));
  db.SetRelation("pair", RandomRelation(2, 10, 5, seed + 1));
  db.SetRelation("wide", RandomRelation(4, 6, 7, seed + 2));
  db.SetRelation("empty", GeneralizedRelation(3));
  db.SetRelation("all", GeneralizedRelation::True(2));
  return db;
}

void ExpectStructurallyEqual(const Database& a, const Database& b) {
  ASSERT_EQ(a.RelationNames(), b.RelationNames());
  for (const std::string& name : a.RelationNames()) {
    EXPECT_TRUE(
        a.FindRelation(name)->StructurallyEquals(*b.FindRelation(name)))
        << "relation " << name;
  }
}

// Collapses every whitespace run to a single space, as a hostile-but-legal
// reformatting of the text form.
std::string SqueezeWhitespace(const std::string& text) {
  std::string out;
  bool in_space = false;
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      in_space = true;
      continue;
    }
    if (in_space && !out.empty()) out.push_back(' ');
    in_space = false;
    out.push_back(c);
  }
  return out;
}

// The text format prints the stored canonical atom list verbatim and
// ParseDatabase re-canonicalizes each tuple on insert, so the text form is
// a fixed point.
TEST(TextBinaryRoundTripTest, TextFormatIsAFixedPoint) {
  for (uint64_t seed : {1u, 13u, 31u, 32u, 77u, 1234u}) {
    Database db = RandomDatabase(seed);
    const std::string text = FormatDatabase(db);
    Result<Database> reparsed = ParseDatabase(text);
    ASSERT_TRUE(reparsed.ok()) << "seed " << seed << ": "
                               << reparsed.status().ToString();
    ExpectStructurallyEqual(db, reparsed.value());
    EXPECT_EQ(FormatDatabase(reparsed.value()), text) << "seed " << seed;
  }
}

TEST(TextBinaryRoundTripTest, NegativeRationalsSurviveTheTextFormat) {
  // The regression that motivated the fixed-point contract: tuples whose
  // canonical closure mentions negative and fractional constants.
  GeneralizedRelation rel(2);
  GeneralizedTuple a(2);
  a.AddAtom(DenseAtom(Term::Var(0), RelOp::kGe, Term::Const(Rational(-1, 2))));
  a.AddAtom(DenseAtom(Term::Var(0), RelOp::kLt, Term::Const(Rational(-1, 3))));
  a.AddAtom(DenseAtom(Term::Var(1), RelOp::kGt, Term::Var(0)));
  rel.AddTuple(std::move(a));
  GeneralizedTuple b(2);
  b.AddAtom(DenseAtom(Term::Var(1), RelOp::kLe, Term::Const(Rational(-7))));
  rel.AddTuple(std::move(b));
  Database db;
  db.SetRelation("q", std::move(rel));

  const std::string text = FormatDatabase(db);
  Result<Database> reparsed = ParseDatabase(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ExpectStructurallyEqual(db, reparsed.value());
  EXPECT_EQ(FormatDatabase(reparsed.value()), text);
}

TEST(TextBinaryRoundTripTest, ParsingIsWhitespaceInsensitive) {
  for (uint64_t seed : {5u, 42u}) {
    Database db = RandomDatabase(seed);
    const std::string text = FormatDatabase(db);
    Result<Database> squeezed = ParseDatabase(SqueezeWhitespace(text));
    ASSERT_TRUE(squeezed.ok()) << squeezed.status().ToString();
    ExpectStructurallyEqual(db, squeezed.value());
  }
}

TEST(TextBinaryRoundTripTest, TextAndBinaryAgreeOnRandomCatalogs) {
  for (uint64_t seed : {3u, 19u, 101u}) {
    Database db = RandomDatabase(seed);
    const std::string text_before = FormatDatabase(db);

    // text -> database -> snapshot -> database -> text
    Result<Database> from_text = ParseDatabase(text_before);
    ASSERT_TRUE(from_text.ok());
    const std::string path = ::testing::TempDir() + "roundtrip_" +
                             std::to_string(seed) + ".snap";
    ASSERT_TRUE(
        storage::WriteSnapshotFile(from_text.value(), path).ok());
    Result<Database> from_binary = storage::LoadSnapshotFile(path);
    ASSERT_TRUE(from_binary.ok()) << from_binary.status().ToString();
    ASSERT_TRUE(storage::RemoveFileIfExists(path).ok());

    ExpectStructurallyEqual(db, from_binary.value());
    EXPECT_EQ(FormatDatabase(from_binary.value()), text_before)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace dodb
