#include "io/commands.h"

#include <string>

#include <gtest/gtest.h>

#include "cells/cell_decomposition.h"
#include "core/str_util.h"

namespace dodb {
namespace {

TEST(CommandsTest, CreateInsertDeleteDrop) {
  Database db;
  ASSERT_TRUE(ExecuteCommand(&db, "create r(1)").ok());
  ASSERT_TRUE(db.HasRelation("r"));
  EXPECT_EQ(db.FindRelation("r")->arity(), 1);

  ASSERT_TRUE(ExecuteCommand(&db, "insert into r x0 >= 0 and x0 <= 4").ok());
  EXPECT_TRUE(db.FindRelation("r")->Contains({Rational(2)}));
  EXPECT_FALSE(db.FindRelation("r")->Contains({Rational(5)}));

  ASSERT_TRUE(ExecuteCommand(&db, "insert into r x0 = 10;").ok());
  EXPECT_TRUE(db.FindRelation("r")->Contains({Rational(10)}));

  ASSERT_TRUE(ExecuteCommand(&db, "delete from r where x0 > 3").ok());
  EXPECT_TRUE(db.FindRelation("r")->Contains({Rational(3)}));
  EXPECT_FALSE(db.FindRelation("r")->Contains({Rational(10)}));
  EXPECT_FALSE(db.FindRelation("r")->Contains({Rational(7, 2)}));

  ASSERT_TRUE(ExecuteCommand(&db, "drop r").ok());
  EXPECT_FALSE(db.HasRelation("r"));
}

TEST(CommandsTest, DeleteCarvesHoleInInfiniteRelation) {
  Database db;
  ASSERT_TRUE(ExecuteCommand(&db, "create band(2)").ok());
  ASSERT_TRUE(ExecuteCommand(&db, "insert into band x0 < x1").ok());
  ASSERT_TRUE(
      ExecuteCommand(&db, "delete from band where x0 > 0 and x1 < 1").ok());
  const GeneralizedRelation* band = db.FindRelation("band");
  EXPECT_TRUE(band->Contains({Rational(-1), Rational(5)}));
  EXPECT_FALSE(band->Contains({Rational(1, 4), Rational(1, 2)}));
  EXPECT_TRUE(band->Contains({Rational(0), Rational(1, 2)}));  // boundary
}

TEST(CommandsTest, InsertFormulaMayReferenceOtherRelations) {
  Database db;
  ASSERT_TRUE(ExecuteCommand(&db, "create src(2)").ok());
  ASSERT_TRUE(
      ExecuteCommand(&db, "insert into src x0 = 1 and x1 = 7").ok());
  ASSERT_TRUE(ExecuteCommand(&db, "create big(1)").ok());
  ASSERT_TRUE(ExecuteCommand(
                  &db, "insert into big exists y (src(x0, y) and y > 5)")
                  .ok());
  EXPECT_TRUE(db.FindRelation("big")->Contains({Rational(1)}));
  EXPECT_FALSE(db.FindRelation("big")->Contains({Rational(7)}));
}

// The disjunction's candidates include atom lists whose DenseAtom hashes
// collide; a closure memo keyed on those hashes collapses the four boxes
// into the single wrong tuple x0 < x1 and x1 <= 10.
TEST(CommandsTest, FourBoxDisjunctionEqualsOneInsertPerBox) {
  const char* kBoxes[] = {
      "x0 >= 0 and x0 <= 4 and x1 >= 0 and x1 <= 4 and x0 < x1",
      "x0 >= 3 and x0 <= 7 and x1 >= 3 and x1 <= 7 and x0 < x1",
      "x0 >= 6 and x0 <= 10 and x1 >= 6 and x1 <= 10 and x0 < x1",
      "x0 >= 9 and x0 <= 13 and x1 >= 9 and x1 <= 13 and x0 < x1",
  };
  Database db;
  ASSERT_TRUE(ExecuteCommand(&db, "create together(2)").ok());
  ASSERT_TRUE(ExecuteCommand(&db, "create apart(2)").ok());
  std::string disjunction;
  for (const char* box : kBoxes) {
    if (!disjunction.empty()) disjunction += " or ";
    disjunction += StrCat("(", box, ")");
    ASSERT_TRUE(ExecuteCommand(&db, StrCat("insert into apart ", box)).ok());
  }
  ASSERT_TRUE(
      ExecuteCommand(&db, StrCat("insert into together ", disjunction)).ok());
  Result<bool> equal = CellDecomposition::SemanticallyEqual(
      *db.FindRelation("together"), *db.FindRelation("apart"));
  ASSERT_TRUE(equal.ok()) << equal.status().ToString();
  EXPECT_TRUE(equal.value()) << db.FindRelation("together")->ToString()
                             << " vs " << db.FindRelation("apart")->ToString();
}

TEST(CommandsTest, DeleteWhereReferencesOtherRelations) {
  Database db;
  ASSERT_TRUE(ExecuteCommand(&db, "create keep(1)").ok());
  ASSERT_TRUE(ExecuteCommand(&db, "insert into keep x0 = 2").ok());
  ASSERT_TRUE(ExecuteCommand(&db, "create r(1)").ok());
  ASSERT_TRUE(ExecuteCommand(&db, "insert into r x0 >= 0 and x0 <= 4").ok());
  ASSERT_TRUE(
      ExecuteCommand(&db, "delete from r where not keep(x0)").ok());
  EXPECT_TRUE(db.FindRelation("r")->Contains({Rational(2)}));
  EXPECT_FALSE(db.FindRelation("r")->Contains({Rational(3)}));
}

TEST(CommandsTest, Arity0BooleanRelation) {
  Database db;
  ASSERT_TRUE(ExecuteCommand(&db, "create flag(0)").ok());
  EXPECT_TRUE(db.FindRelation("flag")->IsEmpty());
  ASSERT_TRUE(ExecuteCommand(&db, "insert into flag true").ok());
  EXPECT_FALSE(db.FindRelation("flag")->IsEmpty());
}

TEST(CommandsTest, Errors) {
  Database db;
  EXPECT_EQ(ExecuteCommand(&db, "explode r").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ExecuteCommand(&db, "create r").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ExecuteCommand(&db, "create r(99)").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ExecuteCommand(&db, "drop ghost").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ExecuteCommand(&db, "insert into ghost x0 = 1").status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(ExecuteCommand(&db, "create r(1)").ok());
  EXPECT_EQ(ExecuteCommand(&db, "create r(1)").status().code(),
            StatusCode::kInvalidArgument);  // duplicate
  EXPECT_EQ(ExecuteCommand(&db, "insert into r x0 <").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ExecuteCommand(&db, "delete from r x0 = 1").status().code(),
            StatusCode::kParseError);  // missing 'where'
  // Formula over the wrong columns.
  EXPECT_EQ(ExecuteCommand(&db, "insert into r x7 = 1").status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dodb
