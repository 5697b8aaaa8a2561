#include <type_traits>
#include <utility>

#include <gtest/gtest.h>

#include "storage/table.h"
#include "test_util.h"

namespace uniqopt {
namespace {

TEST(StorageTest, InsertEnforcesArityAndTypes) {
  Database db;
  ASSERT_OK(db.ExecuteDdl("CREATE TABLE T (A INTEGER, B VARCHAR(10))"));
  ASSERT_OK_AND_ASSIGN(Table * t, db.GetTable("T"));
  EXPECT_OK(t->InsertValues({Value::Integer(1), Value::String("x")}));
  // Arity mismatch.
  EXPECT_FALSE(t->InsertValues({Value::Integer(1)}).ok());
  // Type mismatch.
  Status st = t->InsertValues({Value::String("no"), Value::String("x")});
  EXPECT_EQ(st.code(), StatusCode::kTypeMismatch);
  // Numeric widening allowed.
  EXPECT_OK(t->InsertValues({Value::Double(2.5), Value::String("y")}));
}

TEST(StorageTest, NotNullEnforced) {
  Database db;
  ASSERT_OK(db.ExecuteDdl("CREATE TABLE T (A INTEGER NOT NULL)"));
  ASSERT_OK_AND_ASSIGN(Table * t, db.GetTable("T"));
  Status st = t->InsertValues({Value::Null(TypeId::kInteger)});
  EXPECT_EQ(st.code(), StatusCode::kConstraintViolation);
}

TEST(StorageTest, PrimaryKeyImpliesNotNullAndUnique) {
  Database db;
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE T (A INTEGER, B INTEGER, PRIMARY KEY (A))"));
  ASSERT_OK_AND_ASSIGN(Table * t, db.GetTable("T"));
  EXPECT_OK(t->InsertValues({Value::Integer(1), Value::Integer(1)}));
  // PRIMARY KEY columns become NOT NULL even without the clause.
  EXPECT_FALSE(
      t->InsertValues({Value::Null(TypeId::kInteger), Value::Integer(2)})
          .ok());
  // Duplicate key rejected.
  Status st = t->InsertValues({Value::Integer(1), Value::Integer(9)});
  EXPECT_EQ(st.code(), StatusCode::kConstraintViolation);
}

TEST(StorageTest, UniqueTreatsNullAsSpecialValue) {
  // §2.1: "any instance of PARTS may have only one tuple with
  // OEM-PNO = NULL" — NULL is one value under =!.
  Database db;
  ASSERT_OK(db.ExecuteDdl("CREATE TABLE T (A INTEGER, UNIQUE (A))"));
  ASSERT_OK_AND_ASSIGN(Table * t, db.GetTable("T"));
  EXPECT_OK(t->InsertValues({Value::Null(TypeId::kInteger)}));
  Status st = t->InsertValues({Value::Null(TypeId::kInteger)});
  EXPECT_EQ(st.code(), StatusCode::kConstraintViolation);
  EXPECT_OK(t->InsertValues({Value::Integer(1)}));
}

TEST(StorageTest, CompositeKeyUniqueness) {
  Database db;
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE T (A INTEGER, B INTEGER, PRIMARY KEY (A, B))"));
  ASSERT_OK_AND_ASSIGN(Table * t, db.GetTable("T"));
  EXPECT_OK(t->InsertValues({Value::Integer(1), Value::Integer(1)}));
  EXPECT_OK(t->InsertValues({Value::Integer(1), Value::Integer(2)}));
  EXPECT_OK(t->InsertValues({Value::Integer(2), Value::Integer(1)}));
  EXPECT_FALSE(
      t->InsertValues({Value::Integer(1), Value::Integer(1)}).ok());
}

TEST(StorageTest, CheckConstraintsAreTrueInterpreted) {
  Database db;
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE T (A INTEGER, CHECK (A BETWEEN 1 AND 10))"));
  ASSERT_OK_AND_ASSIGN(Table * t, db.GetTable("T"));
  EXPECT_OK(t->InsertValues({Value::Integer(5)}));
  // FALSE rejects.
  EXPECT_EQ(t->InsertValues({Value::Integer(11)}).code(),
            StatusCode::kConstraintViolation);
  // UNKNOWN (NULL) passes — SQL2 CHECK semantics (⌈·⌉, Table 2).
  EXPECT_OK(t->InsertValues({Value::Null(TypeId::kInteger)}));
}

TEST(StorageTest, ImplicationCheckFromPaper) {
  Database db;
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE S (BUDGET DOUBLE, STATUS VARCHAR(10), "
      "CHECK (BUDGET > 0 OR STATUS = 'Inactive'))"));
  ASSERT_OK_AND_ASSIGN(Table * t, db.GetTable("S"));
  EXPECT_OK(t->InsertValues({Value::Double(100.0), Value::String("Active")}));
  EXPECT_OK(t->InsertValues({Value::Double(0.0), Value::String("Inactive")}));
  EXPECT_FALSE(
      t->InsertValues({Value::Double(0.0), Value::String("Active")}).ok());
}

TEST(StorageTest, FailedInsertLeavesNoTrace) {
  // Failure injection: a row that passes the first key but violates the
  // second must not corrupt either key set.
  Database db;
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE T (A INTEGER, B INTEGER, PRIMARY KEY (A), UNIQUE (B))"));
  ASSERT_OK_AND_ASSIGN(Table * t, db.GetTable("T"));
  EXPECT_OK(t->InsertValues({Value::Integer(1), Value::Integer(10)}));
  // New A, duplicate B: rejected.
  EXPECT_FALSE(t->InsertValues({Value::Integer(2), Value::Integer(10)}).ok());
  // A=2 must still be insertable (no phantom key entry from the failed
  // attempt).
  EXPECT_OK(t->InsertValues({Value::Integer(2), Value::Integer(20)}));
  EXPECT_EQ(t->size(), 2u);
}

// Only Database changes its catalog: Catalog::DropTable called from
// outside would free a TableDef that a Table in the Database still
// points at.
static_assert(std::is_same_v<decltype(std::declval<Database&>().catalog()),
                             const Catalog&>,
              "Database::catalog() hands out its catalog read-only");

TEST(StorageTest, DatabaseCatalogLifecycle) {
  Database db;
  ASSERT_OK(db.ExecuteDdl("CREATE TABLE A (X INTEGER)"));
  EXPECT_TRUE(db.catalog().HasTable("a"));  // case-insensitive
  EXPECT_FALSE(db.ExecuteDdl("CREATE TABLE A (Y INTEGER)").ok());
  EXPECT_FALSE(db.GetTable("MISSING").ok());
  EXPECT_FALSE(db.ExecuteDdl("SELECT * FROM A").ok());
}

TEST(StorageTest, ClearResetsKeySets) {
  Database db;
  ASSERT_OK(db.ExecuteDdl("CREATE TABLE T (A INTEGER, PRIMARY KEY (A))"));
  ASSERT_OK_AND_ASSIGN(Table * t, db.GetTable("T"));
  EXPECT_OK(t->InsertValues({Value::Integer(1)}));
  t->Clear();
  EXPECT_EQ(t->size(), 0u);
  EXPECT_OK(t->InsertValues({Value::Integer(1)}));
}

}  // namespace
}  // namespace uniqopt
