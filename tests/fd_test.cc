#include <gtest/gtest.h>

#include "fd/attribute_set.h"
#include "fd/functional_dependency.h"

namespace uniqopt {
namespace {

TEST(AttributeSetTest, BasicOps) {
  AttributeSet s{1, 3, 200};
  EXPECT_TRUE(s.Contains(1));
  EXPECT_TRUE(s.Contains(200));
  EXPECT_FALSE(s.Contains(2));
  EXPECT_EQ(s.Count(), 3u);
  s.Remove(3);
  EXPECT_EQ(s.Count(), 2u);
  EXPECT_EQ(s.ToVector(), (std::vector<size_t>{1, 200}));
}

TEST(AttributeSetTest, SetAlgebra) {
  AttributeSet a{0, 1, 2};
  AttributeSet b{2, 3};
  EXPECT_EQ(a.Union(b).Count(), 4u);
  EXPECT_EQ(a.Intersect(b).ToVector(), (std::vector<size_t>{2}));
  EXPECT_EQ(a.Difference(b).ToVector(), (std::vector<size_t>{0, 1}));
  EXPECT_TRUE((AttributeSet{1, 2}).IsSubsetOf(a));
  EXPECT_FALSE(a.IsSubsetOf(b));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE((AttributeSet{7}).Intersects(a));
  EXPECT_TRUE(AttributeSet{}.IsSubsetOf(b));
  EXPECT_TRUE(AttributeSet{}.Empty());
}

TEST(AttributeSetTest, ShiftAndEquality) {
  AttributeSet a{0, 63, 64};
  AttributeSet shifted = a.Shifted(5);
  EXPECT_EQ(shifted.ToVector(), (std::vector<size_t>{5, 68, 69}));
  EXPECT_EQ(a, (AttributeSet{64, 63, 0}));
  EXPECT_NE(a, shifted);
  // Equality across different capacities.
  AttributeSet big{1};
  big.Add(500);
  big.Remove(500);
  EXPECT_EQ(big, AttributeSet{1});
}

TEST(AttributeSetTest, ShiftedAcrossWordBoundaries) {
  // The word-wise shift must carry bits that cross a 64-bit word edge.
  AttributeSet a{0, 1, 62, 63, 64, 127, 128};
  for (size_t offset : {1u, 63u, 64u, 65u, 100u, 128u, 129u}) {
    AttributeSet shifted = a.Shifted(offset);
    std::vector<size_t> expected;
    for (size_t member : a.ToVector()) expected.push_back(member + offset);
    EXPECT_EQ(shifted.ToVector(), expected) << "offset " << offset;
  }
  // Zero offset is the identity; shifting the empty set stays empty.
  EXPECT_EQ(a.Shifted(0), a);
  EXPECT_TRUE(AttributeSet{}.Shifted(77).Empty());
  // Count survives any shift (no bits lost or duplicated).
  EXPECT_EQ(a.Shifted(191).Count(), a.Count());
}

TEST(FdSetTest, ClosureBasics) {
  // A → B, B → C: closure({A}) = {A, B, C}.
  FdSet fds;
  fds.Add(AttributeSet{0}, AttributeSet{1});
  fds.Add(AttributeSet{1}, AttributeSet{2});
  EXPECT_EQ(fds.Closure(AttributeSet{0}), (AttributeSet{0, 1, 2}));
  EXPECT_EQ(fds.Closure(AttributeSet{1}), (AttributeSet{1, 2}));
  EXPECT_EQ(fds.Closure(AttributeSet{2}), (AttributeSet{2}));
}

TEST(FdSetTest, ClosureProperties) {
  // Closure must be extensive, monotone and idempotent.
  FdSet fds;
  fds.Add(AttributeSet{0, 1}, AttributeSet{2});
  fds.Add(AttributeSet{2}, AttributeSet{3});
  fds.AddConstant(4);
  AttributeSet x{0};
  AttributeSet y{0, 1};
  AttributeSet cx = fds.Closure(x);
  AttributeSet cy = fds.Closure(y);
  EXPECT_TRUE(x.IsSubsetOf(cx));                       // extensive
  EXPECT_TRUE(cx.IsSubsetOf(cy));                      // monotone
  EXPECT_EQ(fds.Closure(cy), cy);                      // idempotent
  EXPECT_TRUE(cx.Contains(4));  // constants are in every closure
}

TEST(FdSetTest, EquivalenceIsBidirectional) {
  FdSet fds;
  fds.AddEquivalence(0, 5);
  EXPECT_TRUE(fds.Closure(AttributeSet{0}).Contains(5));
  EXPECT_TRUE(fds.Closure(AttributeSet{5}).Contains(0));
}

TEST(FdSetTest, SuperkeyAndImplies) {
  FdSet fds;
  fds.Add(AttributeSet{0}, AttributeSet{1, 2, 3});
  AttributeSet universe = AttributeSet::AllUpTo(4);
  EXPECT_TRUE(fds.IsSuperkey(AttributeSet{0}, universe));
  EXPECT_FALSE(fds.IsSuperkey(AttributeSet{1}, universe));
  EXPECT_TRUE(fds.Implies(AttributeSet{0}, AttributeSet{2}));
  EXPECT_FALSE(fds.Implies(AttributeSet{2}, AttributeSet{0}));
}

TEST(FdSetTest, ShiftedPreservesStructure) {
  FdSet fds;
  fds.Add(AttributeSet{0}, AttributeSet{1});
  FdSet shifted = fds.Shifted(10);
  EXPECT_TRUE(shifted.Closure(AttributeSet{10}).Contains(11));
  EXPECT_FALSE(shifted.Closure(AttributeSet{0}).Contains(1));
}

TEST(FdSetTest, ProjectToRenumbersAndKeepsDependencies) {
  // Schema (A=0, B=1, C=2, D=3); FDs: A→B, B→C. Project onto {A, C}.
  FdSet fds;
  fds.Add(AttributeSet{0}, AttributeSet{1});
  fds.Add(AttributeSet{1}, AttributeSet{2});
  FdSet projected = fds.ProjectTo({0, 2});
  // In the projection, A is column 0 and C is column 1; A→C survives.
  EXPECT_TRUE(projected.Closure(AttributeSet{0}).Contains(1));
  EXPECT_FALSE(projected.Closure(AttributeSet{1}).Contains(0));
}

TEST(FdSetTest, ProjectToKeepsConstants) {
  FdSet fds;
  fds.AddConstant(2);
  FdSet projected = fds.ProjectTo({2, 3});
  EXPECT_TRUE(projected.Closure(AttributeSet{}).Contains(0));
  EXPECT_FALSE(projected.Closure(AttributeSet{}).Contains(1));
}

TEST(FdSetTest, ProjectToDropsOutOfScopeLhs) {
  // B→C with B projected away must not leak.
  FdSet fds;
  fds.Add(AttributeSet{1}, AttributeSet{2});
  FdSet projected = fds.ProjectTo({0, 2});
  EXPECT_FALSE(projected.Closure(AttributeSet{0}).Contains(1));
  EXPECT_EQ(projected.Closure(AttributeSet{0}), AttributeSet{0});
}

TEST(FdSetTest, HoldsEachDependencyOnce) {
  FdSet fds;
  fds.Add(AttributeSet{0}, AttributeSet{1});
  fds.Add(AttributeSet{0}, AttributeSet{1});
  fds.AddConstant(2);
  fds.AddConstant(2);
  EXPECT_EQ(fds.ToString(), "[{0} -> {1}; {} -> {2}]");
  fds.Append(fds);
  EXPECT_EQ(fds.ToString(), "[{0} -> {1}; {} -> {2}]");
  FdSet other;
  other.AddEquivalence(0, 1);
  fds.Append(other);
  EXPECT_EQ(fds.ToString(), "[{0} -> {1}; {} -> {2}; {1} -> {0}]");
}

TEST(FdTest, ToStringRendering) {
  FunctionalDependency fd{AttributeSet{0, 1}, AttributeSet{2}};
  EXPECT_EQ(fd.ToString(), "{0, 1} -> {2}");
  FdSet fds;
  fds.Add(fd.lhs, fd.rhs);
  EXPECT_EQ(fds.ToString(), "[{0, 1} -> {2}]");
}

}  // namespace
}  // namespace uniqopt
