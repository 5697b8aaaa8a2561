#ifndef UNIQOPT_FD_FUNCTIONAL_DEPENDENCY_H_
#define UNIQOPT_FD_FUNCTIONAL_DEPENDENCY_H_

#include <string>
#include <vector>

#include "fd/attribute_set.h"

namespace uniqopt {

/// A functional dependency `lhs → rhs` over positional attributes, with
/// the paper's null-aware semantics (Definition 1): two tuples that agree
/// on `lhs` under the null-equality operator `=!` must agree on `rhs`
/// under `=!`. An FD with empty `lhs` states that `rhs` is constant
/// across the (derived) table — the effect of a `col = literal`
/// predicate.
struct FunctionalDependency {
  AttributeSet lhs;
  AttributeSet rhs;

  std::string ToString() const {
    return lhs.ToString() + " -> " + rhs.ToString();
  }
};

/// A set of FDs supporting attribute-set closure (Armstrong's axioms) and
/// key tests. Inference rules are sound for the paper's `=!`-based FDs:
/// reflexivity, augmentation and transitivity all hold because `=!` is a
/// true equivalence relation on values (unlike the 3VL `=`). Each FD is
/// held once: adding one with the same lhs and rhs as a held FD is a
/// no-op.
class FdSet {
 public:
  FdSet() = default;

  void Add(FunctionalDependency fd) {
    if (!Contains(fd)) fds_.push_back(std::move(fd));
  }
  void Add(AttributeSet lhs, AttributeSet rhs) {
    Add(FunctionalDependency{std::move(lhs), std::move(rhs)});
  }
  /// Adds the constant-column dependency ∅ → {attr}.
  void AddConstant(size_t attr) {
    FunctionalDependency fd;
    fd.rhs.Add(attr);
    Add(std::move(fd));
  }
  /// Adds the bidirectional equivalence a ↔ b (from a = b under 3VL: both
  /// sides non-NULL and equal whenever the predicate passed).
  void AddEquivalence(size_t a, size_t b) {
    Add(AttributeSet{a}, AttributeSet{b});
    Add(AttributeSet{b}, AttributeSet{a});
  }

  const std::vector<FunctionalDependency>& fds() const { return fds_; }
  size_t size() const { return fds_.size(); }
  bool empty() const { return fds_.empty(); }

  void Append(const FdSet& other) {
    if (&other == this) return;
    for (const FunctionalDependency& fd : other.fds_) Add(fd);
  }

  /// All FDs with attributes shifted by `offset` (product re-basing).
  FdSet Shifted(size_t offset) const;

  /// Attribute-set closure of `attrs` under this FD set.
  AttributeSet Closure(const AttributeSet& attrs) const;

  /// True when Closure(attrs) ⊇ universe — i.e. `attrs` is a superkey of
  /// a table with attributes `universe`.
  bool IsSuperkey(const AttributeSet& attrs,
                  const AttributeSet& universe) const;

  /// True when lhs → rhs follows from this set.
  bool Implies(const AttributeSet& lhs, const AttributeSet& rhs) const;

  /// FD set valid for the table projected onto `kept` attributes: each
  /// kept attribute is renumbered to its position in `kept`; dependencies
  /// are derived via closures restricted to kept attributes. Complete
  /// only up to single-attribute-lhs recombination (exact projection is
  /// exponential — Klug/Darwen); always sound.
  FdSet ProjectTo(const std::vector<size_t>& kept) const;

  std::string ToString() const;

 private:
  bool Contains(const FunctionalDependency& fd) const {
    for (const FunctionalDependency& held : fds_) {
      if (held.lhs == fd.lhs && held.rhs == fd.rhs) return true;
    }
    return false;
  }

  std::vector<FunctionalDependency> fds_;
};

}  // namespace uniqopt

#endif  // UNIQOPT_FD_FUNCTIONAL_DEPENDENCY_H_
