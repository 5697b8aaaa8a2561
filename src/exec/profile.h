#ifndef UNIQOPT_EXEC_PROFILE_H_
#define UNIQOPT_EXEC_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/operator.h"

namespace uniqopt {

/// Measured behaviour of one operator slot during a profiled execution.
struct OpProfile {
  std::string name;
  int depth = 0;           ///< nesting depth in the operator tree
  uint64_t rows_out = 0;   ///< rows this operator produced
  uint64_t next_calls = 0; ///< Next() invocations (rows_out + 1 usually)
  uint64_t time_ns = 0;    ///< wall time inside Open/Next/Close, children
                           ///< included (self time derivable from them)
};

/// Per-operator instrumentation for one execution: slots are registered
/// in preorder during lowering, so `ops[i]`'s direct children are the
/// following entries at depth + 1 (until a shallower entry).
class ExecProfile {
 public:
  /// Adds a slot at `depth`; the name is attached after lowering.
  size_t Reserve(int depth);
  void SetName(size_t slot, std::string name);

  const std::vector<OpProfile>& ops() const { return ops_; }
  OpProfile& op(size_t slot) { return ops_.at(slot); }

  /// Rows pulled by slot i from its direct children (sum of their
  /// rows_out); 0 for leaves.
  uint64_t RowsIn(size_t slot) const;
  /// Time in slot i excluding time attributed to its direct children.
  uint64_t SelfTimeNs(size_t slot) const;

  /// EXPLAIN ANALYZE rendering: one indented line per operator with
  /// rows in/out and total/self time.
  std::string ToText() const;

 private:
  std::vector<OpProfile> ops_;
};

/// Decorator that meters a wrapped operator into an ExecProfile slot.
/// Used by the lowering layer when a profile is requested; adds two
/// clock reads per Next() call, nothing when profiling is off (the
/// decorator simply isn't inserted).
class ProfileOp final : public Operator {
 public:
  ProfileOp(OperatorPtr child, ExecProfile* profile, size_t slot);

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(ExecContext* ctx, Row* row) override;
  Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) override;
  void Close() override;
  std::string name() const override { return child_->name(); }

 private:
  OperatorPtr child_;
  ExecProfile* profile_;
  size_t slot_;
};

}  // namespace uniqopt

#endif  // UNIQOPT_EXEC_PROFILE_H_
