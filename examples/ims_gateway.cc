// IMS gateway walkthrough (§6.1, Example 10): the gateway compiles one
// SQL join into a DL/I program twice — as bound, which gives the join
// program, and after the navigational policy's join→subquery rewrite
// (Theorem 2), which gives the nested program. The nested program
// issues half the DL/I calls against the PARTS segment — and, when the
// join column is the non-sequence candidate key OEM-PNO, also stops
// scanning twins at the first match.
//
//   $ ims_gateway [num_suppliers] [parts_per_supplier]

#include <cstdio>
#include <cstdlib>
#include <optional>

#include "ims/translator.h"
#include "plan/binder.h"
#include "rewrite/rewriter.h"
#include "workload/supplier_schema.h"

namespace {

using namespace uniqopt;

struct Programs {
  ims::GatewayResult join;
  ims::GatewayResult nested;
};

/// Binds `sql` (one host variable), translates it as bound and after the
/// navigational rewrite policy, and runs both programs with the host
/// variable set to `value`. With `verbose`, prints the rewrite and both
/// compiled programs.
std::optional<Programs> CompileAndRun(const Database& db,
                                      const ims::ImsDatabase& ims_db,
                                      const char* sql, int64_t value,
                                      bool verbose) {
  Binder binder(&db.catalog());
  auto bound = binder.BindSql(sql);
  if (!bound.ok()) return std::nullopt;
  RewriteOptions opts;
  opts.join_to_subquery = true;  // the navigational-back-end policy
  opts.subquery_to_join = false;
  opts.subquery_to_distinct_join = false;
  opts.join_elimination = false;
  auto rewritten = RewritePlan(bound->plan, opts);
  if (!rewritten.ok()) return std::nullopt;
  auto join = ims::TranslatePlan(ims_db, bound->plan);
  auto nested = ims::TranslatePlan(ims_db, rewritten->plan);
  if (!join.ok() || !nested.ok()) {
    std::fprintf(stderr, "translate: %s\n",
                 (join.ok() ? nested : join).status().ToString().c_str());
    return std::nullopt;
  }
  if (verbose) {
    std::printf("query:\n  %s\n\n", sql);
    for (const AppliedRewrite& r : rewritten->applied) {
      std::printf("rewrite: %s — %s\n", RewriteRuleIdToString(r.rule),
                  r.description.c_str());
    }
    std::printf("rewritten plan:\n%s\n", rewritten->plan->ToString().c_str());
    std::printf("join program (lines 21-29):\n%s\n",
                join->ToString().c_str());
    std::printf("nested program (lines 30-35):\n%s\n\n",
                nested->ToString().c_str());
  }
  std::vector<Value> params = {Value::Integer(value)};
  return Programs{ims::RunProgram(ims_db, *join, params),
                  ims::RunProgram(ims_db, *nested, params)};
}

int Run(size_t num_suppliers, size_t parts_per_supplier) {
  Database db;
  SupplierSchemaOptions schema;
  schema.max_sno = static_cast<int64_t>(num_suppliers) + 1;
  if (!CreateSupplierSchema(&db, schema).ok()) return 1;
  SupplierDataOptions data;
  data.num_suppliers = num_suppliers;
  data.parts_per_supplier = parts_per_supplier;
  if (!PopulateSupplierDatabase(&db, data).ok()) return 1;

  auto ims_db = ims::BuildSupplierIms(db);
  if (!ims_db.ok()) {
    std::fprintf(stderr, "ims load: %s\n",
                 ims_db.status().ToString().c_str());
    return 1;
  }
  std::printf("IMS database loaded: %zu segments (Figure 2 hierarchy)\n\n",
              (*ims_db)->num_segments());

  int64_t part_no = static_cast<int64_t>(parts_per_supplier / 2 + 1);
  auto key = CompileAndRun(db, **ims_db,
                           "SELECT ALL S.* FROM SUPPLIER S, PARTS P "
                           "WHERE S.SNO = P.SNO AND P.PNO = :PARTNO",
                           part_no, /*verbose=*/true);
  if (!key.has_value()) return 1;
  std::printf("— key-qualified probe (PNO = %lld) —\n",
              static_cast<long long>(part_no));
  std::printf("  join strategy   (lines 21-29): %zu rows, %s\n",
              key->join.rows.size(), key->join.stats.ToString().c_str());
  std::printf("  nested strategy (lines 30-35): %zu rows, %s\n",
              key->nested.rows.size(), key->nested.stats.ToString().c_str());
  size_t join_parts = key->join.stats.calls_by_segment.at("PARTS");
  size_t nested_parts = key->nested.stats.calls_by_segment.at("PARTS");
  std::printf("  PARTS call reduction: %zu -> %zu (%.2fx)\n\n", join_parts,
              nested_parts,
              static_cast<double>(join_parts) /
                  static_cast<double>(nested_parts));

  // Non-sequence-field (OEM-PNO) variant. Pick an OEM value belonging
  // to a mid-chain twin so the early halt is visible.
  int64_t oem = static_cast<int64_t>((num_suppliers / 2) * parts_per_supplier +
                                     parts_per_supplier / 2);
  auto oem_run = CompileAndRun(db, **ims_db,
                               "SELECT ALL S.* FROM SUPPLIER S, PARTS P "
                               "WHERE S.SNO = P.SNO AND P.OEM_PNO = :OEM",
                               oem, /*verbose=*/false);
  if (!oem_run.has_value()) return 1;
  std::printf("— non-key probe (OEM_PNO = %lld) —\n",
              static_cast<long long>(oem));
  std::printf("  join strategy:   %zu rows, %s\n", oem_run->join.rows.size(),
              oem_run->join.stats.ToString().c_str());
  std::printf("  nested strategy: %zu rows, %s\n",
              oem_run->nested.rows.size(),
              oem_run->nested.stats.ToString().c_str());
  std::printf("  segments visited: %zu -> %zu\n",
              oem_run->join.stats.segments_visited,
              oem_run->nested.stats.segments_visited);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  size_t suppliers = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200;
  size_t parts = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 20;
  return Run(suppliers, parts);
}
