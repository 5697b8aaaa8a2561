#include "uniqopt/advisor_replay.h"

#include <memory>
#include <set>

#include "common/string_util.h"
#include "uniqopt/optimizer.h"

namespace uniqopt {

namespace {

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ", ";
    out += names[i];
  }
  return out;
}

/// Clones every table definition of `db`'s catalog (registration order,
/// so foreign-key references resolve) into a fresh empty Database,
/// applying `suggestion`'s constraint to its table.
Result<std::unique_ptr<Database>> BuildShadowDatabase(
    const Database& db, const obs::AdvisorSuggestion& suggestion,
    std::string* description) {
  auto shadow = std::make_unique<Database>();
  bool target_seen = false;
  for (const std::string& name : db.catalog().TableNames()) {
    UNIQOPT_ASSIGN_OR_RETURN(const TableDef* def,
                             db.catalog().GetTable(name));
    TableDef clone = *def;
    if (EqualsIgnoreCase(clone.name(), suggestion.table)) {
      target_seen = true;
      switch (suggestion.kind) {
        case obs::MissingFactKind::kUniqueKey:
        case obs::MissingFactKind::kFunctionalDependency:
          // An FD has no SQL DDL; a candidate key over the determinant
          // is strictly stronger, hence a sound actualization.
          UNIQOPT_RETURN_NOT_OK(
              clone.AddUniqueKey(suggestion.replay_key_columns));
          *description = "UNIQUE (" +
                         JoinNames(suggestion.replay_key_columns) + ") on " +
                         clone.name();
          break;
        case obs::MissingFactKind::kNotNull: {
          std::vector<Column> columns = clone.schema().columns();
          for (const std::string& cname : suggestion.replay_key_columns) {
            UNIQOPT_ASSIGN_OR_RETURN(size_t ordinal,
                                     clone.ColumnOrdinal(cname));
            columns[ordinal].nullable = false;
          }
          clone.mutable_schema() = Schema(std::move(columns));
          *description = "NOT NULL (" +
                         JoinNames(suggestion.replay_key_columns) + ") on " +
                         clone.name();
          break;
        }
      }
    }
    UNIQOPT_RETURN_NOT_OK(shadow->CreateTable(std::move(clone)));
  }
  if (!target_seen) {
    return Status::InvalidArgument("suggested table " + suggestion.table +
                                   " no longer exists in the catalog");
  }
  return shadow;
}

std::set<std::string> AppliedRuleNames(const PreparedQuery& q) {
  std::set<std::string> names;
  for (const AppliedRewrite& r : q.rewrites) {
    names.insert(RewriteRuleIdToString(r.rule));
  }
  return names;
}

}  // namespace

std::string AdvisorReplayResult::ToText() const {
  if (outcomes.empty()) {
    return "advisor replay: no suggestions to replay\n";
  }
  std::string out;
  size_t rank = 0;
  for (const AdvisorReplayOutcome& o : outcomes) {
    out += "#" + std::to_string(++rank) + " " + o.suggestion.table + ": " +
           o.suggestion.fact + "\n";
    if (!o.applied) {
      out += "   not applied: " + o.error + "\n";
      continue;
    }
    out += "   hypothetical constraint: " + o.description + "\n";
    out += "   replayed " + std::to_string(o.queries_replayed) +
           " quer" + (o.queries_replayed == 1 ? "y" : "ies") + ", " +
           std::to_string(o.rewrites_flipped) + " rewrite(s) flipped, " +
           std::to_string(o.verifier_violations) +
           " verifier violation(s)\n";
    for (const std::string& line : o.details) {
      out += "   " + line + "\n";
    }
  }
  return out;
}

Result<AdvisorReplayResult> ReplayAdvisorSuggestions(
    Database* db, const obs::AdvisorStore& store, size_t max_suggestions,
    const RewriteOptions& rewrite_options) {
  if (db == nullptr) return Status::InvalidArgument("null database");
  AdvisorReplayResult result;
  std::vector<obs::AdvisorSuggestion> suggestions = store.Suggestions();
  if (suggestions.size() > max_suggestions) {
    suggestions.resize(max_suggestions);
  }

  // The baseline optimizer prepares against the real catalog with the
  // same settings the hypothetical side uses: verification forced on
  // and advisor publication off (replay must not count itself). Each
  // optimizer owns its plan cache, so neither side shares entries with
  // ordinary prepares.
  Optimizer baseline(db, rewrite_options);
  baseline.set_verify_plans(true);
  baseline.set_advise(false);

  for (obs::AdvisorSuggestion& suggestion : suggestions) {
    AdvisorReplayOutcome outcome;
    outcome.suggestion = suggestion;
    auto shadow =
        BuildShadowDatabase(*db, suggestion, &outcome.description);
    if (!shadow.ok()) {
      outcome.error = shadow.status().ToString();
      result.outcomes.push_back(std::move(outcome));
      continue;
    }
    outcome.applied = true;
    Optimizer hypothetical(shadow->get(), rewrite_options);
    hypothetical.set_verify_plans(true);
    hypothetical.set_advise(false);

    for (const std::string& sql : suggestion.sample_queries) {
      Result<PreparedQuery> base = baseline.Prepare(sql);
      Result<PreparedQuery> hypo = hypothetical.Prepare(sql);
      ++outcome.queries_replayed;
      if (!hypo.ok()) {
        outcome.details.push_back("[error] " + sql + ": " +
                                  hypo.status().ToString());
        continue;
      }
      outcome.verifier_violations += hypo->verification.violations.size();
      std::set<std::string> base_rules =
          base.ok() ? AppliedRuleNames(*base) : std::set<std::string>();
      std::set<std::string> hypo_rules = AppliedRuleNames(*hypo);
      std::string gained;
      for (const std::string& rule : hypo_rules) {
        if (base_rules.count(rule) == 0) {
          gained += (gained.empty() ? "" : ", ") + rule;
        }
      }
      if (!gained.empty()) {
        ++outcome.rewrites_flipped;
        outcome.details.push_back("[flip +" + gained + "] " + sql);
      } else {
        outcome.details.push_back("[no change] " + sql);
      }
    }
    result.outcomes.push_back(std::move(outcome));
  }
  return result;
}

}  // namespace uniqopt
