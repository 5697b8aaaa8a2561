// Interactive shell over the uniqopt facade: type SQL against the
// supplier database (or your own CREATE TABLE ... ), see the rewrite
// audit trail (EXPLAIN) and the results.
//
//   $ uniqopt_shell
//   uniqopt> EXPLAIN SELECT DISTINCT S.SNO FROM SUPPLIER S, PARTS P
//            WHERE S.SNO = P.SNO;
//   uniqopt> SELECT SNO FROM SUPPLIER INTERSECT SELECT SNO FROM AGENTS;
//   uniqopt> \q
//
// Commands: `EXPLAIN <query>` shows plans (with the uniqueness proof)
// without executing; `EXPLAIN ANALYZE <query>` executes with
// per-operator metering and shows the profile plus the metrics the run
// moved; `CREATE TABLE ...` extends the catalog; `\metrics` dumps the
// metrics registry; `\history` shows the query flight recorder
// (per-phase timings included); `\advisor` lists the uniqueness
// constraint advisor's near-miss suggestions (`\advisor replay [n]`
// what-if replays the top n against a hypothetical catalog, `\advisor
// clear` resets the store); `\slow [ms]` sets/queries the
// slow-query threshold; `\serve <port>` starts the HTTP observability
// endpoint (GET /metrics, /queries, /advisor, ...); `\export
// [metrics|queries|advisor|timeline] <file>` dumps the corresponding
// payload (`queries` when the kind is omitted);
// `\verify <query>` prepares the query and runs the post-optimization
// static verifier (plan lint and the equivalence prover);
// `\cache` shows the plan cache's configuration and hit/miss stats
// (`\cache clear` empties it); `\timeline [<filter>]` renders the
// windowed time-series plane (sparkline + window table per matching
// series); `\alerts` lists the regression sentinel's alerts;
// `\sentinel on|off|reset` controls the sentinel; `\tick` closes a
// window by hand (the `\serve` background ticker does it every
// second); `\inject <metric> <value> [count]` records synthetic
// histogram samples (smoke tests provoke regressions with it);
// `DROP TABLE <t>` drops a table (and the proofs leaning on its keys);
// `\set batch <rows>` sets the vectorized batch size for subsequent
// queries (0 = tuple-at-a-time; `\set` alone shows the current value);
// `\q` quits. Host variables are not supported interactively (use the
// library API).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "equiv/schema_lint.h"
#include "obs/export.h"
#include "obs/http_endpoint.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/sentinel.h"
#include "obs/timeseries.h"
#include "obs/advisor.h"
#include "txn/dml.h"
#include "txn/dml_executor.h"
#include "uniqopt/uniqopt.h"

namespace {

using namespace uniqopt;

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::printf("error: cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  std::printf("wrote %zu bytes to %s\n", content.size(), path.c_str());
  return true;
}

void PrintResult(const PreparedQuery& prepared,
                 const std::vector<Row>& rows, const ExecStats& stats) {
  const Schema& schema = prepared.optimized_plan->schema();
  std::string header;
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    if (i > 0) header += " | ";
    header += schema.column(i).QualifiedName();
  }
  std::printf("%s\n", header.c_str());
  std::printf("%s\n", std::string(header.size(), '-').c_str());
  size_t shown = 0;
  for (const Row& row : rows) {
    if (shown++ >= 25) {
      std::printf("... (%zu more rows)\n", rows.size() - 25);
      break;
    }
    std::string line;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) line += " | ";
      line += row[i].ToString();
    }
    std::printf("%s\n", line.c_str());
  }
  std::printf("(%zu rows)  [%s]\n", rows.size(), stats.ToString().c_str());
}

int Run() {
  Database db;
  if (!MakeTestSupplierDatabase(&db).ok()) return 1;
  Optimizer optimizer(&db);
  // Session physical defaults (\set batch), passed to every Execute.
  PhysicalOptions physical;
  obs::HttpEndpoint endpoint;
  obs::TimeSeriesPlane& plane = obs::TimeSeriesPlane::Global();
  obs::Sentinel& sentinel = obs::Sentinel::Global();
  // Attached once up front: with the sentinel disabled (the default)
  // each Tick hands it nothing but a no-op call.
  plane.AttachSentinel(&sentinel);
  std::printf(
      "uniqopt shell — supplier database loaded "
      "(SUPPLIER/PARTS/AGENTS).\n"
      "EXPLAIN <q> shows the rewrite trail and uniqueness proof; "
      "EXPLAIN ANALYZE <q> executes\nwith per-operator metering. "
      "\\metrics dumps counters;\n"
      "\\history shows the flight recorder; \\advisor lists constraint "
      "suggestions\n(\\advisor replay [n] what-if replays the top n; "
      "\\advisor adopt [n] turns suggestion n\ninto a real CREATE UNIQUE "
      "INDEX, validating existing rows); INSERT/UPDATE/DELETE\nrun on "
      "the transactional DML plane with key enforcement; "
      "\\slow [ms] sets the "
      "slow-query threshold;\n\\serve <port> starts the HTTP endpoint "
      "(/metrics /queries /advisor /timeseries /alerts /healthz)\n"
      "plus the 1s window ticker and the regression sentinel; \\export "
      "[metrics|queries|advisor|timeline] "
      "<file> dumps a payload;\n\\verify <q> runs the plan verifier "
      "(equivalence certificates included);\n\\schemalint audits the "
      "catalog's declared constraints for inconsistencies;\n"
      "\\cache shows the plan cache (\\cache clear empties it);\n"
      "\\timeline [<filter>] renders windowed series; \\alerts lists "
      "sentinel alerts;\n\\sentinel on|off|reset controls the sentinel; "
      "\\tick closes a window by hand;\n\\inject <metric> <value> [n] "
      "records synthetic samples;\n\\set batch <rows> sets the "
      "vectorized batch size (0 = tuple-at-a-time); \\q quits.\n");

  std::string line;
  while (true) {
    std::printf("uniqopt> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::string trimmed(StripAsciiWhitespace(line));
    if (trimmed.empty()) continue;
    if (trimmed == "\\q" || EqualsIgnoreCase(trimmed, "quit")) break;
    if (trimmed == "\\metrics") {
      std::printf("%s", obs::MetricsRegistry::Global().ToText().c_str());
      continue;
    }
    if (trimmed == "\\history") {
      std::printf("%s", obs::QueryRecorder::Global().ToText().c_str());
      continue;
    }
    if (trimmed == "\\advisor") {
      std::printf("%s", obs::AdvisorStore::Global().ToText().c_str());
      continue;
    }
    if (trimmed == "\\advisor clear") {
      obs::AdvisorStore::Global().Clear();
      std::printf("advisor store cleared\n");
      continue;
    }
    if (trimmed.rfind("\\advisor replay", 0) == 0) {
      std::string arg(StripAsciiWhitespace(
          trimmed.size() > 15 ? trimmed.substr(15) : ""));
      char* end = nullptr;
      unsigned long long n =
          arg.empty() ? 3 : std::strtoull(arg.c_str(), &end, 10);
      if (!arg.empty() && (end == nullptr || *end != '\0' || n == 0)) {
        std::printf("usage: \\advisor replay [<top-n>]\n");
        continue;
      }
      auto replay = ReplayAdvisorSuggestions(
          &db, obs::AdvisorStore::Global(), static_cast<size_t>(n));
      if (!replay.ok()) {
        std::printf("error: %s\n", replay.status().ToString().c_str());
        continue;
      }
      std::printf("%s", replay->ToText().c_str());
      continue;
    }
    if (trimmed.rfind("\\advisor adopt", 0) == 0) {
      std::string arg(StripAsciiWhitespace(
          trimmed.size() > 14 ? trimmed.substr(14) : ""));
      char* end = nullptr;
      unsigned long long n =
          arg.empty() ? 1 : std::strtoull(arg.c_str(), &end, 10);
      if (!arg.empty() && (end == nullptr || *end != '\0' || n == 0)) {
        std::printf("usage: \\advisor adopt [<suggestion-#>]\n");
        continue;
      }
      std::vector<obs::AdvisorSuggestion> suggestions =
          obs::AdvisorStore::Global().Suggestions();
      if (n > suggestions.size()) {
        std::printf("error: only %zu suggestion(s) in the advisor store\n",
                    suggestions.size());
        continue;
      }
      const obs::AdvisorSuggestion& pick = suggestions[n - 1];
      if (pick.kind == obs::MissingFactKind::kNotNull ||
          pick.replay_key_columns.empty()) {
        std::printf(
            "error: suggestion %llu (%s on %s) is not adoptable as a "
            "unique index\n",
            n, obs::MissingFactKindName(pick.kind), pick.table.c_str());
        continue;
      }
      std::string index_name = "ADV_" + pick.table;
      std::string column_list;
      for (const std::string& col : pick.replay_key_columns) {
        index_name += "_" + col;
        if (!column_list.empty()) column_list += ", ";
        column_list += col;
      }
      auto validated = db.CreateUniqueIndex(pick.table, index_name,
                                            pick.replay_key_columns);
      if (!validated.ok()) {
        std::printf("error: %s\n", validated.status().ToString().c_str());
        continue;
      }
      std::printf(
          "CREATE UNIQUE INDEX %s ON %s (%s): OK — %zu existing row(s) "
          "validated\n(suggestion stays listed until \\advisor clear; "
          "replay will now show no flips)\n",
          index_name.c_str(), pick.table.c_str(), column_list.c_str(),
          *validated);
      continue;
    }
    if (trimmed == "\\cache") {
      std::printf("%s", optimizer.plan_cache()->ToText().c_str());
      continue;
    }
    if (trimmed == "\\cache clear") {
      optimizer.plan_cache()->Clear();
      std::printf("plan cache cleared\n");
      continue;
    }
    if (trimmed == "\\slow" || trimmed.rfind("\\slow ", 0) == 0) {
      obs::QueryRecorder& recorder = obs::QueryRecorder::Global();
      if (trimmed == "\\slow") {
        uint64_t ms = recorder.slow_threshold_ns() / 1000000;
        std::printf("slow threshold: %llu ms%s\n",
                    static_cast<unsigned long long>(ms),
                    ms == 0 ? " (disabled; \\slow <ms> to set)" : "");
        for (const obs::QueryRecord& r : recorder.SlowQueries()) {
          std::printf("%s", r.ToString().c_str());
        }
        continue;
      }
      std::string arg(StripAsciiWhitespace(trimmed.substr(6)));
      char* end = nullptr;
      unsigned long long ms = std::strtoull(arg.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || arg.empty()) {
        std::printf("usage: \\slow [<milliseconds>]\n");
        continue;
      }
      recorder.SetSlowThresholdNs(static_cast<uint64_t>(ms) * 1000000);
      std::printf("slow threshold set to %llu ms\n", ms);
      continue;
    }
    if (trimmed == "\\set" || trimmed.rfind("\\set ", 0) == 0) {
      std::vector<std::string> args;
      for (const std::string& piece : Split(
               trimmed.size() > 4 ? trimmed.substr(5) : "", ' ')) {
        if (!piece.empty()) args.push_back(piece);
      }
      if (args.empty()) {
        std::printf("batch=%zu\n", physical.batch_size);
        continue;
      }
      char* end = nullptr;
      unsigned long long value =
          args.size() == 2 ? std::strtoull(args[1].c_str(), &end, 10) : 0;
      bool value_ok = args.size() == 2 && end != nullptr && *end == '\0';
      if (!value_ok || args[0] != "batch" || value > 1000000) {
        std::printf(
            "usage: \\set batch <0..1000000> (0 = tuple-at-a-time)\n");
        continue;
      }
      physical.batch_size = static_cast<size_t>(value);
      std::printf("batch=%zu\n", physical.batch_size);
      continue;
    }
    if (trimmed == "\\timeline" || trimmed.rfind("\\timeline ", 0) == 0) {
      std::string filter(StripAsciiWhitespace(
          trimmed.size() > 9 ? trimmed.substr(9) : ""));
      std::printf("%s", plane.ToText(filter).c_str());
      continue;
    }
    if (trimmed == "\\alerts") {
      std::printf("%s", sentinel.ToText().c_str());
      continue;
    }
    if (trimmed == "\\sentinel on") {
      sentinel.set_enabled(true);
      plane.set_enabled(true);
      std::printf("sentinel armed (warm-up: %llu windows per series)\n",
                  static_cast<unsigned long long>(
                      sentinel.options().warmup_windows));
      continue;
    }
    if (trimmed == "\\sentinel off") {
      sentinel.set_enabled(false);
      std::printf("sentinel off\n");
      continue;
    }
    if (trimmed == "\\sentinel reset") {
      sentinel.Reset();
      std::printf("sentinel reference tracks and alerts cleared\n");
      continue;
    }
    if (trimmed == "\\tick") {
      plane.set_enabled(true);
      plane.Tick();
      std::printf("window %llu closed\n",
                  static_cast<unsigned long long>(plane.ticks()));
      continue;
    }
    if (trimmed.rfind("\\inject ", 0) == 0) {
      std::vector<std::string> args;
      for (const std::string& piece : Split(trimmed.substr(8), ' ')) {
        if (!piece.empty()) args.push_back(piece);
      }
      char* end = nullptr;
      unsigned long long value =
          args.size() >= 2 ? std::strtoull(args[1].c_str(), &end, 10) : 0;
      bool value_ok = args.size() >= 2 && end != nullptr && *end == '\0';
      unsigned long long count = 1;
      if (value_ok && args.size() == 3) {
        count = std::strtoull(args[2].c_str(), &end, 10);
        value_ok = end != nullptr && *end == '\0' && count > 0;
      }
      if (!value_ok || args.size() > 3) {
        std::printf("usage: \\inject <metric> <value> [count]\n");
        continue;
      }
      obs::Histogram& hist =
          obs::MetricsRegistry::Global().GetHistogram(args[0]);
      for (unsigned long long i = 0; i < count; ++i) {
        hist.Record(static_cast<uint64_t>(value));
      }
      std::printf("recorded %llu sample(s) of %llu into %s\n", count,
                  value, args[0].c_str());
      continue;
    }
    if (trimmed.rfind("\\serve", 0) == 0) {
      if (endpoint.serving()) {
        std::printf("already serving on 127.0.0.1:%u\n", endpoint.port());
        continue;
      }
      std::string arg(StripAsciiWhitespace(
          trimmed.size() > 6 ? trimmed.substr(6) : ""));
      char* end = nullptr;
      unsigned long port = std::strtoul(arg.c_str(), &end, 10);
      if (arg.empty() || end == nullptr || *end != '\0' || port > 65535) {
        std::printf("usage: \\serve <port>\n");
        continue;
      }
      Status st = endpoint.Start(static_cast<uint16_t>(port));
      if (!st.ok()) {
        std::printf("error: %s\n", st.ToString().c_str());
        continue;
      }
      // Serving means live monitoring: close a window every second and
      // arm the regression sentinel over the closed windows.
      Status ticker = plane.StartTicker(1000);
      if (!ticker.ok() && ticker.code() != StatusCode::kAlreadyExists) {
        std::printf("warning: ticker not started: %s\n",
                    ticker.ToString().c_str());
      }
      sentinel.set_enabled(true);
      std::printf(
          "serving on 127.0.0.1:%u — try: curl localhost:%u/metrics\n"
          "window ticker running (1s) and sentinel armed\n",
          endpoint.port(), endpoint.port());
      continue;
    }
    if (trimmed.rfind("\\export", 0) == 0) {
      std::vector<std::string> args;
      for (const std::string& piece :
           Split(trimmed.size() > 7 ? trimmed.substr(8) : "", ' ')) {
        if (!piece.empty()) args.push_back(piece);
      }
      std::string kind = args.size() == 2 ? args[0] : "queries";
      std::string path = args.size() == 2  ? args[1]
                         : args.size() == 1 ? args[0]
                                            : "";
      if (path.empty()) {
        std::printf(
            "usage: \\export [metrics|queries|advisor|timeline] "
            "<file>\n");
        continue;
      }
      if (kind == "metrics") {
        WriteFile(path, obs::ToPrometheusText(obs::SnapshotMetrics(
                            obs::MetricsRegistry::Global())));
      } else if (kind == "queries") {
        WriteFile(path, obs::QueryRecorder::Global().ToJson());
      } else if (kind == "advisor") {
        WriteFile(path, obs::AdvisorStore::Global().ToJson());
      } else if (kind == "timeline") {
        WriteFile(path, plane.ToJson());
      } else {
        std::printf(
            "usage: \\export [metrics|queries|advisor|timeline] "
            "<file>\n");
      }
      continue;
    }
    if (trimmed.rfind("\\verify ", 0) == 0) {
      std::string sql(StripAsciiWhitespace(trimmed.substr(8)));
      if (sql.empty()) {
        std::printf("usage: \\verify <query>\n");
        continue;
      }
      auto prepared = optimizer.Prepare(sql);
      if (!prepared.ok()) {
        std::printf("error: %s\n", prepared.status().ToString().c_str());
        continue;
      }
      verify::VerifyReport report = prepared->verified
                                        ? prepared->verification
                                        : optimizer.Verify(*prepared);
      std::printf("%s", report.ToString().c_str());
      continue;
    }
    if (trimmed == "\\schemalint") {
      std::vector<equiv::SchemaLintFinding> findings =
          equiv::LintCatalog(db.catalog());
      if (findings.empty()) {
        std::printf("schema clean: no constraint inconsistencies found\n");
      } else {
        for (const equiv::SchemaLintFinding& f : findings) {
          std::printf("%s\n", f.ToString().c_str());
        }
        size_t published = equiv::PublishSchemaFindings(findings);
        std::printf("(%zu finding(s); %zu published to the advisor)\n",
                    findings.size(), published);
      }
      continue;
    }

    bool explain_only = false;
    bool explain_analyze = false;
    std::string upper = ToUpperAscii(trimmed);
    if (upper.rfind("EXPLAIN ANALYZE ", 0) == 0) {
      explain_analyze = true;
      trimmed = trimmed.substr(16);
    } else if (upper.rfind("EXPLAIN ", 0) == 0) {
      explain_only = true;
      trimmed = trimmed.substr(8);
    }
    if (upper.rfind("CREATE ", 0) == 0 || upper.rfind("DROP ", 0) == 0) {
      Status st = db.ExecuteDdl(trimmed);
      std::printf("%s\n", st.ToString().c_str());
      continue;
    }
    if (txn::IsDmlSql(trimmed)) {
      txn::DmlExecutor executor(&db);
      auto dml = executor.ExecuteSql(trimmed);
      if (!dml.ok()) {
        std::printf("error: %s\n", dml.status().ToString().c_str());
      } else {
        std::printf("%s\n", dml->ToString().c_str());
      }
      continue;
    }

    auto prepared = optimizer.Prepare(trimmed);
    if (!prepared.ok()) {
      std::printf("error: %s\n", prepared.status().ToString().c_str());
      continue;
    }
    if (!prepared->host_vars.empty()) {
      std::printf(
          "error: interactive mode cannot bind host variables (:%s)\n",
          prepared->host_vars[0].name.c_str());
      continue;
    }
    if (explain_only) {
      std::printf("%s", prepared->Explain().c_str());
      continue;
    }
    if (explain_analyze) {
      auto report = optimizer.ExplainAnalyze(*prepared, {}, physical);
      if (!report.ok()) {
        std::printf("error: %s\n", report.status().ToString().c_str());
        continue;
      }
      std::printf("%s", report->c_str());
      continue;
    }
    ExecStats stats;
    auto rows = optimizer.Execute(*prepared, {}, physical, &stats);
    if (!rows.ok()) {
      std::printf("error: %s\n", rows.status().ToString().c_str());
      continue;
    }
    PrintResult(*prepared, *rows, stats);
  }
  plane.StopTicker();
  return 0;
}

}  // namespace

int main() { return Run(); }
