// Tests for the observability layer: metrics registry (counters,
// histograms, snapshots/deltas) and the EXPLAIN ANALYZE surfaces built
// on them — including the Example 10 gateway claim that the
// join→subquery rewrite halves ims.dli.gnp_calls.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "ims/translator.h"
#include "obs/metrics.h"
#include "rewrite/rewriter.h"
#include "test_util.h"
#include "uniqopt/optimizer.h"
#include "workload/supplier_schema.h"

namespace uniqopt {
namespace {

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  obs::MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      obs::Counter& c = registry.GetCounter("test.shared");
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("test.shared").value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(RegistryTest, ConcurrentLookupAndIncrementStress) {
  // Threads race on registry lookups (mutex) while spreading increments
  // over 16 counters; every increment must land.
  obs::MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kPerThread; ++i) {
        registry.GetCounter("stress." + std::to_string(i % 16)).Increment();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  uint64_t total = 0;
  for (const auto& [name, value] : registry.Counters()) total += value;
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(RegistryTest, SnapshotDeltaReportsOnlyMovedCounters) {
  obs::MetricsRegistry registry;
  registry.GetCounter("a").Increment(5);
  registry.GetCounter("b").Increment(1);
  obs::CounterSnapshot before = registry.Counters();
  registry.GetCounter("b").Increment(41);
  registry.GetCounter("c").Increment(7);
  obs::CounterSnapshot after = registry.Counters();
  obs::CounterSnapshot delta = obs::CounterDelta(before, after);
  EXPECT_EQ(delta.size(), 2u);
  EXPECT_EQ(delta.at("b"), 41u);
  EXPECT_EQ(delta.at("c"), 7u);
  std::string text = obs::CounterDeltaToText(before, after);
  EXPECT_NE(text.find("b: +41"), std::string::npos) << text;
  EXPECT_NE(text.find("c: +7"), std::string::npos) << text;
  EXPECT_EQ(text.find("a:"), std::string::npos) << text;
}

TEST(RegistryTest, ResetAllZeroesButKeepsNames) {
  obs::MetricsRegistry registry;
  registry.GetCounter("x").Increment(3);
  registry.GetHistogram("h").Record(42);
  registry.ResetAll();
  EXPECT_EQ(registry.GetCounter("x").value(), 0u);
  EXPECT_EQ(registry.GetHistogram("h").count(), 0u);
  EXPECT_EQ(registry.Counters().count("x"), 1u);
}

TEST(HistogramTest, ExactStatsAndSmallValues) {
  obs::Histogram h;
  for (uint64_t v = 0; v < 8; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.sum(), 28u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 7u);
  // Values below 2^kPrecisionBits land in unit-width buckets: exact.
  EXPECT_EQ(h.Quantile(0.0), 0u);
  EXPECT_EQ(h.Quantile(1.0), 7u);
}

TEST(HistogramTest, BucketRoundTripWithinErrorBound) {
  for (uint64_t v : {1ull, 7ull, 8ull, 100ull, 999ull, 12345ull,
                     (1ull << 20) + 3, 0xDEADBEEFull, 1ull << 50}) {
    uint64_t mid = obs::Histogram::BucketMidpoint(
        obs::Histogram::BucketIndex(v));
    double rel = v == 0 ? 0.0
                        : std::abs(static_cast<double>(mid) -
                                   static_cast<double>(v)) /
                              static_cast<double>(v);
    EXPECT_LE(rel, 0.125) << "value " << v << " midpoint " << mid;
  }
}

TEST(HistogramTest, QuantilesWithinRelativeErrorBound) {
  obs::Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), 500500u);
  struct Case {
    double q;
    double expected;
  };
  for (const auto& [q, expected] : {Case{0.5, 500.0}, Case{0.9, 900.0},
                                    Case{0.99, 990.0}}) {
    double got = static_cast<double>(h.Quantile(q));
    EXPECT_LE(std::abs(got - expected), expected * 0.125 + 1)
        << "q=" << q << " got " << got;
  }
}

TEST(HistogramTest, ConcurrentRecordsAreLossless) {
  obs::Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t * kPerThread + i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), static_cast<uint64_t>(kThreads * kPerThread - 1));
}

TEST(HistogramTest, EmptyHistogramEdgeCases) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.Quantile(q), 0u) << "q=" << q;
  }
  EXPECT_TRUE(h.CumulativeBuckets().empty());
}

TEST(HistogramTest, SingleSampleQuantiles) {
  obs::Histogram h;
  h.Record(42);
  // With one observation every quantile is that observation (values
  // below 2^kPrecisionBits octaves are bucket-exact).
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.Quantile(q), 42u) << "q=" << q;
  }
  EXPECT_EQ(h.min(), 42u);
  EXPECT_EQ(h.max(), 42u);
  ASSERT_EQ(h.CumulativeBuckets().size(), 1u);
  EXPECT_GE(h.CumulativeBuckets()[0].first, 42u);
  EXPECT_EQ(h.CumulativeBuckets()[0].second, 1u);
}

TEST(HistogramTest, ResetRestoresEmptyState) {
  obs::Histogram h;
  h.Record(7);
  h.Record(1000000);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0u);
  EXPECT_TRUE(h.CumulativeBuckets().empty());
  // And the histogram is fully usable again.
  h.Record(9);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 9u);
}

TEST(HistogramTest, ResetBumpsGenerationRecordDoesNot) {
  // The time-series plane snapshot-diffs histograms between ticks; the
  // generation counter is how it detects a Reset() straddling a window
  // (the delta would be garbage, so the window is marked invalid).
  obs::Histogram h;
  uint64_t gen0 = h.generation();
  EXPECT_EQ(gen0 % 2, 0u) << "generation must be even at rest";
  h.Record(7);
  h.Record(1000);
  EXPECT_EQ(h.generation(), gen0) << "Record must not bump generation";
  h.Reset();
  uint64_t gen1 = h.generation();
  EXPECT_GT(gen1, gen0);
  EXPECT_EQ(gen1 % 2, 0u) << "Reset must leave generation even";
  // Every Reset advances it again — two resets are distinguishable.
  h.Reset();
  EXPECT_GT(h.generation(), gen1);
}

TEST(HistogramTest, BucketUpperBoundsAreInclusiveAndOrdered) {
  // A value must never exceed its bucket's upper bound, and bounds must
  // strictly increase (they become Prometheus `le` boundaries).
  for (uint64_t v : {0ull, 1ull, 7ull, 8ull, 100ull, 12345ull,
                     (1ull << 30) + 17}) {
    size_t idx = obs::Histogram::BucketIndex(v);
    EXPECT_LE(v, obs::Histogram::BucketUpperBound(idx)) << "value " << v;
    if (idx > 0) {
      EXPECT_LT(obs::Histogram::BucketUpperBound(idx - 1),
                obs::Histogram::BucketUpperBound(idx));
    }
  }
}

TEST(RegistryTest, ResetAllIsolatesTests) {
  // The pattern tests use for isolation: move metrics, ResetAll, and
  // subsequent readings start from zero without re-registration races.
  obs::MetricsRegistry registry;
  registry.GetCounter("iso.count").Increment(5);
  registry.GetHistogram("iso.ns").Record(100);
  registry.ResetAll();
  registry.GetCounter("iso.count").Increment(1);
  EXPECT_EQ(registry.GetCounter("iso.count").value(), 1u);
  EXPECT_EQ(registry.GetHistogram("iso.ns").count(), 0u);
}

TEST(MetricNameTest, ValidatesDottedScheme) {
  EXPECT_TRUE(obs::IsValidMetricName("ims.dli.gnp_calls"));
  EXPECT_TRUE(obs::IsValidMetricName("rewrite.rule.SubqueryToJoin.fired"));
  EXPECT_TRUE(obs::IsValidMetricName("_private"));
  EXPECT_TRUE(obs::IsValidMetricName("a:b"));
  EXPECT_FALSE(obs::IsValidMetricName(""));
  EXPECT_FALSE(obs::IsValidMetricName("9starts.with.digit"));
  EXPECT_FALSE(obs::IsValidMetricName("has space"));
  EXPECT_FALSE(obs::IsValidMetricName("has-dash"));
  EXPECT_FALSE(obs::IsValidMetricName("tab\tchar"));
}

TEST(MetricNameTest, CanonicalizationMapsIllegalCharsToUnderscore) {
  EXPECT_EQ(obs::CanonicalMetricName("ims.dli.gn_calls"),
            "ims.dli.gn_calls");
  EXPECT_EQ(obs::CanonicalMetricName("has space"), "has_space");
  EXPECT_EQ(obs::CanonicalMetricName("has-dash"), "has_dash");
  EXPECT_EQ(obs::CanonicalMetricName("9lead"), "_lead");
  EXPECT_EQ(obs::CanonicalMetricName(""), "_");
}

TEST(MetricNameTest, RegistrationCanonicalizesInvalidNames) {
  obs::MetricsRegistry registry;
  registry.GetCounter("bad name-here").Increment(2);
  // The metric is stored (and exported) under the canonical name; the
  // invalid spelling resolves to the same counter.
  EXPECT_EQ(registry.Counters().count("bad_name_here"), 1u);
  EXPECT_EQ(registry.Counters().count("bad name-here"), 0u);
  registry.GetCounter("bad_name_here").Increment(1);
  EXPECT_EQ(registry.GetCounter("bad name-here").value(), 3u);
}

// The per-rule counters are the record of every rule decision, fired or
// rejected, and the time-series plane derives firing ratios from them.
// One cold prepare moves the deciding rule's counters by exactly one.
TEST(RuleCounterTest, ColdPrepareCountsEachGateDecisionOnce) {
  struct Case {
    const char* sql;
    std::string rule;
    const char* outcome;  // "fired" or "rejected"
  };
  const Case cases[] = {
      // Example 1: the key SNO is in the projection list.
      {"SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
       "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
       "RemoveRedundantDistinct", "fired"},
      // Example 2: SNAME replaces SNO; no key of SUPPLIER is covered.
      {"SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
       "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
       "RemoveRedundantDistinct", "rejected"},
      // Theorem 2: the inner key (SNO, PNO) is bound.
      {"SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS "
       "(SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = 3)",
       "SubqueryToJoin", "fired"},
  };
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  for (const Case& c : cases) {
    Optimizer optimizer(&db);  // a fresh plan cache: the prepare is cold
    obs::CounterSnapshot before = registry.Counters();
    ASSERT_OK(optimizer.Prepare(c.sql).status());
    obs::CounterSnapshot after = registry.Counters();
    auto moved = [&](const std::string& outcome) {
      const std::string name = "rewrite.rule." + c.rule + "." + outcome;
      return after[name] - before[name];
    };
    const std::string other =
        std::string(c.outcome) == "fired" ? "rejected" : "fired";
    EXPECT_EQ(moved("considered"), 1u) << c.sql;
    EXPECT_EQ(moved(c.outcome), 1u) << c.sql;
    EXPECT_EQ(moved(other), 0u) << c.sql;
  }
}

TEST(ExplainAnalyzeTest, ReportsProfileStatsAndMetricsDelta) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db);
  ASSERT_OK_AND_ASSIGN(
      PreparedQuery prepared,
      optimizer.Prepare("SELECT DISTINCT S.SNAME FROM SUPPLIER S, PARTS P "
                        "WHERE S.SNO = P.SNO"));
  ASSERT_OK_AND_ASSIGN(std::string report,
                       optimizer.ExplainAnalyze(prepared));
  EXPECT_NE(report.find("-- execution profile --"), std::string::npos)
      << report;
  EXPECT_NE(report.find("rows_in="), std::string::npos) << report;
  EXPECT_NE(report.find("-- executor stats --"), std::string::npos);
  EXPECT_NE(report.find("-- metrics delta --"), std::string::npos);
  EXPECT_NE(report.find("exec.rows_scanned: +"), std::string::npos)
      << report;
  EXPECT_NE(report.find("-- uniqueness analysis --"), std::string::npos);
  EXPECT_NE(report.find("row(s) in"), std::string::npos);
}

TEST(ExplainAnalyzeTest, PushedDownFilterHasItsOwnSlot) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  ASSERT_OK_AND_ASSIGN(std::vector<Row> red,
                       RunSql(db, "SELECT PNO FROM PARTS WHERE COLOR = 'RED'"));
  Optimizer optimizer(&db);
  // Example 1: the DISTINCT is removed, P.COLOR = 'RED' is pushed below
  // the join onto its PARTS build side, and the π left above the join is
  // emitted by the join itself.
  ASSERT_OK_AND_ASSIGN(
      PreparedQuery prepared,
      optimizer.Prepare("SELECT DISTINCT S.SNO, P.PNO, P.PNAME "
                        "FROM SUPPLIER S, PARTS P "
                        "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'"));
  ASSERT_OK_AND_ASSIGN(std::string report,
                       optimizer.ExplainAnalyze(prepared));
  const std::string profile = ProfileSection(report);
  EXPECT_NE(profile.find("\n  HashJoin  rows_in="), std::string::npos)
      << report;
  EXPECT_NE(profile.find("\n    Filter  rows_in=1000 rows_out=" +
                         std::to_string(red.size()) + " "),
            std::string::npos)
      << report;
  EXPECT_NE(profile.find("\n      TableScan  rows_in=0 rows_out=1000 "),
            std::string::npos)
      << report;
  EXPECT_EQ(profile.find("Project"), std::string::npos) << report;
}

TEST(ExplainAnalyzeTest, IndexProbesReachTheRegistry) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db);
  ASSERT_OK_AND_ASSIGN(
      PreparedQuery prepared,
      optimizer.Prepare("SELECT SNAME FROM SUPPLIER WHERE SNO = :n"));
  obs::Counter& probes =
      obs::MetricsRegistry::Global().GetCounter("exec.index_probes");
  const uint64_t before = probes.value();
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                       optimizer.Execute(prepared, {{"n", Value::Integer(3)}}));
  EXPECT_EQ(rows.size(), 1u);
  EXPECT_EQ(probes.value() - before, 1u);
  ASSERT_OK_AND_ASSIGN(
      std::string report,
      optimizer.ExplainAnalyze(prepared, {{"n", Value::Integer(4)}}));
  EXPECT_NE(report.find("exec.index_probes: +1"), std::string::npos)
      << report;
}

/// The Example 10 acceptance claim: EXPLAIN ANALYZE over the gateway
/// shows ims.dli.gnp_calls from the metrics registry, and the
/// join→subquery rewrite halves it versus the un-rewritten program.
class GatewayExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(MakeTestSupplierDatabase(&db_));
    ASSERT_OK_AND_ASSIGN(ims_, ims::BuildSupplierIms(db_));
  }

  /// Binds Example 10's SQL, optionally applies the join→subquery
  /// rewrite, translates, and runs via ExplainAnalyzeProgram.
  void RunExample10(bool rewrite_first, std::string* report,
                    ims::GatewayResult* result) {
    Binder binder(&db_.catalog());
    auto bound = binder.BindSql(
        "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S, PARTS P "
        "WHERE S.SNO = P.SNO AND P.PNO = :PARTNO");
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    PlanPtr plan = bound->plan;
    if (rewrite_first) {
      RewriteOptions opts;
      opts.join_to_subquery = true;  // navigational policy
      opts.subquery_to_join = false;
      opts.subquery_to_distinct_join = false;
      opts.join_elimination = false;
      ASSERT_OK_AND_ASSIGN(RewriteResult r, RewritePlan(plan, opts));
      ASSERT_FALSE(r.applied.empty());
      plan = r.plan;
    }
    ASSERT_OK_AND_ASSIGN(ims::DliProgram program,
                         TranslatePlan(*ims_, plan));
    std::vector<Value> params(bound->host_vars.size());
    ASSERT_OK_AND_ASSIGN(size_t slot, bound->HostVarSlot("PARTNO"));
    params[slot] = Value::Integer(4);
    *report = ims::ExplainAnalyzeProgram(*ims_, program, params, result);
  }

  Database db_;
  std::unique_ptr<ims::ImsDatabase> ims_;
};

TEST_F(GatewayExplainAnalyzeTest, JoinToSubqueryHalvesGnpCalls) {
  std::string join_report;
  ims::GatewayResult join_result;
  RunExample10(/*rewrite_first=*/false, &join_report, &join_result);

  std::string nested_report;
  ims::GatewayResult nested_result;
  RunExample10(/*rewrite_first=*/true, &nested_report, &nested_result);

  // Both reports surface the registry counter the paper's §6.1 claim is
  // about, with the per-run delta.
  EXPECT_NE(join_report.find("ims.dli.gnp_calls: +"), std::string::npos)
      << join_report;
  EXPECT_NE(nested_report.find("ims.dli.gnp_calls: +"), std::string::npos)
      << nested_report;

  // Same answer either way...
  EXPECT_TRUE(MultisetEquals(join_result.rows, nested_result.rows));
  // ...but the nested (EXISTS) program issues exactly half the GNP
  // calls: one per supplier instead of the join program's
  // match-then-fail pair.
  EXPECT_EQ(join_result.stats.gnp_calls, 2 * nested_result.stats.gnp_calls)
      << "join: " << join_result.stats.ToString()
      << "\nnested: " << nested_result.stats.ToString();
  EXPECT_NE(join_report.find("ims.dli.gnp_calls: +" +
                             std::to_string(join_result.stats.gnp_calls)),
            std::string::npos)
      << join_report;
}

TEST_F(GatewayExplainAnalyzeTest, ReportSectionsPresent) {
  std::string report;
  ims::GatewayResult result;
  RunExample10(/*rewrite_first=*/false, &report, &result);
  EXPECT_NE(report.find("-- dl/i program --"), std::string::npos) << report;
  EXPECT_NE(report.find("-- dl/i stats --"), std::string::npos);
  EXPECT_NE(report.find("-- metrics delta --"), std::string::npos);
  EXPECT_NE(report.find("-- result --"), std::string::npos);
  EXPECT_NE(report.find("ims.dli.segments_visited: +"), std::string::npos)
      << report;
}

}  // namespace
}  // namespace uniqopt
