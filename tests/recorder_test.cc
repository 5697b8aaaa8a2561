// Tests for the query flight recorder: ring-buffer bounds and eviction,
// slow-query tracking, plan fingerprints, the records the optimizer and
// gateway layers emit, and — the load-bearing guarantee — that a
// concurrent workload (writers optimizing queries while a reader drains
// \history) stays consistent and retains the last K queries.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/recorder.h"
#include "test_util.h"
#include "uniqopt/optimizer.h"
#include "workload/query_corpus.h"
#include "workload/supplier_schema.h"

namespace uniqopt {
namespace {

obs::QueryRecord MakeRecord(const std::string& query, uint64_t total_ns,
                            std::vector<std::string> near_misses = {}) {
  auto part = std::make_shared<obs::PreparedRecord>();
  part->source = "test";
  part->query = query;
  part->near_misses = std::move(near_misses);
  obs::QueryRecord rec;
  rec.prepared = std::move(part);
  rec.total_ns = total_ns;
  return rec;
}

TEST(RecorderTest, RetainsLastKOldestFirst) {
  obs::QueryRecorder recorder(4);
  for (int i = 1; i <= 10; ++i) {
    recorder.Record(MakeRecord("q" + std::to_string(i), 100));
  }
  EXPECT_EQ(recorder.total_recorded(), 10u);
  std::vector<obs::QueryRecord> history = recorder.History();
  ASSERT_EQ(history.size(), 4u);
  EXPECT_EQ(history[0].prepared->query, "q7");
  EXPECT_EQ(history[3].prepared->query, "q10");
  // Ids are assigned monotonically and survive eviction.
  EXPECT_EQ(history[0].id + 3, history[3].id);
}

TEST(RecorderTest, SetCapacityKeepsNewest) {
  obs::QueryRecorder recorder(8);
  for (int i = 1; i <= 6; ++i) {
    recorder.Record(MakeRecord("q" + std::to_string(i), 100));
  }
  recorder.SetCapacity(2);
  std::vector<obs::QueryRecord> history = recorder.History();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].prepared->query, "q5");
  EXPECT_EQ(history[1].prepared->query, "q6");
  // Growing again keeps the retained records and admits new ones.
  recorder.SetCapacity(4);
  recorder.Record(MakeRecord("q7", 100));
  EXPECT_EQ(recorder.History().size(), 3u);
}

TEST(RecorderTest, SlowQueriesHonorThreshold) {
  obs::QueryRecorder recorder;
  recorder.SetSlowThresholdNs(1000000);  // 1ms
  recorder.Record(MakeRecord("fast", 500));
  recorder.Record(MakeRecord("slow1", 2000000));
  recorder.Record(MakeRecord("fast2", 999999));
  recorder.Record(MakeRecord("slow2", 1000000));
  std::vector<obs::QueryRecord> slow = recorder.SlowQueries();
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].prepared->query, "slow1");
  EXPECT_EQ(slow[1].prepared->query, "slow2");
  // Threshold 0 disables slow tracking entirely.
  recorder.SetSlowThresholdNs(0);
  EXPECT_TRUE(recorder.SlowQueries().empty());
}

TEST(RecorderTest, ClearResetsHistoryNotIds) {
  obs::QueryRecorder recorder;
  recorder.Record(MakeRecord("a", 1));
  uint64_t first_id = recorder.History()[0].id;
  recorder.Clear();
  EXPECT_TRUE(recorder.History().empty());
  recorder.Record(MakeRecord("b", 1));
  EXPECT_GT(recorder.History()[0].id, first_id);
}

TEST(RecorderTest, StampsWallClockOnRecord) {
  obs::QueryRecorder recorder;
  recorder.Record(MakeRecord("auto", 1));
  obs::QueryRecord pre = MakeRecord("pre", 1);
  pre.wall_time_us = 1700000000000000;  // 2023-11-14T22:13:20Z
  recorder.Record(std::move(pre));

  std::vector<obs::QueryRecord> history = recorder.History();
  ASSERT_EQ(history.size(), 2u);
  // Un-stamped records get the current wall clock; pre-stamped records
  // keep their stamp.
  EXPECT_GT(history[0].wall_time_us, 1700000000000000u);
  EXPECT_EQ(history[1].wall_time_us, 1700000000000000u);
  // \history renders the stamp; the JSON dump carries both the raw
  // microseconds and the rendered form.
  EXPECT_NE(history[1].ToString().find("@2023-11-14T22:13:20Z"),
            std::string::npos)
      << history[1].ToString();
  std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"wall_time_us\": 1700000000000000"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"wall_time\": \"2023-11-14T22:13:20Z\""),
            std::string::npos)
      << json;
  Status valid = obs::ValidateJson(json);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

TEST(RecorderTest, StampsSteadyClockAndReturnsAssignedId) {
  obs::QueryRecorder recorder;
  uint64_t id_a = recorder.Record(MakeRecord("a", 1));
  obs::QueryRecord pre = MakeRecord("pre", 1);
  pre.steady_ns = 42;
  uint64_t id_b = recorder.Record(std::move(pre));

  // Record() returns the id it assigned — the time-series plane hands
  // this to window exemplars so alerts resolve back to \history.
  EXPECT_EQ(id_b, id_a + 1);
  std::vector<obs::QueryRecord> history = recorder.History();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].id, id_a);
  EXPECT_EQ(history[1].id, id_b);
  // Un-stamped records get the monotonic clock; pre-stamped keep theirs.
  EXPECT_GT(history[0].steady_ns, 0u);
  EXPECT_EQ(history[1].steady_ns, 42u);
  // The JSON dump carries the raw nanoseconds.
  std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"steady_ns\": 42"), std::string::npos) << json;
  Status valid = obs::ValidateJson(json);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

TEST(RecorderTest, RendersNearMissSummaries) {
  obs::QueryRecorder recorder;
  recorder.Record(MakeRecord("SELECT DISTINCT SNO FROM SUPPLIER", 1,
                             {"SUPPLIER: UNIQUE (SNO) (theorem1.distinct)"}));

  std::string text = recorder.ToText();
  EXPECT_NE(text.find("near-miss: SUPPLIER: UNIQUE (SNO)"),
            std::string::npos)
      << text;
  std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"near_misses\""), std::string::npos) << json;
  EXPECT_NE(json.find("UNIQUE (SNO)"), std::string::npos) << json;
  Status valid = obs::ValidateJson(json);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

// The records the optimizer, failures and the gateway emit, and one from a
// hand-built query. Their \history and /queries text is pinned byte for
// byte: readers parse it, so the record's layout must not move it.
std::vector<obs::QueryRecord> GoldenRecords() {
  auto optimized = std::make_shared<obs::PreparedRecord>();
  optimized->source = "optimizer";
  optimized->query =
      "SELECT DISTINCT S.SNO, P.PNO\nFROM SUPPLIER S, PARTS P WHERE S.SNAME = "
      "'x\"y'";
  optimized->plan_hash = UINT64_C(0x0123456789abcdef);
  optimized->phase_ns = {{"parse", 12345},  {"bind", 23456},
                         {"analyze", 3456}, {"rewrite", 45678},
                         {"verify", 56789}};
  optimized->rewrites = {
      {"RemoveRedundantDistinct",
       "DISTINCT removed: key {S.SNO, P.PNO} covered"},
      {"SubqueryToJoin", "EXISTS -> join on \"SNO\""}};
  optimized->proof_summary = "DISTINCT proven redundant (algorithm1)";
  optimized->verify_summary =
      "1 violation(s) (7 node(s), 1 proof(s), 0 correlation(s), equiv 1 "
      "proven / 1 unproven / 0 refuted)";
  optimized->verify_violations = 1;
  optimized->equiv_proven = 1;
  optimized->equiv_unproven = 1;
  optimized->near_misses = {"SUPPLIER: UNIQUE (SNAME) (theorem1.distinct)",
                            "PARTS: NOT NULL (OEM_PNO) (theorem2.subquery)"};
  obs::QueryRecord a;
  a.prepared = optimized;
  a.cache_hit = true;
  a.execute_ns = 678901;
  a.rows_out = 230;
  a.rows_scanned = 1100;
  a.profile_text = "HashJoin rows_out=230\n";
  a.total_ns = 12345 + 23456 + 3456 + 45678 + 56789 + 678901;
  a.wall_time_us = UINT64_C(1700000000123456);
  a.steady_ns = 987654321;

  auto failed = std::make_shared<obs::PreparedRecord>();
  failed->source = "optimizer";
  failed->query = "SELECT FROM WHERE";
  failed->phase_ns = {{"parse", 4321}};
  obs::QueryRecord b;
  b.prepared = failed;
  b.ok = false;
  b.error = "InvalidArgument: expected \"column\"";
  b.total_ns = 4321;
  b.wall_time_us = UINT64_C(1700000001000000);
  b.steady_ns = 987654999;

  auto gateway = std::make_shared<obs::PreparedRecord>();
  gateway->source = "ims.gateway";
  gateway->query = "GU SUPPLIER; GNP PARTS";
  gateway->plan_hash = 42;
  gateway->proof_summary = "GU=1 GN=0 GNP=4 segments=5";
  gateway->phase_ns = {{"run", 2500}};
  obs::QueryRecord c;
  c.prepared = gateway;
  c.rows_out = 3;
  c.total_ns = 2500;
  c.wall_time_us = UINT64_C(1700000002000000);
  c.steady_ns = 987655999;

  // A hand-built query: no prepare phases, only this run's.
  auto by_hand = std::make_shared<obs::PreparedRecord>();
  by_hand->source = "optimizer";
  by_hand->query = "SELECT SNO FROM SUPPLIER";
  by_hand->plan_hash = 7;
  obs::QueryRecord d;
  d.prepared = by_hand;
  d.execute_ns = 1500;
  d.rows_out = 100;
  d.rows_scanned = 100;
  d.total_ns = 1500;
  d.wall_time_us = UINT64_C(1700000003000000);
  d.steady_ns = 987656999;
  return {a, b, c, d};
}

TEST(RecorderTest, RenderingIsPinned) {
  obs::QueryRecorder recorder;
  for (const obs::QueryRecord& rec : GoldenRecords()) recorder.Record(rec);
  std::vector<obs::QueryRecord> history = recorder.History();
  ASSERT_EQ(history.size(), 4u);
  EXPECT_EQ(history[0].id, 1u);
  EXPECT_EQ(history[0].ToString(),
      "#1 [optimizer] ok 820us (cached) @2023-11-14T22:13:20Z  SELECT "
      "DISTINCT S.SNO, P.PNO\n"
      "FROM SUPPLIER S, PARTS P WHERE S.SNAME = 'x\"y'\n"
      "    plan_hash=0123456789abcdef rows_out=230 rows_scanned=1100\n"
      "    phases: parse=12us bind=23us analyze=3us rewrite=45us "
      "verify=56us execute=678us\n"
      "    rewrite RemoveRedundantDistinct: DISTINCT removed: key "
      "{S.SNO, P.PNO} covered\n"
      "    rewrite SubqueryToJoin: EXISTS -> join on \"SNO\"\n"
      "    analysis: DISTINCT proven redundant (algorithm1)\n"
      "    verify: 1 violation(s) (7 node(s), 1 proof(s), 0 "
      "correlation(s), equiv 1 proven / 1 unproven / 0 refuted)\n"
      "    equiv: 1 proven / 1 unproven / 0 refuted\n"
      "    near-miss: SUPPLIER: UNIQUE (SNAME) (theorem1.distinct)\n"
      "    near-miss: PARTS: NOT NULL (OEM_PNO) (theorem2.subquery)\n");
  EXPECT_EQ(recorder.ToText(),
      "#1 [optimizer] ok 820us (cached) @2023-11-14T22:13:20Z  SELECT "
      "DISTINCT S.SNO, P.PNO\n"
      "FROM SUPPLIER S, PARTS P WHERE S.SNAME = 'x\"y'\n"
      "    plan_hash=0123456789abcdef rows_out=230 rows_scanned=1100\n"
      "    phases: parse=12us bind=23us analyze=3us rewrite=45us "
      "verify=56us execute=678us\n"
      "    rewrite RemoveRedundantDistinct: DISTINCT removed: key "
      "{S.SNO, P.PNO} covered\n"
      "    rewrite SubqueryToJoin: EXISTS -> join on \"SNO\"\n"
      "    analysis: DISTINCT proven redundant (algorithm1)\n"
      "    verify: 1 violation(s) (7 node(s), 1 proof(s), 0 "
      "correlation(s), equiv 1 proven / 1 unproven / 0 refuted)\n"
      "    equiv: 1 proven / 1 unproven / 0 refuted\n"
      "    near-miss: SUPPLIER: UNIQUE (SNAME) (theorem1.distinct)\n"
      "    near-miss: PARTS: NOT NULL (OEM_PNO) (theorem2.subquery)\n"
      "#2 [optimizer] ERROR 4us @2023-11-14T22:13:21Z  SELECT FROM "
      "WHERE\n"
      "    error: InvalidArgument: expected \"column\"\n"
      "#3 [ims.gateway] ok 2us @2023-11-14T22:13:22Z  GU SUPPLIER; GNP "
      "PARTS\n"
      "    plan_hash=000000000000002a rows_out=3\n"
      "    phases: run=2us\n"
      "    rewrites: none\n"
      "    analysis: GU=1 GN=0 GNP=4 segments=5\n"
      "#4 [optimizer] ok 1us @2023-11-14T22:13:23Z  SELECT SNO FROM "
      "SUPPLIER\n"
      "    plan_hash=0000000000000007 rows_out=100 rows_scanned=100\n"
      "    phases: execute=1us\n"
      "    rewrites: none\n"
      "(4 of 4 recorded queries retained)\n");
  EXPECT_EQ(recorder.ToJson(),
      "{\"queries\": [\n"
      "  {\"id\": 1, \"source\": \"optimizer\", \"query\": \"SELECT "
      "DISTINCT S.SNO, P.PNO\\nFROM SUPPLIER S, PARTS P WHERE S.SNAME = "
      "'x\\\"y'\", \"ok\": true, \"plan_hash\": \"0123456789abcdef\", "
      "\"cache_hit\": true, \"total_ns\": 820625, \"wall_time_us\": "
      "1700000000123456, \"wall_time\": \"2023-11-14T22:13:20Z\", "
      "\"steady_ns\": 987654321, \"rows_out\": 230, \"rows_scanned\": "
      "1100, \"phases\": {\"parse\": 12345, \"bind\": 23456, "
      "\"analyze\": 3456, \"rewrite\": 45678, \"verify\": 56789, "
      "\"execute\": 678901}, \"rewrites\": [{\"rule\": "
      "\"RemoveRedundantDistinct\", \"description\": \"DISTINCT removed: "
      "key {S.SNO, P.PNO} covered\"}, {\"rule\": \"SubqueryToJoin\", "
      "\"description\": \"EXISTS -> join on \\\"SNO\\\"\"}], "
      "\"near_misses\": [\"SUPPLIER: UNIQUE (SNAME) "
      "(theorem1.distinct)\", \"PARTS: NOT NULL (OEM_PNO) "
      "(theorem2.subquery)\"], \"analysis\": \"DISTINCT proven redundant "
      "(algorithm1)\", \"verify\": \"1 violation(s) (7 node(s), 1 "
      "proof(s), 0 correlation(s), equiv 1 proven / 1 unproven / 0 "
      "refuted)\", \"verify_violations\": 1, \"equiv\": {\"proven\": 1, "
      "\"unproven\": 1, \"refuted\": 0}},\n"
      "  {\"id\": 2, \"source\": \"optimizer\", \"query\": \"SELECT FROM "
      "WHERE\", \"ok\": false, \"error\": \"InvalidArgument: expected "
      "\\\"column\\\"\", \"plan_hash\": \"0000000000000000\", "
      "\"cache_hit\": false, \"total_ns\": 4321, \"wall_time_us\": "
      "1700000001000000, \"wall_time\": \"2023-11-14T22:13:21Z\", "
      "\"steady_ns\": 987654999, \"rows_out\": 0, \"rows_scanned\": 0, "
      "\"phases\": {\"parse\": 4321}, \"rewrites\": [], \"near_misses\": "
      "[], \"analysis\": \"\", \"verify\": \"\", \"verify_violations\": "
      "0, \"equiv\": {\"proven\": 0, \"unproven\": 0, \"refuted\": 0}},\n"
      "  {\"id\": 3, \"source\": \"ims.gateway\", \"query\": \"GU "
      "SUPPLIER; GNP PARTS\", \"ok\": true, \"plan_hash\": "
      "\"000000000000002a\", \"cache_hit\": false, \"total_ns\": 2500, "
      "\"wall_time_us\": 1700000002000000, \"wall_time\": "
      "\"2023-11-14T22:13:22Z\", \"steady_ns\": 987655999, \"rows_out\": "
      "3, \"rows_scanned\": 0, \"phases\": {\"run\": 2500}, "
      "\"rewrites\": [], \"near_misses\": [], \"analysis\": \"GU=1 GN=0 "
      "GNP=4 segments=5\", \"verify\": \"\", \"verify_violations\": 0, "
      "\"equiv\": {\"proven\": 0, \"unproven\": 0, \"refuted\": 0}},\n"
      "  {\"id\": 4, \"source\": \"optimizer\", \"query\": \"SELECT SNO "
      "FROM SUPPLIER\", \"ok\": true, \"plan_hash\": "
      "\"0000000000000007\", \"cache_hit\": false, \"total_ns\": 1500, "
      "\"wall_time_us\": 1700000003000000, \"wall_time\": "
      "\"2023-11-14T22:13:23Z\", \"steady_ns\": 987656999, \"rows_out\": "
      "100, \"rows_scanned\": 100, \"phases\": {\"execute\": 1500}, "
      "\"rewrites\": [], \"near_misses\": [], \"analysis\": \"\", "
      "\"verify\": \"\", \"verify_violations\": 0, \"equiv\": "
      "{\"proven\": 0, \"unproven\": 0, \"refuted\": 0}}\n"
      "]}\n");
}

TEST(FingerprintTest, StableAndDiscriminating) {
  const std::string plan = "Distinct\n  Scan SUPPLIER\n";
  EXPECT_EQ(obs::FingerprintPlanText(plan), obs::FingerprintPlanText(plan));
  EXPECT_NE(obs::FingerprintPlanText(plan),
            obs::FingerprintPlanText("Scan SUPPLIER\n"));
  EXPECT_NE(obs::FingerprintPlanText(""), 0u);
}

class RecorderIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(MakeTestSupplierDatabase(&db_));
    optimizer_ = std::make_unique<Optimizer>(&db_);
    obs::QueryRecorder::Global().Clear();
  }

  Database db_;
  std::unique_ptr<Optimizer> optimizer_;
};

TEST_F(RecorderIntegrationTest, ExecuteRecordsPlanHashAndVerdicts) {
  // Example 1: DISTINCT provably redundant, so the record must carry
  // the RemoveRedundantDistinct verdict and the optimized plan's hash.
  ASSERT_OK_AND_ASSIGN(
      PreparedQuery prepared,
      optimizer_->Prepare("SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, "
                          "PARTS P WHERE S.SNO = P.SNO"));
  ASSERT_OK(optimizer_->Execute(prepared).status());

  std::vector<obs::QueryRecord> history =
      obs::QueryRecorder::Global().History();
  ASSERT_EQ(history.size(), 1u);
  const obs::QueryRecord& rec = history[0];
  ASSERT_NE(rec.prepared, nullptr);
  const obs::PreparedRecord& part = *rec.prepared;
  EXPECT_EQ(part.source, "optimizer");
  EXPECT_TRUE(rec.ok);
  EXPECT_EQ(part.plan_hash,
            obs::FingerprintPlanText(prepared.optimized_plan->ToString()));
  EXPECT_NE(part.plan_hash, 0u);
  bool saw_distinct_removal = false;
  for (const auto& [rule, description] : part.rewrites) {
    if (rule == "RemoveRedundantDistinct") saw_distinct_removal = true;
  }
  EXPECT_TRUE(saw_distinct_removal);
  EXPECT_NE(part.proof_summary.find("redundant"), std::string::npos)
      << part.proof_summary;
  // The pipeline phases all landed, parse first; execute is this run's.
  ASSERT_FALSE(part.phase_ns.empty());
  EXPECT_EQ(part.phase_ns.front().first, "parse");
  ASSERT_TRUE(rec.execute_ns.has_value());
  EXPECT_NE(rec.ToString().find(" execute="), std::string::npos);
  EXPECT_GT(rec.total_ns, 0u);
  EXPECT_GT(rec.rows_out, 0u);
}

TEST_F(RecorderIntegrationTest, ExecutionsOfOneEntryShareItsPreparedPart) {
  ASSERT_OK_AND_ASSIGN(
      std::shared_ptr<const PreparedQuery> entry,
      optimizer_->PrepareShared("SELECT SNAME FROM SUPPLIER WHERE SNO = 7"));
  ASSERT_NE(entry->record, nullptr);
  ASSERT_OK(optimizer_->Execute(*entry).status());
  ASSERT_OK(optimizer_->Execute(*entry).status());
  std::vector<obs::QueryRecord> history =
      obs::QueryRecorder::Global().History();
  ASSERT_EQ(history.size(), 2u);
  // One immutable part, shared by both records and the entry.
  EXPECT_EQ(history[0].prepared.get(), entry->record.get());
  EXPECT_EQ(history[1].prepared.get(), entry->record.get());
  EXPECT_NE(history[0].id, history[1].id);
}

TEST_F(RecorderIntegrationTest, HandBuiltQueryRecordsTheSameFacts) {
  ASSERT_OK_AND_ASSIGN(
      PreparedQuery prepared,
      optimizer_->Prepare("SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, "
                          "PARTS P WHERE S.SNO = P.SNO AND P.COLOR = 'RED'"));
  PreparedQuery by_hand = prepared;
  by_hand.record = nullptr;
  ASSERT_OK(optimizer_->Execute(prepared).status());
  ASSERT_OK(optimizer_->Execute(by_hand).status());
  std::vector<obs::QueryRecord> history =
      obs::QueryRecorder::Global().History();
  ASSERT_EQ(history.size(), 2u);
  ASSERT_NE(history[1].prepared, nullptr);
  EXPECT_NE(history[1].prepared.get(), prepared.record.get());
  // The prepare's phases live on the record part alone, so a query
  // without one has none to report.
  EXPECT_TRUE(history[1].prepared->phase_ns.empty());
  // Same facts: with this run's numbers aligned, both render alike.
  obs::QueryRecord aligned = history[1];
  auto part = std::make_shared<obs::PreparedRecord>(*history[1].prepared);
  part->phase_ns = history[0].prepared->phase_ns;
  aligned.prepared = std::move(part);
  aligned.id = history[0].id;
  aligned.execute_ns = history[0].execute_ns;
  aligned.total_ns = history[0].total_ns;
  aligned.wall_time_us = history[0].wall_time_us;
  aligned.steady_ns = history[0].steady_ns;
  EXPECT_EQ(aligned.ToString(), history[0].ToString());
  EXPECT_EQ(history[1].rows_out, history[0].rows_out);
}

TEST_F(RecorderIntegrationTest, FailuresAreRecordedWithError) {
  EXPECT_FALSE(optimizer_->Prepare("SELECT FROM WHERE").ok());
  std::vector<obs::QueryRecord> history =
      obs::QueryRecorder::Global().History();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_FALSE(history[0].ok);
  EXPECT_FALSE(history[0].error.empty());
}

TEST_F(RecorderIntegrationTest, EqualQueriesShareAPlanHash) {
  const std::string sql =
      "SELECT SNO FROM SUPPLIER WHERE SNO = 1";
  ASSERT_OK_AND_ASSIGN(PreparedQuery a, optimizer_->Prepare(sql));
  ASSERT_OK_AND_ASSIGN(PreparedQuery b, optimizer_->Prepare(sql));
  EXPECT_EQ(a.plan_hash, b.plan_hash);
  ASSERT_OK_AND_ASSIGN(
      PreparedQuery c,
      optimizer_->Prepare("SELECT SNO FROM SUPPLIER WHERE SNO = 2"));
  EXPECT_NE(a.plan_hash, c.plan_hash);
}

// The ISSUE acceptance test: 4 writer threads run the workload corpus
// through the optimizer while a reader drains history/slow/json
// concurrently. Afterwards the recorder must have seen every query and
// retain exactly the last K with intact plan hashes.
TEST_F(RecorderIntegrationTest, ConcurrentWorkloadKeepsLastK) {
  constexpr int kThreads = 4;
  constexpr size_t kCapacity = 32;
  obs::QueryRecorder& recorder = obs::QueryRecorder::Global();
  recorder.SetCapacity(kCapacity);

  // Corpus queries without host variables execute cleanly end-to-end.
  std::vector<std::string> sqls;
  for (const CorpusQuery& q : DistinctQueryCorpus()) {
    if (q.sql.find(':') == std::string::npos) sqls.push_back(q.sql);
  }
  ASSERT_GE(sqls.size(), 4u);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> executed{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      std::vector<obs::QueryRecord> snapshot = recorder.History();
      EXPECT_LE(snapshot.size(), kCapacity);
      // Snapshots are consistent: ids strictly increase oldest→newest
      // and every record is fully formed (no torn writes).
      for (size_t i = 1; i < snapshot.size(); ++i) {
        EXPECT_LT(snapshot[i - 1].id, snapshot[i].id);
      }
      for (const obs::QueryRecord& rec : snapshot) {
        ASSERT_NE(rec.prepared, nullptr);
        EXPECT_FALSE(rec.prepared->query.empty());
        if (rec.ok && rec.prepared->source == "optimizer") {
          EXPECT_NE(rec.prepared->plan_hash, 0u);
        }
      }
      (void)recorder.SlowQueries();
      (void)recorder.ToJson();
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      // Each thread gets its own optimizer; they share db_ read-only
      // and the process-global recorder.
      Optimizer optimizer(&db_);
      // Two passes over the corpus per thread: with 4 writers that
      // guarantees more records than kCapacity, so eviction happens.
      for (size_t i = 0; i < 2 * sqls.size(); ++i) {
        const std::string& sql = sqls[(i + t) % sqls.size()];
        auto prepared = optimizer.Prepare(sql);
        ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
        auto rows = optimizer.Execute(*prepared);
        ASSERT_TRUE(rows.ok()) << rows.status().ToString();
        executed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(executed.load(), 2 * kThreads * sqls.size());
  EXPECT_EQ(recorder.total_recorded(), executed.load());
  std::vector<obs::QueryRecord> history = recorder.History();
  ASSERT_EQ(history.size(), kCapacity);
  // The retained window is exactly the last K ids, in order: ids are
  // consecutive and a probe recorded now gets the very next id, so
  // history.back() was the newest record overall.
  for (size_t i = 1; i < history.size(); ++i) {
    EXPECT_EQ(history[i - 1].id + 1, history[i].id);
  }
  recorder.Record(MakeRecord("probe", 0));
  EXPECT_EQ(recorder.History().back().id, history.back().id + 1);
  Optimizer verify_optimizer(&db_);
  for (const obs::QueryRecord& rec : history) {
    ASSERT_TRUE(rec.ok) << rec.error;
    auto reprepared = verify_optimizer.Prepare(rec.prepared->query);
    ASSERT_TRUE(reprepared.ok());
    EXPECT_EQ(rec.prepared->plan_hash, reprepared->plan_hash)
        << rec.prepared->query;
  }
  recorder.Clear();
  recorder.SetCapacity(obs::QueryRecorder::kDefaultCapacity);
}

}  // namespace
}  // namespace uniqopt
