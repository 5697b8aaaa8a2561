// Tests for the online regression sentinel: warm-up suppression, the
// EWMA + MAD band, exactly-once firing on a sustained step change with
// automatic re-arm, downward detection for firing ratios, exemplar
// propagation into alerts, the bounded alert ring — and a thread-safety
// hammer driving Tick() against an 8-thread PrepareBatch (the TSan
// build runs this under the race detector).

#include "obs/sentinel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/recorder.h"
#include "obs/timeseries.h"
#include "test_util.h"
#include "uniqopt/uniqopt.h"
#include "workload/query_corpus.h"
#include "workload/supplier_schema.h"

namespace uniqopt {
namespace {

/// One class-kind observation with the given window index and p50/p99.
obs::SeriesObservation ClassObs(uint64_t window, uint64_t p50,
                                uint64_t p99 = 0,
                                uint64_t exemplar_id = 0) {
  obs::SeriesObservation o;
  o.series = "class.test.execute.ns";
  o.kind = obs::SeriesKind::kClass;
  o.class_fingerprint = 0xfeed;
  o.stats.window = window;
  o.stats.count = 10;
  o.stats.p50 = p50;
  o.stats.p99 = p99 == 0 ? p50 : p99;
  o.stats.exemplar.record_id = exemplar_id;
  o.stats.exemplar.fingerprint = 0xbeef;
  o.stats.exemplar.value = o.stats.p99;
  return o;
}

obs::SeriesObservation RatioObs(uint64_t window, double ratio) {
  obs::SeriesObservation o;
  o.series = "rewrite.rule.X.firing_ratio";
  o.kind = obs::SeriesKind::kRatio;
  o.stats.window = window;
  o.stats.count = 20;
  o.stats.ratio = ratio;
  return o;
}

TEST(SentinelTest, WarmupWindowsNeverAlert) {
  obs::Sentinel sentinel;
  sentinel.set_enabled(true);
  // A wild jump inside warm-up (3 windows by default) only feeds the
  // reference — the series is not armed yet.
  sentinel.ObserveTick({ClassObs(1, 100)});
  sentinel.ObserveTick({ClassObs(2, 100000)});
  sentinel.ObserveTick({ClassObs(3, 100)});
  EXPECT_EQ(sentinel.total_alerts(), 0u);
}

TEST(SentinelTest, StepChangeFiresExactlyOnceAndRearms) {
  obs::Sentinel sentinel;
  sentinel.set_enabled(true);
  uint64_t window = 0;
  // Quiet reference: p50 = p99 = 1000 for well past warm-up.
  for (int i = 0; i < 6; ++i) {
    sentinel.ObserveTick({ClassObs(++window, 1000)});
  }
  EXPECT_EQ(sentinel.total_alerts(), 0u);
  EXPECT_GE(sentinel.armed_series(), 2u);  // p50 and p99 tracks

  // 5x sustained step: each armed stat fires on the first regressed
  // window and then never again (the reference snaps to the new level).
  for (int i = 0; i < 6; ++i) {
    sentinel.ObserveTick({ClassObs(++window, 5000)});
  }
  EXPECT_EQ(sentinel.total_alerts(), 2u);  // one p50 alert + one p99

  std::vector<obs::Alert> alerts = sentinel.Alerts();
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].series, "class.test.execute.ns");
  EXPECT_EQ(alerts[0].window, 7u);  // the first regressed window
  EXPECT_DOUBLE_EQ(alerts[0].observed, 5000.0);
  EXPECT_NEAR(alerts[0].expected, 1000.0, 1.0);

  // Re-armed at the new level: a second step fires again.
  for (int i = 0; i < 6; ++i) {
    sentinel.ObserveTick({ClassObs(++window, 25000)});
  }
  EXPECT_EQ(sentinel.total_alerts(), 4u);
}

TEST(SentinelTest, SlowDriftInsideBandNeverFires) {
  obs::Sentinel sentinel;
  sentinel.set_enabled(true);
  // +2% per window stays inside the 10% relative band floor while the
  // EWMA tracks it.
  double level = 1000;
  for (uint64_t w = 1; w <= 40; ++w) {
    sentinel.ObserveTick(
        {ClassObs(w, static_cast<uint64_t>(level))});
    level *= 1.02;
  }
  EXPECT_EQ(sentinel.total_alerts(), 0u);
}

TEST(SentinelTest, FiringRatioCollapseAlertsDownwardOnly) {
  obs::Sentinel sentinel;
  sentinel.set_enabled(true);
  uint64_t window = 0;
  for (int i = 0; i < 6; ++i) {
    sentinel.ObserveTick({RatioObs(++window, 0.9)});
  }
  EXPECT_EQ(sentinel.total_alerts(), 0u);
  // Upward movement of a ratio is fine (more rewrites firing).
  sentinel.ObserveTick({RatioObs(++window, 1.0)});
  EXPECT_EQ(sentinel.total_alerts(), 0u);
  // Collapse: the rule silently stopped firing.
  sentinel.ObserveTick({RatioObs(++window, 0.05)});
  EXPECT_EQ(sentinel.total_alerts(), 1u);
  std::vector<obs::Alert> alerts = sentinel.Alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].stat, "ratio");
  EXPECT_EQ(alerts[0].series, "rewrite.rule.X.firing_ratio");
}

TEST(SentinelTest, AlertCarriesTheWindowExemplar) {
  obs::Sentinel sentinel;
  sentinel.set_enabled(true);
  uint64_t window = 0;
  for (int i = 0; i < 5; ++i) {
    sentinel.ObserveTick({ClassObs(++window, 1000, 1000, 41)});
  }
  sentinel.ObserveTick({ClassObs(++window, 9000, 9000, 42)});
  std::vector<obs::Alert> alerts = sentinel.Alerts();
  ASSERT_GE(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].exemplar.record_id, 42u);
  EXPECT_EQ(alerts[0].exemplar.fingerprint, 0xbeefu);
  EXPECT_NE(alerts[0].ToString().find("exemplar=#42"), std::string::npos);
}

TEST(SentinelTest, HugeDeviationIsCritical) {
  obs::Sentinel sentinel;
  sentinel.set_enabled(true);
  uint64_t window = 0;
  for (int i = 0; i < 5; ++i) {
    sentinel.ObserveTick({ClassObs(++window, 1000)});
  }
  sentinel.ObserveTick({ClassObs(++window, 100000)});
  std::vector<obs::Alert> alerts = sentinel.Alerts();
  ASSERT_GE(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].severity, "critical");
}

TEST(SentinelTest, DisabledSentinelObservesNothing) {
  obs::Sentinel sentinel;
  for (uint64_t w = 1; w <= 10; ++w) {
    sentinel.ObserveTick({ClassObs(w, w % 2 == 0 ? 100 : 100000)});
  }
  EXPECT_EQ(sentinel.ticks(), 0u);
  EXPECT_EQ(sentinel.total_alerts(), 0u);
  EXPECT_EQ(sentinel.armed_series(), 0u);
}

TEST(SentinelTest, AlertRingIsBoundedButTotalKeepsCounting) {
  obs::SentinelOptions options;
  options.max_alerts = 4;
  options.warmup_windows = 1;
  obs::Sentinel sentinel(options);
  sentinel.set_enabled(true);
  // Ten independent ratio series, each collapsing once: one baseline
  // window, then the drop — ten alerts total, only the last 4 retained.
  uint64_t window = 0;
  for (int i = 0; i < 10; ++i) {
    obs::SeriesObservation healthy = RatioObs(++window, 0.9);
    healthy.series = "rule." + std::to_string(i) + ".firing_ratio";
    sentinel.ObserveTick({healthy});
    obs::SeriesObservation collapsed = RatioObs(++window, 0.05);
    collapsed.series = healthy.series;
    sentinel.ObserveTick({collapsed});
  }
  EXPECT_EQ(sentinel.total_alerts(), 10u);
  std::vector<obs::Alert> alerts = sentinel.Alerts();
  ASSERT_EQ(alerts.size(), 4u);
  // Oldest first, and eviction dropped the first six.
  EXPECT_EQ(alerts[0].series, "rule.6.firing_ratio");
  EXPECT_EQ(alerts[3].series, "rule.9.firing_ratio");
}

TEST(SentinelTest, ResetClearsTracksAndAlerts) {
  obs::Sentinel sentinel;
  sentinel.set_enabled(true);
  uint64_t window = 0;
  for (int i = 0; i < 5; ++i) {
    sentinel.ObserveTick({ClassObs(++window, 1000)});
  }
  sentinel.ObserveTick({ClassObs(++window, 9000)});
  EXPECT_GT(sentinel.total_alerts(), 0u);
  EXPECT_GT(sentinel.armed_series(), 0u);
  sentinel.Reset();
  EXPECT_EQ(sentinel.Alerts().size(), 0u);
  EXPECT_EQ(sentinel.armed_series(), 0u);
  // A fresh step needs a fresh warm-up.
  sentinel.ObserveTick({ClassObs(++window, 50000)});
  EXPECT_EQ(sentinel.Alerts().size(), 0u);
}

TEST(SentinelTest, ToJsonIsValid) {
  obs::Sentinel sentinel;
  sentinel.set_enabled(true);
  uint64_t window = 0;
  for (int i = 0; i < 5; ++i) {
    sentinel.ObserveTick({ClassObs(++window, 1000, 1000, 41)});
  }
  sentinel.ObserveTick({ClassObs(++window, 9000, 9000, 42)});
  std::string json = sentinel.ToJson();
  Status valid = obs::ValidateJson(json);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << json;
  EXPECT_NE(json.find("\"sentinel\""), std::string::npos);
  EXPECT_NE(json.find("\"exemplar\""), std::string::npos);
}

// End-to-end through the plane: quiet per-class windows, then an
// injected 5x slowdown on the class. Exactly one armed p50 alert whose
// exemplar resolves to the worst sample's record id.
TEST(SentinelPlaneTest, InjectedSlowdownRaisesOneAlertWithExemplar) {
  obs::ManualWindowClock clock;
  obs::MetricsRegistry registry;
  obs::TimeSeriesPlane plane(16, &clock, &registry);
  obs::Sentinel sentinel;
  plane.AttachSentinel(&sentinel);
  plane.set_enabled(true);
  sentinel.set_enabled(true);

  const uint64_t kClass = 0xc1a55;
  uint64_t record_id = 100;
  for (int w = 0; w < 6; ++w) {
    for (int i = 0; i < 10; ++i) {
      plane.RecordClassSample(kClass, "execute.ns", 1000, ++record_id,
                              0x77);
    }
    clock.Advance(1000000000);
    plane.Tick();
  }
  ASSERT_EQ(sentinel.total_alerts(), 0u);

  // The 5x window: one sample is the worst (the last one recorded).
  for (int i = 0; i < 9; ++i) {
    plane.RecordClassSample(kClass, "execute.ns", 5000, ++record_id,
                            0x77);
  }
  uint64_t worst_id = ++record_id;
  plane.RecordClassSample(kClass, "execute.ns", 5500, worst_id, 0x77);
  clock.Advance(1000000000);
  plane.Tick();

  std::vector<obs::Alert> alerts = sentinel.Alerts();
  ASSERT_GE(alerts.size(), 1u);
  bool found_p50 = false;
  for (const obs::Alert& a : alerts) {
    if (a.stat != "p50") continue;
    found_p50 = true;
    EXPECT_EQ(a.class_fingerprint, kClass);
    EXPECT_EQ(a.exemplar.record_id, worst_id);
    EXPECT_EQ(a.exemplar.value, 5500u);
  }
  EXPECT_TRUE(found_p50);

  // Sustained at the new level: no further alerts (exactly-once).
  uint64_t after_step = sentinel.total_alerts();
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < 10; ++i) {
      plane.RecordClassSample(kClass, "execute.ns", 5000, ++record_id,
                              0x77);
    }
    clock.Advance(1000000000);
    plane.Tick();
  }
  EXPECT_EQ(sentinel.total_alerts(), after_step);
}

// Thread-safety hammer: a dedicated thread spins Tick() while 8 worker
// threads run PrepareBatch against one Optimizer with the class-sample
// feed enabled. The TSan ctest configuration runs this under the race
// detector; here it must simply not crash and the plane must have
// closed windows.
TEST(SentinelPlaneTest, TickHammerAgainstPrepareBatch) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db);

  obs::TimeSeriesPlane& plane = obs::TimeSeriesPlane::Global();
  obs::Sentinel& sentinel = obs::Sentinel::Global();
  plane.AttachSentinel(&sentinel);
  plane.Reset();
  plane.set_enabled(true);
  sentinel.set_enabled(true);

  std::vector<std::string> corpus;
  for (const CorpusQuery& q : DistinctQueryCorpus()) {
    corpus.push_back(q.sql);
  }
  ASSERT_GE(corpus.size(), 10u);

  std::atomic<bool> stop{false};
  std::thread ticker([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      plane.Tick();
      std::this_thread::yield();
    }
  });
  for (int round = 0; round < 8; ++round) {
    auto batch = optimizer.PrepareBatch(corpus, 8);
    ASSERT_OK(batch.status());
  }
  stop.store(true, std::memory_order_relaxed);
  ticker.join();
  plane.Tick();  // close the final window

  EXPECT_GT(plane.ticks(), 0u);
  bool saw_class_series = false;
  for (const obs::SeriesSnapshot& s : plane.Snapshot()) {
    saw_class_series = saw_class_series ||
                       s.kind == obs::SeriesKind::kClass;
  }
  EXPECT_TRUE(saw_class_series);

  sentinel.set_enabled(false);
  plane.set_enabled(false);
  plane.Reset();
  sentinel.Reset();
}

// The class `execute.ns` series is per-execute latency: each Execute
// samples its own `execute` phase, not the parse..verify phases its
// QueryRecord shares with the prepared entry (PrepareShared samples
// those as `prepare.ns`).
TEST(SentinelPlaneTest, ExecuteClassSampleIsTheExecutePhase) {
  Database db;
  ASSERT_OK(MakeTestSupplierDatabase(&db));
  Optimizer optimizer(&db);
  obs::TimeSeriesPlane& plane = obs::TimeSeriesPlane::Global();
  plane.Reset();
  plane.set_enabled(true);
  plane.Tick();

  ASSERT_OK_AND_ASSIGN(
      std::shared_ptr<const PreparedQuery> entry,
      optimizer.PrepareShared(
          "SELECT DISTINCT SNO FROM SUPPLIER WHERE SNO = 7"));
  obs::QueryRecorder::Global().Clear();
  ASSERT_OK(optimizer.Execute(*entry).status());
  ASSERT_OK(optimizer.Execute(*entry).status());
  plane.Tick();
  plane.set_enabled(false);

  uint64_t execute_ns = 0;
  std::vector<obs::QueryRecord> history =
      obs::QueryRecorder::Global().History();
  ASSERT_EQ(history.size(), 2u);
  for (const obs::QueryRecord& rec : history) {
    ASSERT_TRUE(rec.execute_ns.has_value());
    execute_ns += *rec.execute_ns;
  }
  const obs::SeriesSnapshot* series = nullptr;
  std::vector<obs::SeriesSnapshot> snapshot = plane.Snapshot();
  for (const obs::SeriesSnapshot& s : snapshot) {
    if (s.kind == obs::SeriesKind::kClass &&
        s.class_fingerprint == entry->class_fingerprint &&
        s.name.ends_with(".execute.ns")) {
      series = &s;
    }
  }
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->windows.size(), 1u);
  EXPECT_EQ(series->windows[0].count, 2u);
  EXPECT_EQ(series->windows[0].sum, execute_ns);
  plane.Reset();
}

}  // namespace
}  // namespace uniqopt
