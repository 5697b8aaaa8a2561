// Tests for the metrics export plane: Prometheus text exposition
// (linted by the exporter's own lint pass), the stable metrics JSON
// schema shared with bench --metrics-json, and the name mapping from
// dotted metric names to Prometheus-legal ones.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/recorder.h"

namespace uniqopt {
namespace {

TEST(PrometheusNameTest, MapsDotsToUnderscores) {
  EXPECT_EQ(obs::PrometheusName("ims.dli.gnp_calls"), "ims_dli_gnp_calls");
  EXPECT_EQ(obs::PrometheusName("rewrite.rule.SubqueryToJoin.fired"),
            "rewrite_rule_SubqueryToJoin_fired");
  EXPECT_EQ(obs::PrometheusName("already_legal"), "already_legal");
}

TEST(SnapshotTest, CapturesCountersAndHistograms) {
  obs::MetricsRegistry registry;
  registry.GetCounter("exec.rows").Increment(42);
  obs::Histogram& h = registry.GetHistogram("optimizer.phase.parse.ns");
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v * 10);

  std::vector<obs::MetricSample> samples = obs::SnapshotMetrics(registry);
  ASSERT_EQ(samples.size(), 2u);

  const obs::MetricSample* counter = nullptr;
  const obs::MetricSample* hist = nullptr;
  for (const obs::MetricSample& s : samples) {
    if (s.type == obs::MetricSample::Type::kCounter) counter = &s;
    if (s.type == obs::MetricSample::Type::kHistogram) hist = &s;
  }
  ASSERT_NE(counter, nullptr);
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(counter->name, "exec.rows");
  EXPECT_EQ(counter->value, 42u);
  EXPECT_EQ(hist->name, "optimizer.phase.parse.ns");
  EXPECT_EQ(hist->count, 100u);
  EXPECT_EQ(hist->sum, 50500u);
  ASSERT_FALSE(hist->buckets.empty());
  // Buckets are cumulative and end at the full count.
  uint64_t prev = 0;
  for (const auto& [upper, cumulative] : hist->buckets) {
    EXPECT_GE(cumulative, prev);
    prev = cumulative;
  }
  EXPECT_EQ(hist->buckets.back().second, 100u);
}

TEST(PrometheusTextTest, PassesOwnLint) {
  obs::MetricsRegistry registry;
  registry.GetCounter("ims.dli.gn_calls").Increment(7);
  registry.GetCounter("rewrite.plans").Increment();
  obs::Histogram& h = registry.GetHistogram("rewrite.plan.ns");
  h.Record(900);
  h.Record(1800);
  h.Record(250000);

  std::string text = obs::ToPrometheusText(obs::SnapshotMetrics(registry));
  Status lint = obs::LintPrometheusText(text);
  EXPECT_TRUE(lint.ok()) << lint.ToString() << "\n" << text;
  // Counters get the _total suffix; histograms the canonical series.
  EXPECT_NE(text.find("ims_dli_gn_calls_total 7"), std::string::npos);
  EXPECT_NE(text.find("rewrite_plan_ns_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("rewrite_plan_ns_count 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE rewrite_plan_ns histogram"),
            std::string::npos);
}

TEST(PrometheusTextTest, EmptyRegistryLintsClean) {
  obs::MetricsRegistry registry;
  std::string text = obs::ToPrometheusText(obs::SnapshotMetrics(registry));
  Status lint = obs::LintPrometheusText(text);
  EXPECT_TRUE(lint.ok()) << lint.ToString();
}

TEST(PrometheusLintTest, RejectsMalformedExposition) {
  // Sample before its TYPE.
  EXPECT_FALSE(obs::LintPrometheusText(
                   "# HELP a_total doc\na_total 1\n# TYPE a_total counter\n")
                   .ok());
  // Illegal metric name.
  EXPECT_FALSE(obs::LintPrometheusText(
                   "# HELP 9bad doc\n# TYPE 9bad counter\n9bad 1\n")
                   .ok());
  // Non-numeric value.
  EXPECT_FALSE(obs::LintPrometheusText(
                   "# HELP a doc\n# TYPE a counter\na x\n")
                   .ok());
  // Non-cumulative histogram buckets.
  EXPECT_FALSE(obs::LintPrometheusText(
                   "# HELP h doc\n# TYPE h histogram\n"
                   "h_bucket{le=\"1\"} 5\n"
                   "h_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n"
                   "h_sum 9\nh_count 5\n")
                   .ok());
  // +Inf bucket disagrees with _count.
  EXPECT_FALSE(obs::LintPrometheusText(
                   "# HELP h doc\n# TYPE h histogram\n"
                   "h_bucket{le=\"+Inf\"} 4\n"
                   "h_sum 9\nh_count 5\n")
                   .ok());
  // Histogram family without the +Inf terminator.
  EXPECT_FALSE(obs::LintPrometheusText(
                   "# HELP h doc\n# TYPE h histogram\n"
                   "h_bucket{le=\"1\"} 5\n"
                   "h_sum 9\nh_count 5\n")
                   .ok());
}

TEST(PrometheusLintTest, RequiresHelpBeforeSamples) {
  // TYPE alone is no longer enough: the exporter always pairs HELP with
  // TYPE, and the lint holds every page to that.
  EXPECT_FALSE(obs::LintPrometheusText("# TYPE a counter\na 1\n").ok());
  EXPECT_TRUE(obs::LintPrometheusText(
                  "# HELP a doc\n# TYPE a counter\na 1\n")
                  .ok());
  // Duplicate HELP for the same family.
  EXPECT_FALSE(obs::LintPrometheusText(
                   "# HELP a doc\n# HELP a doc\n# TYPE a counter\na 1\n")
                   .ok());
  // HELP with an illegal family name.
  EXPECT_FALSE(obs::LintPrometheusText(
                   "# HELP 9bad doc\n# TYPE a counter\na 1\n")
                   .ok());
  // HELP text is optional.
  EXPECT_TRUE(obs::LintPrometheusText(
                  "# HELP a\n# TYPE a counter\na 1\n")
                  .ok());
}

TEST(PrometheusLintTest, LabelParsingIsEscapeAware) {
  // A '}' and an escaped quote inside a label value must not terminate
  // the label set or the value.
  EXPECT_TRUE(obs::LintPrometheusText(
                  "# HELP a doc\n# TYPE a counter\n"
                  "a{q=\"x}y\"} 1\n")
                  .ok());
  EXPECT_TRUE(obs::LintPrometheusText(
                  "# HELP a doc\n# TYPE a counter\n"
                  "a{q=\"x\\\"}\\\\y\"} 1\n")
                  .ok());
  // Genuinely unterminated labels still fail.
  EXPECT_FALSE(obs::LintPrometheusText(
                   "# HELP a doc\n# TYPE a counter\n"
                   "a{q=\"x 1\n")
                   .ok());
}

TEST(PrometheusEscapeTest, EscapesLabelValuesAndHelpText) {
  EXPECT_EQ(obs::PrometheusLabelEscape("plain"), "plain");
  EXPECT_EQ(obs::PrometheusLabelEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::PrometheusLabelEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::PrometheusLabelEscape("a\nb"), "a\\nb");
  EXPECT_EQ(obs::PrometheusHelpEscape("a\\b\nc"), "a\\\\b\\nc");
  // Quotes are legal in HELP text and stay raw.
  EXPECT_EQ(obs::PrometheusHelpEscape("say \"hi\""), "say \"hi\"");
}

TEST(MetricsJsonTest, StableSchemaIsValidJson) {
  obs::MetricsRegistry registry;
  registry.GetCounter("rewrite.rule.RemoveRedundantDistinct.fired")
      .Increment(3);
  registry.GetHistogram("analysis.algorithm1.ns").Record(5000);

  std::string json = obs::ToMetricsJson(obs::SnapshotMetrics(registry));
  Status valid = obs::ValidateJson(json);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << json;
  // The bench gate keys on these fields; schema drift breaks baselines.
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(
      json.find(
          "\"name\": \"rewrite.rule.RemoveRedundantDistinct.fired\""),
      std::string::npos);
  EXPECT_NE(json.find("\"type\": \"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  EXPECT_NE(json.find("\"le\""), std::string::npos);
}

TEST(RecorderJsonTest, QueriesDumpIsValidJson) {
  obs::QueryRecorder recorder;
  auto part = std::make_shared<obs::PreparedRecord>();
  part->source = "optimizer";
  part->query = "SELECT \"S\".SNO\nFROM SUPPLIER \"S\"";
  part->plan_hash = obs::FingerprintPlanText("plan");
  part->phase_ns.emplace_back("parse", 1200);
  part->rewrites.emplace_back("RemoveRedundantDistinct",
                              "DISTINCT proven redundant");
  obs::QueryRecord rec;
  rec.prepared = std::move(part);
  rec.ok = true;
  recorder.Record(std::move(rec));

  auto bad_part = std::make_shared<obs::PreparedRecord>();
  bad_part->source = "optimizer";
  bad_part->query = "SELECT nope";
  obs::QueryRecord bad;
  bad.prepared = std::move(bad_part);
  bad.ok = false;
  bad.error = "binder: unknown table \"NOPE\"";
  recorder.Record(std::move(bad));

  std::string json = recorder.ToJson();
  Status valid = obs::ValidateJson(json);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << json;
  EXPECT_NE(json.find("\"queries\""), std::string::npos);
  EXPECT_NE(json.find("RemoveRedundantDistinct"), std::string::npos);
}

TEST(ValidateJsonTest, AcceptsAndRejects) {
  EXPECT_TRUE(obs::ValidateJson("{}").ok());
  EXPECT_TRUE(
      obs::ValidateJson("[1, 2.5, -3e2, \"x\\n\", null, true]").ok());
  EXPECT_TRUE(obs::ValidateJson("{\"a\": {\"b\": []}}").ok());
  EXPECT_FALSE(obs::ValidateJson("").ok());
  EXPECT_FALSE(obs::ValidateJson("{").ok());
  EXPECT_FALSE(obs::ValidateJson("{\"a\": }").ok());
  EXPECT_FALSE(obs::ValidateJson("{} extra").ok());
  EXPECT_FALSE(obs::ValidateJson("'single'").ok());
  EXPECT_FALSE(obs::ValidateJson("\"raw\ncontrol\"").ok());
}

TEST(JsonEscapeTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(obs::JsonEscape("plain"), "plain");
  EXPECT_EQ(obs::JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(obs::JsonEscape(std::string("a\x01z", 3)), "a\\u0001z");
}

}  // namespace
}  // namespace uniqopt
