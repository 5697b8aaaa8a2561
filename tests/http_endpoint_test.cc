// Tests for the HTTP observability endpoint: a real loopback socket
// round-trip per route, the Prometheus lint on a served /metrics page,
// JSON validity of /queries, and the 404/405 error paths.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include "obs/advisor.h"
#include "obs/export.h"
#include "obs/http_endpoint.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "test_util.h"

namespace uniqopt {
namespace {

/// Sends `request` to 127.0.0.1:`port` and returns the full response.
std::string RawRequest(uint16_t port, const std::string& request) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Body(const std::string& response) {
  size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

std::string Get(uint16_t port, const std::string& path) {
  return RawRequest(port,
                    "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

class HttpEndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::Global().GetCounter("exec.rows").Increment(5);
    obs::MetricsRegistry::Global()
        .GetHistogram("optimizer.phase.parse.ns")
        .Record(1234);
    recorder_.SetCapacity(8);
    auto part = std::make_shared<obs::PreparedRecord>();
    part->source = "optimizer";
    part->query = "SELECT SNO FROM SUPPLIER";
    part->plan_hash = obs::FingerprintPlanText("Scan SUPPLIER");
    obs::QueryRecord rec;
    rec.prepared = std::move(part);
    rec.ok = true;
    recorder_.Record(std::move(rec));

    endpoint_ = std::make_unique<obs::HttpEndpoint>(&recorder_);
    ASSERT_OK(endpoint_->Start(0));
    ASSERT_TRUE(endpoint_->serving());
    ASSERT_NE(endpoint_->port(), 0);
  }

  void TearDown() override { endpoint_->Stop(); }

  obs::QueryRecorder recorder_;
  std::unique_ptr<obs::HttpEndpoint> endpoint_;
};

TEST_F(HttpEndpointTest, MetricsRouteServesLintedPrometheusText) {
  std::string response = Get(endpoint_->port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  std::string body = Body(response);
  Status lint = obs::LintPrometheusText(body);
  EXPECT_TRUE(lint.ok()) << lint.ToString() << "\n" << body;
  EXPECT_NE(body.find("exec_rows_total"), std::string::npos);
  EXPECT_NE(body.find("optimizer_phase_parse_ns_count"),
            std::string::npos);
}

TEST_F(HttpEndpointTest, QueriesRouteServesRecorderJson) {
  std::string response = Get(endpoint_->port(), "/queries");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos);
  std::string body = Body(response);
  Status valid = obs::ValidateJson(body);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << body;
  EXPECT_NE(body.find("SELECT SNO FROM SUPPLIER"), std::string::npos);
}

TEST_F(HttpEndpointTest, AdvisorRouteServesSuggestionJson) {
  obs::AdvisorStore::Global().Clear();
  obs::NearMiss miss;
  miss.goal = "theorem1.distinct";
  miss.table = "SUPPLIER";
  miss.alias = "S";
  miss.kind = obs::MissingFactKind::kUniqueKey;
  miss.fact = "UNIQUE (SNO)";
  miss.replay_key_columns = {"SNO"};
  obs::AdvisorStore::Global().Record(
      miss, 0x1234, "SELECT DISTINCT SNO FROM SUPPLIER");

  std::string response = Get(endpoint_->port(), "/advisor");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos);
  std::string body = Body(response);
  Status valid = obs::ValidateJson(body);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << body;
  EXPECT_NE(body.find("\"suggestions\""), std::string::npos);
  EXPECT_NE(body.find("UNIQUE (SNO)"), std::string::npos);
  obs::AdvisorStore::Global().Clear();
}

TEST_F(HttpEndpointTest, IndexListsRoutes) {
  std::string response = Get(endpoint_->port(), "/");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("/metrics"), std::string::npos);
  EXPECT_NE(response.find("/advisor"), std::string::npos);
  EXPECT_NE(response.find("/timeseries"), std::string::npos);
  EXPECT_NE(response.find("/alerts"), std::string::npos);
  EXPECT_NE(response.find("/healthz"), std::string::npos);
}

TEST_F(HttpEndpointTest, MetricsRouteKeepsTextPlainContentType) {
  // /metrics must stay the Prometheus exposition content type even
  // though the JSON routes switched to application/json.
  std::string response = Get(endpoint_->port(), "/metrics");
  EXPECT_NE(response.find(
                "Content-Type: text/plain; version=0.0.4; charset=utf-8"),
            std::string::npos);
  EXPECT_EQ(response.find("application/json"), std::string::npos);
}

TEST_F(HttpEndpointTest, UnknownPathIs404WithJsonErrorBody) {
  std::string response = Get(endpoint_->port(), "/nope");
  EXPECT_NE(response.find("HTTP/1.1 404"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos);
  std::string body = Body(response);
  Status valid = obs::ValidateJson(body);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << body;
  EXPECT_NE(body.find("\"error\""), std::string::npos);
  EXPECT_NE(body.find("/nope"), std::string::npos);
}

TEST_F(HttpEndpointTest, HeadAnswersWithHeadersOnly) {
  std::string get = Get(endpoint_->port(), "/metrics");
  std::string head = RawRequest(
      endpoint_->port(),
      "HEAD /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n");
  EXPECT_NE(head.find("HTTP/1.1 200 OK"), std::string::npos);
  // Same Content-Length the GET advertised, but nothing after the
  // header terminator.
  size_t cl = get.find("Content-Length:");
  ASSERT_NE(cl, std::string::npos);
  std::string cl_line = get.substr(cl, get.find("\r\n", cl) - cl);
  EXPECT_NE(head.find(cl_line), std::string::npos);
  EXPECT_TRUE(Body(head).empty()) << Body(head);
}

TEST_F(HttpEndpointTest, HeadOnUnknownPathIs404WithoutBody) {
  std::string response = RawRequest(
      endpoint_->port(),
      "HEAD /nope HTTP/1.1\r\nHost: localhost\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 404"), std::string::npos);
  EXPECT_TRUE(Body(response).empty());
}

TEST_F(HttpEndpointTest, HealthzReportsUptimeAndTickerState) {
  std::string response = Get(endpoint_->port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos);
  std::string body = Body(response);
  Status valid = obs::ValidateJson(body);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << body;
  EXPECT_NE(body.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(body.find("\"uptime_ms\""), std::string::npos);
  EXPECT_NE(body.find("\"ticker_running\""), std::string::npos);
}

TEST_F(HttpEndpointTest, TimeseriesRouteServesPlaneJson) {
  std::string response = Get(endpoint_->port(), "/timeseries");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos);
  std::string body = Body(response);
  Status valid = obs::ValidateJson(body);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << body;
  EXPECT_NE(body.find("\"timeseries\""), std::string::npos);
}

TEST_F(HttpEndpointTest, AlertsRouteServesSentinelJson) {
  std::string response = Get(endpoint_->port(), "/alerts");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos);
  std::string body = Body(response);
  Status valid = obs::ValidateJson(body);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << body;
  EXPECT_NE(body.find("\"sentinel\""), std::string::npos);
  EXPECT_NE(body.find("\"alerts\""), std::string::npos);
}

TEST_F(HttpEndpointTest, NonGetMethodIs405) {
  std::string response = RawRequest(
      endpoint_->port(),
      "POST /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 405"), std::string::npos);
}

TEST_F(HttpEndpointTest, QueryStringIsIgnoredForRouting) {
  std::string response = Get(endpoint_->port(), "/metrics?x=1");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
}

TEST_F(HttpEndpointTest, StopIsIdempotentAndRestartable) {
  uint16_t first_port = endpoint_->port();
  endpoint_->Stop();
  endpoint_->Stop();
  EXPECT_FALSE(endpoint_->serving());
  ASSERT_OK(endpoint_->Start(0));
  EXPECT_TRUE(endpoint_->serving());
  // A fresh scrape works after restart (port may differ).
  std::string response = Get(endpoint_->port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  (void)first_port;
}

TEST_F(HttpEndpointTest, DoubleStartFails) {
  EXPECT_FALSE(endpoint_->Start(0).ok());
}

TEST(HttpEndpointRenderTest, RenderPathMatchesRoutes) {
  obs::QueryRecorder recorder;
  obs::HttpEndpoint endpoint(&recorder);
  EXPECT_FALSE(endpoint.RenderPath("/").empty());
  EXPECT_FALSE(endpoint.RenderPath("/metrics").empty() &&
               !obs::SnapshotMetrics(obs::MetricsRegistry::Global())
                    .empty());
  EXPECT_TRUE(endpoint.RenderPath("/bogus").empty());
  EXPECT_TRUE(endpoint.RenderPath("/trace").empty());
  Status queries_valid =
      obs::ValidateJson(endpoint.RenderPath("/queries"));
  EXPECT_TRUE(queries_valid.ok()) << queries_valid.ToString();
  Status advisor_valid =
      obs::ValidateJson(endpoint.RenderPath("/advisor"));
  EXPECT_TRUE(advisor_valid.ok()) << advisor_valid.ToString();
}

}  // namespace
}  // namespace uniqopt
