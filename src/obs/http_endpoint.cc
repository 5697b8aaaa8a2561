#include "obs/http_endpoint.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/logging.h"
#include "obs/advisor.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/sentinel.h"
#include "obs/timeseries.h"

namespace uniqopt {
namespace obs {

namespace {

constexpr size_t kMaxRequestBytes = 8192;

void SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    // MSG_NOSIGNAL: a scraper hanging up mid-response must not SIGPIPE
    // the host process.
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) return;  // peer went away; nothing to clean up
    sent += static_cast<size_t>(n);
  }
}

std::string HttpResponse(int code, const char* reason,
                         const std::string& content_type,
                         const std::string& body) {
  std::string out = "HTTP/1.1 " + std::to_string(code) + " " + reason +
                    "\r\n";
  out += "Content-Type: " + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

HttpEndpoint::HttpEndpoint(QueryRecorder* recorder)
    : recorder_(recorder != nullptr ? recorder : &QueryRecorder::Global()) {}

HttpEndpoint::~HttpEndpoint() { Stop(); }

Status HttpEndpoint::Start(uint16_t port) {
  if (serving()) return Status::AlreadyExists("endpoint already serving");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    Status st = Status::Internal(std::string("bind: ") +
                                 std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 16) != 0) {
    Status st = Status::Internal(std::string("listen: ") +
                                 std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  } else {
    port_ = port;
  }
  start_steady_ns_.store(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count()),
      std::memory_order_relaxed);
  serving_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Serve(); });
  UNIQOPT_LOG(kInfo) << "observability endpoint on 127.0.0.1:" << port_;
  return Status::OK();
}

void HttpEndpoint::Stop() {
  if (!serving_.exchange(false, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  // Unblock accept(): shutdown() wakes it, close() releases the fd.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (thread_.joinable()) thread_.join();
}

void HttpEndpoint::Serve() {
  while (serving_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by Stop(), or fatal
    }
    HandleConnection(fd);
    ::close(fd);
  }
}

std::string HttpEndpoint::RenderPath(const std::string& path) const {
  if (path == "/metrics") {
    return ToPrometheusText(SnapshotMetrics(MetricsRegistry::Global()));
  }
  if (path == "/queries") {
    return recorder_->ToJson();
  }
  if (path == "/advisor") {
    return AdvisorStore::Global().ToJson();
  }
  if (path == "/timeseries") {
    return TimeSeriesPlane::Global().ToJson();
  }
  if (path == "/alerts") {
    return Sentinel::Global().ToJson();
  }
  if (path == "/healthz") {
    uint64_t start = start_steady_ns_.load(std::memory_order_relaxed);
    uint64_t now = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    uint64_t uptime_ms = start == 0 ? 0 : (now - start) / 1000000;
    TimeSeriesPlane& plane = TimeSeriesPlane::Global();
    return "{\"status\": \"ok\", \"uptime_ms\": " +
           std::to_string(uptime_ms) + ", \"ticker_running\": " +
           (plane.ticker_running() ? "true" : "false") +
           ", \"ticks\": " + std::to_string(plane.ticks()) +
           ", \"sentinel_enabled\": " +
           (Sentinel::Global().enabled() ? "true" : "false") + "}\n";
  }
  if (path == "/" || path == "/index") {
    return "uniqopt observability endpoint\n"
           "  /metrics     Prometheus text exposition\n"
           "  /queries     query flight recorder history (JSON)\n"
           "  /advisor     uniqueness constraint advisor suggestions (JSON)\n"
           "  /timeseries  windowed time-series plane snapshot (JSON)\n"
           "  /alerts      regression sentinel alert ring (JSON)\n"
           "  /healthz     liveness: uptime and ticker state (JSON)\n";
  }
  return "";
}

void HttpEndpoint::HandleConnection(int fd) {
  std::string request;
  char buf[1024];
  // Read until the header terminator; a single recv usually suffices for
  // `GET <path> HTTP/1.1`.
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find('\n') == std::string::npos) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    request.append(buf, static_cast<size_t>(n));
  }
  size_t sp1 = request.find(' ');
  std::string method =
      sp1 == std::string::npos ? "" : request.substr(0, sp1);
  // HEAD is GET minus the body: same status, same headers (including
  // the Content-Length the GET would have had), nothing after them.
  bool head = method == "HEAD";
  if (method != "GET" && !head) {
    SendAll(fd, HttpResponse(405, "Method Not Allowed", "text/plain",
                             "only GET and HEAD are supported\n"));
    return;
  }
  size_t sp2 = request.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) {
    SendAll(fd, HttpResponse(400, "Bad Request", "text/plain",
                             "malformed request line\n"));
    return;
  }
  std::string path = request.substr(sp1 + 1, sp2 - sp1 - 1);
  size_t query = path.find('?');
  if (query != std::string::npos) path = path.substr(0, query);
  std::string body = RenderPath(path);
  if (body.empty()) {
    std::string error = "{\"error\": \"not found\", \"path\": \"" +
                        JsonEscape(path) + "\"}\n";
    std::string response =
        HttpResponse(404, "Not Found", "application/json", error);
    if (head) response.resize(response.size() - error.size());
    SendAll(fd, response);
    return;
  }
  const char* content_type =
      (path == "/queries" || path == "/advisor" || path == "/timeseries" ||
       path == "/alerts" || path == "/healthz")
          ? "application/json"
      : path == "/metrics"
          ? "text/plain; version=0.0.4; charset=utf-8"
          : "text/plain; charset=utf-8";
  std::string response = HttpResponse(200, "OK", content_type, body);
  if (head) response.resize(response.size() - body.size());
  SendAll(fd, response);
}

}  // namespace obs
}  // namespace uniqopt
