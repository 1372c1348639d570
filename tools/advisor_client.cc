// advisor_client: driver for advisor_server's TCP endpoint. Creates an
// SSB smoke session, fires a mixed stream of requests (solve /
// frontier / timeline / compare-policies / compare-providers, session
// and sessionless), checks every envelope, and reports p50/p99
// latency. Exits nonzero on any failed request — CI's serving smoke
// job runs exactly this.
//
//   advisor_client --port 7421 [--requests 50] [--deadline-ms 0]

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "serving/advisor_codec.h"
#include "serving/json.h"

namespace cloudview {
namespace {

constexpr const char* kSession = "smoke";

class LineChannel {
 public:
  explicit LineChannel(int fd) : fd_(fd) {}
  ~LineChannel() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool SendLine(std::string line) {
    line.push_back('\n');
    size_t written = 0;
    while (written < line.size()) {
      ssize_t w =
          ::write(fd_, line.data() + written, line.size() - written);
      if (w <= 0) return false;
      written += static_cast<size_t>(w);
    }
    return true;
  }

  bool ReadLine(std::string* line) {
    size_t newline;
    while ((newline = buffer_.find('\n')) == std::string::npos) {
      char chunk[4096];
      ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    *line = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return true;
  }

 private:
  int fd_;
  std::string buffer_;
};

// Round-trips one envelope; returns the server's Status-code string
// ("OK" on success) or a transport/parse pseudo-code.
std::string RoundTrip(LineChannel& channel, const std::string& line,
                      JsonValue* reply_out) {
  if (!channel.SendLine(line)) return "TRANSPORT_WRITE";
  std::string reply_text;
  if (!channel.ReadLine(&reply_text)) return "TRANSPORT_READ";
  Result<JsonValue> reply = ParseJson(reply_text);
  if (!reply.ok()) return "REPLY_PARSE";
  const JsonValue* code = reply.value().Find("code");
  std::string code_name =
      code != nullptr && code->is_string() ? code->string_value() : "MISSING";
  if (reply_out != nullptr) *reply_out = reply.MoveValue();
  return code_name;
}

std::string WrapRequest(const AdvisorRequest& request) {
  JsonValue envelope = JsonValue::Object();
  envelope.Set("op", JsonValue::Str("request"));
  envelope.Set("request", AdvisorRequestToJson(request));
  return WriteJson(envelope);
}

// The mixed request stream: mostly session solves (these exercise the
// warm slot), with frontier / timeline / policy-comparison /
// provider-comparison and a sessionless solve sprinkled in.
AdvisorRequest MixedRequest(int i, int64_t deadline_ms) {
  AdvisorRequest request;
  request.session = kSession;
  request.deadline_ms = deadline_ms;
  switch (i % 10) {
    case 3:
      request.kind = AdvisorRequestKind::kFrontier;
      break;
    case 5:
      request.kind = AdvisorRequestKind::kTimeline;
      request.timeline.num_periods = 4;
      break;
    case 7:
      request.kind = AdvisorRequestKind::kComparePolicies;
      request.timeline.num_periods = 4;
      request.policies = {ReselectPolicy::Static(),
                          ReselectPolicy::EveryK(2)};
      break;
    case 9:
      request.kind = AdvisorRequestKind::kCompareProviders;
      break;
    default:
      request.kind = AdvisorRequestKind::kSolve;
      break;
  }
  return request;
}

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t index = static_cast<size_t>(p * static_cast<double>(sorted.size()));
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

int Main(int argc, char** argv) {
  int port = -1;
  int requests = 50;
  int64_t deadline_ms = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (arg == "--requests" && i + 1 < argc) {
      requests = std::atoi(argv[++i]);
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      deadline_ms = std::atoll(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: advisor_client --port N [--requests N] "
                   "[--deadline-ms N]\n");
      return 2;
    }
  }
  if (port < 0) {
    std::fprintf(stderr, "advisor_client: --port is required\n");
    return 2;
  }

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("socket");
    return 1;
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    std::perror("connect");
    ::close(fd);
    return 1;
  }
  LineChannel channel(fd);

  // SSB smoke session: 20 candidates, near-fact cuboids pruned — the
  // same shape bench_serving measures.
  JsonValue create = JsonValue::Object();
  create.Set("op", JsonValue::Str("create_session"));
  create.Set("name", JsonValue::Str(kSession));
  ScenarioConfig config;
  config.schema = "ssb";
  config.candidates.max_candidates = 20;
  config.candidates.max_rows_fraction = 0.05;
  create.Set("config", ScenarioConfigToJson(config));
  std::string code = RoundTrip(channel, WriteJson(create), nullptr);
  if (code != "OK" && code != "AlreadyExists") {
    std::fprintf(stderr, "create_session failed: %s\n", code.c_str());
    return 1;
  }

  int failures = 0;
  int truncated = 0;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(static_cast<size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    AdvisorRequest request = MixedRequest(i, deadline_ms);
    const std::string line = WrapRequest(request);
    const auto start = std::chrono::steady_clock::now();
    JsonValue reply;
    code = RoundTrip(channel, line, &reply);
    const auto end = std::chrono::steady_clock::now();
    latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
    if (code == "OK") continue;
    // Deadline truncation is an expected outcome when the caller set a
    // budget — count it separately and require the incumbent payload.
    if (deadline_ms > 0 &&
        (code == "Cancelled" || code == "DeadlineExceeded")) {
      ++truncated;
      continue;
    }
    ++failures;
    std::fprintf(stderr, "request %d (%s) failed: %s\n", i,
                 AdvisorRequestKindName(request.kind), code.c_str());
  }

  code = RoundTrip(channel,
                   "{\"op\":\"drop_session\",\"name\":\"" +
                       std::string(kSession) + "\"}",
                   nullptr);
  if (code != "OK") {
    std::fprintf(stderr, "drop_session failed: %s\n", code.c_str());
    ++failures;
  }

  std::sort(latencies_ms.begin(), latencies_ms.end());
  std::printf(
      "advisor_client: %d requests, %d failed, %d deadline-truncated\n",
      requests, failures, truncated);
  std::printf("p50_ms=%.3f p99_ms=%.3f max_ms=%.3f\n",
              Percentile(latencies_ms, 0.5), Percentile(latencies_ms, 0.99),
              latencies_ms.empty() ? 0.0 : latencies_ms.back());
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace cloudview

int main(int argc, char** argv) { return cloudview::Main(argc, argv); }
