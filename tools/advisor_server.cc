// advisor_server: line-delimited JSON front end for AdvisorService
// (DESIGN.md §14). One request envelope per input line, one response
// envelope per output line:
//
//   {"op":"create_session","name":"ssb","config":{"schema":"ssb"}}
//   {"op":"request","request":{"kind":"solve","session":"ssb"}}
//   {"op":"drop_session","name":"ssb"}
//   {"op":"stats"}
//   {"op":"shutdown"}
//
// Responses: {"ok":bool,"code":"OK"|...,"message":...} plus
// op-specific payloads ("response" for op=request, "stats" for
// op=stats). A truncated solve (deadline / cancel) comes back with
// ok=false, code CANCELLED or DEADLINE_EXCEEDED, *and* the partial
// "response" attached — the incumbent and its gap are still usable.
//
// Transports: stdin/stdout by default (pipe or `nc -U`-style driving),
// or --port N to listen on 127.0.0.1:N and serve TCP connections
// sequentially (each connection speaks the same line protocol). A
// request line longer than kMaxLineBytes (1 MiB) is answered with one
// InvalidArgument envelope and skipped; serving continues.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "serving/advisor_codec.h"
#include "serving/advisor_service.h"
#include "serving/json.h"

namespace cloudview {
namespace {

JsonValue Envelope(const Status& status) {
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(status.ok()));
  out.Set("code", JsonValue::Str(Status::CodeToString(status.code())));
  if (!status.message().empty()) {
    out.Set("message", JsonValue::Str(status.message()));
  }
  return out;
}

struct HandledLine {
  std::string reply;
  bool shutdown = false;
};

HandledLine HandleLine(AdvisorService& service, const std::string& line) {
  HandledLine handled;
  JsonValue reply;

  Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) {
    handled.reply = WriteJson(Envelope(parsed.status()));
    return handled;
  }
  const JsonValue& envelope = parsed.value();
  std::string op;
  if (envelope.is_object()) {
    if (const JsonValue* v = envelope.Find("op");
        v != nullptr && v->is_string()) {
      op = v->string_value();
    }
  }

  if (op == "create_session") {
    const JsonValue* name = envelope.Find("name");
    const JsonValue* config_json = envelope.Find("config");
    if (name == nullptr || !name->is_string()) {
      reply = Envelope(
          Status::InvalidArgument("create_session needs a string \"name\""));
    } else {
      ScenarioConfig config;
      Status status = Status::OK();
      if (config_json != nullptr) {
        Result<ScenarioConfig> parsed_config =
            ParseScenarioConfig(*config_json);
        if (parsed_config.ok()) {
          config = parsed_config.MoveValue();
        } else {
          status = parsed_config.status();
        }
      }
      if (status.ok()) {
        status = service.sessions()
                     .Create(name->string_value(), std::move(config))
                     .status();
      }
      reply = Envelope(status);
    }
  } else if (op == "request") {
    const JsonValue* request_json = envelope.Find("request");
    if (request_json == nullptr) {
      reply = Envelope(
          Status::InvalidArgument("op \"request\" needs a \"request\""));
    } else {
      Result<AdvisorRequest> request = ParseAdvisorRequest(*request_json);
      if (!request.ok()) {
        reply = Envelope(request.status());
      } else {
        ServeOutcome outcome = service.Serve(request.value());
        reply = Envelope(outcome.status);
        if (outcome.has_response) {
          reply.Set("response", AdvisorResponseToJson(outcome.response));
        }
      }
    }
  } else if (op == "drop_session") {
    const JsonValue* name = envelope.Find("name");
    if (name == nullptr || !name->is_string()) {
      reply = Envelope(
          Status::InvalidArgument("drop_session needs a string \"name\""));
    } else {
      reply = Envelope(service.sessions().Drop(name->string_value()));
    }
  } else if (op == "stats") {
    AdvisorServiceStats stats = service.stats();
    reply = Envelope(Status::OK());
    JsonValue body = JsonValue::Object();
    body.Set("served", JsonValue::Int(static_cast<int64_t>(stats.served)));
    body.Set("failed", JsonValue::Int(static_cast<int64_t>(stats.failed)));
    body.Set("cancelled",
             JsonValue::Int(static_cast<int64_t>(stats.cancelled)));
    body.Set("deadline_expired_in_queue",
             JsonValue::Int(
                 static_cast<int64_t>(stats.deadline_expired_in_queue)));
    body.Set("batches", JsonValue::Int(static_cast<int64_t>(stats.batches)));
    JsonValue sessions = JsonValue::Array();
    for (const std::string& name : service.sessions().Names()) {
      sessions.Push(JsonValue::Str(name));
    }
    body.Set("sessions", std::move(sessions));
    reply.Set("stats", std::move(body));
  } else if (op == "shutdown") {
    reply = Envelope(Status::OK());
    handled.shutdown = true;
  } else {
    reply = Envelope(Status::InvalidArgument(
        "\"" + op +
        "\" is not an op; accepted: create_session, request, "
        "drop_session, stats, shutdown"));
  }

  handled.reply = WriteJson(reply);
  return handled;
}

// Longest request line served. A longer line gets one InvalidArgument
// reply and is discarded through its newline without being buffered,
// so a peer that never sends a newline cannot grow server memory.
constexpr size_t kMaxLineBytes = size_t{1} << 20;

// Writes all of `data`; false once the peer is gone.
bool WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t w = ::write(fd, data.data(), data.size());
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    data.remove_prefix(static_cast<size_t>(w));
  }
  return true;
}

// Serves the line protocol from `in` to `out` until EOF, a write
// failure or a shutdown op; returns true on shutdown (the TCP accept
// loop then exits). Each read is scanned once for newlines; only the
// unfinished tail of a line is kept between reads.
bool Serve(AdvisorService& service, int in, int out) {
  std::string line;
  bool discarding = false;  // Inside an oversized line.
  char chunk[64 * 1024];
  bool eof = false;
  while (!eof) {
    ssize_t n = ::read(in, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    std::string_view data(chunk, n > 0 ? static_cast<size_t>(n) : 0);
    if (n <= 0) {
      // End of input also ends an unterminated last line.
      eof = true;
      data = "\n";
    }
    while (!data.empty()) {
      const size_t newline = data.find('\n');
      const std::string_view piece = data.substr(0, newline);
      if (!discarding && line.size() + piece.size() > kMaxLineBytes) {
        discarding = true;
        line.clear();
        std::string reply = WriteJson(Envelope(Status::InvalidArgument(
            "request line exceeds " + std::to_string(kMaxLineBytes) +
            " bytes; discarded")));
        reply.push_back('\n');
        if (!WriteAll(out, reply)) return false;
      }
      if (!discarding) line.append(piece);
      if (newline == std::string_view::npos) break;
      data.remove_prefix(newline + 1);
      if (discarding) {
        discarding = false;
        continue;
      }
      if (line.empty()) continue;
      HandledLine handled = HandleLine(service, line);
      line.clear();
      handled.reply.push_back('\n');
      if (!WriteAll(out, handled.reply)) return false;
      if (handled.shutdown) return true;
    }
  }
  return false;
}

int RunTcp(AdvisorService& service, int port) {
  // A peer that disconnects before reading its reply must not kill the
  // server; write() returns EPIPE instead and the connection is dropped.
  ::signal(SIGPIPE, SIG_IGN);
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("socket");
    return 1;
  }
  int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    std::perror("bind");
    ::close(listener);
    return 1;
  }
  if (::listen(listener, 8) < 0) {
    std::perror("listen");
    ::close(listener);
    return 1;
  }
  std::fprintf(stderr, "advisor_server listening on 127.0.0.1:%d\n", port);
  bool shutdown = false;
  while (!shutdown) {
    int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) continue;
    shutdown = Serve(service, fd, fd);
    ::close(fd);
  }
  ::close(listener);
  return 0;
}

int Main(int argc, char** argv) {
  int port = -1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr,
                   "usage: advisor_server [--port N]\n"
                   "  default: line-delimited JSON over stdin/stdout\n"
                   "  --port N: listen on 127.0.0.1:N (same protocol)\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg.c_str());
      return 2;
    }
  }

  AdvisorService::Options options;
  Result<std::unique_ptr<AdvisorService>> service =
      AdvisorService::Create(std::move(options));
  if (!service.ok()) {
    std::fprintf(stderr, "failed to start: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  if (port >= 0) return RunTcp(*service.value(), port);
  Serve(*service.value(), STDIN_FILENO, STDOUT_FILENO);
  return 0;
}

}  // namespace
}  // namespace cloudview

int main(int argc, char** argv) { return cloudview::Main(argc, argv); }
