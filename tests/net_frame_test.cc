// Robustness tests for the framed-TCP front ends' parsing edge: zero-length,
// oversized, and truncated frames, malformed JSON payloads, the bounded
// per-connection buffer, and — over a real socket, against both the server
// and a router in front of one — that a connection stays usable after every
// class of bad frame and that a peer which never reads is held back.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/reactor.h"
#include "net/router.h"
#include "net/server.h"
#include "net/shard_map.h"
#include "service/json.h"
#include "service/session_service.h"

namespace qlearn {
namespace net {
namespace {

using common::Status;
using common::StatusCode;

std::string Framed(const std::string& payload,
                   size_t max = kDefaultMaxFrameBytes) {
  std::string out;
  EXPECT_TRUE(AppendFrame(payload, max, &out));
  return out;
}

TEST(FrameTest, AppendFrameEncodesBigEndianLength) {
  std::string out;
  ASSERT_TRUE(AppendFrame("abc", kDefaultMaxFrameBytes, &out));
  ASSERT_EQ(out.size(), kFrameHeaderBytes + 3);
  EXPECT_EQ(static_cast<unsigned char>(out[0]), 0);
  EXPECT_EQ(static_cast<unsigned char>(out[1]), 0);
  EXPECT_EQ(static_cast<unsigned char>(out[2]), 0);
  EXPECT_EQ(static_cast<unsigned char>(out[3]), 3);
  EXPECT_EQ(out.substr(kFrameHeaderBytes), "abc");
}

TEST(FrameTest, AppendFrameRejectsEmptyAndOversizedWithoutTouchingOut) {
  std::string out = "prefix";
  EXPECT_FALSE(AppendFrame("", kDefaultMaxFrameBytes, &out));
  EXPECT_EQ(out, "prefix");
  EXPECT_FALSE(AppendFrame(std::string(9, 'x'), /*max_frame_bytes=*/8, &out));
  EXPECT_EQ(out, "prefix");
  EXPECT_TRUE(AppendFrame(std::string(8, 'x'), /*max_frame_bytes=*/8, &out));
  EXPECT_EQ(out.size(), 6 + kFrameHeaderBytes + 8);
}

TEST(FrameTest, RoundTripsOneFrame) {
  FrameReader reader;
  const std::string framed = Framed("{\"op\":\"counters\"}");
  reader.Feed(framed.data(), framed.size());
  ASSERT_TRUE(reader.HasEvent());
  FrameReader::Event event = reader.Next();
  EXPECT_EQ(event.kind, FrameReader::Event::Kind::kFrame);
  EXPECT_EQ(event.payload, "{\"op\":\"counters\"}");
  EXPECT_FALSE(reader.HasEvent());
  EXPECT_FALSE(reader.MidFrame());
  EXPECT_EQ(reader.BufferedBytes(), 0u);
}

TEST(FrameTest, ReassemblesFramesFedOneByteAtATime) {
  FrameReader reader;
  std::string stream = Framed("first") + Framed("second") + Framed("third");
  std::vector<std::string> payloads;
  for (char byte : stream) {
    reader.Feed(&byte, 1);
    while (reader.HasEvent()) {
      FrameReader::Event event = reader.Next();
      ASSERT_EQ(event.kind, FrameReader::Event::Kind::kFrame);
      payloads.push_back(event.payload);
    }
  }
  EXPECT_EQ(payloads, (std::vector<std::string>{"first", "second", "third"}));
  EXPECT_FALSE(reader.MidFrame());
}

TEST(FrameTest, ZeroLengthFrameIsRecoverable) {
  FrameReader reader;
  const char zero_header[kFrameHeaderBytes] = {0, 0, 0, 0};
  reader.Feed(zero_header, sizeof(zero_header));
  ASSERT_TRUE(reader.HasEvent());
  FrameReader::Event bad = reader.Next();
  EXPECT_EQ(bad.kind, FrameReader::Event::Kind::kBadFrame);
  EXPECT_NE(bad.error.find("zero-length"), std::string::npos);
  // The reader resynchronizes at the next header: a good frame parses.
  const std::string good = Framed("after");
  reader.Feed(good.data(), good.size());
  ASSERT_TRUE(reader.HasEvent());
  EXPECT_EQ(reader.Next().payload, "after");
}

TEST(FrameTest, OversizedFrameIsDiscardedStreamingNotBuffered) {
  constexpr size_t kMax = 16;
  FrameReader reader(kMax);
  // Declare a 1000-byte payload against a 16-byte cap.
  const unsigned char header[kFrameHeaderBytes] = {0, 0, 0x03, 0xe8};
  reader.Feed(reinterpret_cast<const char*>(header), sizeof(header));
  ASSERT_TRUE(reader.HasEvent());
  FrameReader::Event bad = reader.Next();
  EXPECT_EQ(bad.kind, FrameReader::Event::Kind::kBadFrame);
  EXPECT_NE(bad.error.find("1000"), std::string::npos);
  // Stream the oversized body in chunks: the reader must not buffer it.
  std::string body(1000, 'x');
  for (size_t i = 0; i < body.size(); i += 100) {
    reader.Feed(body.data() + i, 100);
    EXPECT_LE(reader.BufferedBytes(), kFrameHeaderBytes + kMax);
  }
  EXPECT_FALSE(reader.MidFrame());
  // The byte after the declared body is a fresh header.
  const std::string good = Framed("ok", kMax);
  reader.Feed(good.data(), good.size());
  ASSERT_TRUE(reader.HasEvent());
  EXPECT_EQ(reader.Next().payload, "ok");
}

TEST(FrameTest, BufferedBytesNeverExceedsOneFrame) {
  constexpr size_t kMax = 64;
  FrameReader reader(kMax);
  const std::string stream = Framed(std::string(kMax, 'a'), kMax) +
                             Framed(std::string(kMax / 2, 'b'), kMax);
  for (size_t i = 0; i < stream.size(); ++i) {
    reader.Feed(stream.data() + i, 1);
    EXPECT_LE(reader.BufferedBytes(), kFrameHeaderBytes + kMax);
  }
  EXPECT_EQ(reader.EventCount(), 2u);
}

TEST(FrameTest, MidFrameDetectsTruncation) {
  FrameReader reader;
  const std::string framed = Framed("truncated payload");
  // Partial header.
  reader.Feed(framed.data(), 2);
  EXPECT_TRUE(reader.MidFrame());
  // Full header, partial payload.
  reader.Feed(framed.data() + 2, 5);
  EXPECT_TRUE(reader.MidFrame());
  EXPECT_FALSE(reader.HasEvent());
  // Rest of the payload: complete, no longer mid-frame.
  reader.Feed(framed.data() + 7, framed.size() - 7);
  EXPECT_FALSE(reader.MidFrame());
  ASSERT_TRUE(reader.HasEvent());
  EXPECT_EQ(reader.Next().payload, "truncated payload");
}

// --- Malformed JSON payloads at the protocol layer (no sockets). ---

StatusCode ErrorCodeOf(const std::string& response_frame) {
  auto parsed = ParseResponse(Request::Op::kCounters, response_frame);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString()
                           << " frame: " << response_frame;
  if (!parsed.ok()) return StatusCode::kOk;
  EXPECT_FALSE(parsed.value().status.ok()) << "frame: " << response_frame;
  return parsed.value().status.code();
}

/// One request frame through the dispatcher, with a fresh arena.
std::string Handle(service::SessionService* service,
                   const std::string& request) {
  service::json::Arena arena;
  std::string response;
  HandleFrameInto(service, request, &arena, &response);
  return response;
}

TEST(ProtocolTest, MalformedJsonYieldsStructuredParseError) {
  service::SessionService service;
  EXPECT_EQ(ErrorCodeOf(Handle(&service, "not json at all")),
            StatusCode::kParseError);
  EXPECT_EQ(ErrorCodeOf(Handle(&service, "{\"op\":\"ask\"")),
            StatusCode::kParseError);
  EXPECT_EQ(ErrorCodeOf(Handle(&service, "[1,2,3]")),
            StatusCode::kParseError);
  EXPECT_EQ(ErrorCodeOf(Handle(&service, "{\"op\":\"warp\"}")),
            StatusCode::kParseError);
  EXPECT_EQ(ErrorCodeOf(Handle(&service, "{\"op\":\"counters\",\"bogus\":1}")),
            StatusCode::kParseError);
  EXPECT_EQ(
      ErrorCodeOf(Handle(&service, "{\"op\":\"ask\",\"id\":\"s-1\",\"k\":1}")),
      StatusCode::kNotFound);
  EXPECT_EQ(service.Counters().errors, 1u);  // only the NotFound hit the
                                             // service; parse errors do not
}

TEST(ProtocolTest, RequestWithMoreKeysThanTheSeenMaskIsRejected) {
  // 65 keys with "op" at index 64 — past the 64-bit seen mask. The request
  // must come back as a structured parse error (unknown keys) with no
  // out-of-range shift on the lookup.
  service::SessionService service;
  std::string request = "{";
  for (int i = 0; i < 64; ++i) {
    request += "\"k" + std::to_string(i) + "\":1,";
  }
  request += "\"op\":\"counters\"}";
  EXPECT_EQ(Handle(&service, request),
            "{\"error\":{\"code\":\"ParseError\",\"message\":\"json: unknown "
            "key \\\"k0\\\" in \\\"counters\\\" request\"}}");
}

TEST(ProtocolTest, RawControlCharacterInAStringIsAParseError) {
  // RFC 8259 §7: a byte below 0x20 inside a string must be escaped. The
  // id below is rejected before any session lookup (not NotFound).
  service::SessionService service;
  EXPECT_EQ(Handle(&service, "{\"op\":\"status\",\"id\":\"s-\x01\"}"),
            "{\"error\":{\"code\":\"ParseError\",\"message\":\"json: "
            "unescaped control character in string at offset 23\"}}");
  EXPECT_EQ(service.Counters().errors, 0u);
}

/// ParseResponse's verdict on `frame` as Status::ToString ("OK" when the
/// frame parsed, whatever status it carried).
std::string ResponseVerdict(Request::Op op, const std::string& frame) {
  auto parsed = ParseResponse(op, frame);
  return parsed.ok() ? "OK" : parsed.status().ToString();
}

/// A well-formed counters ok frame from a fresh service.
std::string CountersFrame() {
  service::SessionService service;
  return Handle(&service, "{\"op\":\"counters\"}");
}

/// `frame` with the first occurrence of `from` replaced by `to`.
std::string Replace(std::string frame, const std::string& from,
                    const std::string& to) {
  const size_t at = frame.find(from);
  EXPECT_NE(at, std::string::npos) << from << " in " << frame;
  return at == std::string::npos ? frame : frame.replace(at, from.size(), to);
}

TEST(ProtocolTest, ResponseRejectionMatrix) {
  using Op = Request::Op;
  EXPECT_EQ(ResponseVerdict(Op::kTell, "{\"ok\":{},\"error\":{}}"),
            "ParseError: protocol: response must be an object with one key");
  EXPECT_EQ(ResponseVerdict(Op::kTell, "{\"maybe\":{}}"),
            "ParseError: protocol: expected \"ok\" or \"error\", got "
            "\"maybe\"");
  EXPECT_EQ(ResponseVerdict(
                Op::kTell, "{\"error\":{\"code\":\"Bogus\",\"message\":\"x\"}}"),
            "ParseError: protocol: unknown error code \"Bogus\"");
  EXPECT_EQ(ResponseVerdict(
                Op::kTell, "{\"error\":{\"code\":\"OK\",\"message\":\"x\"}}"),
            "ParseError: protocol: unknown error code \"OK\"");
  EXPECT_EQ(ResponseVerdict(Op::kTell, "{\"ok\":{\"extra\":1}}"),
            "ParseError: json: unknown key \"extra\" in \"tell\" ok body");

  // 65 members, the one known key ("id") last — past the 64-bit seen mask.
  std::string wide = "{\"ok\":{";
  for (int i = 0; i < 64; ++i) wide += "\"k" + std::to_string(i) + "\":1,";
  wide += "\"id\":\"s-1\"}}";
  EXPECT_EQ(ResponseVerdict(Op::kOpen, wide),
            "ParseError: json: unknown key \"k0\" in \"open\" ok body");

  const std::string counters = CountersFrame();
  ASSERT_EQ(ResponseVerdict(Op::kCounters, counters), "OK") << counters;
  std::string buckets = "[";
  for (int i = 0; i < 29; ++i) buckets += i == 0 ? "1" : ",1";
  buckets += "]";
  EXPECT_EQ(ResponseVerdict(Op::kCounters,
                            Replace(counters, "\"open\":[]",
                                    "\"open\":" + buckets)),
            "ParseError: protocol: \"open\" latency histogram has more than "
            "28 buckets");
  EXPECT_EQ(ResponseVerdict(Op::kCounters, Replace(counters, "\"ask\":[]",
                                                   "\"ask\":[1,true]")),
            "ParseError: protocol: non-integer bucket in \"ask\" latency "
            "histogram");

  EXPECT_EQ(ResponseVerdict(
                Op::kExport,
                "{\"ok\":{\"scenario\":\"join\",\"image\":\"abc\"}}"),
            "ParseError: protocol: \"image\" hex has odd length 3");
  EXPECT_EQ(ResponseVerdict(
                Op::kExport, "{\"ok\":{\"scenario\":\"join\",\"image\":\"AB\"}}"),
            "ParseError: protocol: \"image\" is not lowercase hex");
  EXPECT_EQ(ResponseVerdict(Op::kSessions, "{\"ok\":{\"ids\":[\"s-1\",7]}}"),
            "ParseError: protocol: non-string entry in \"ids\"");
}

TEST(ProtocolTest, MergeCountersFramesRejections) {
  const std::string counters = CountersFrame();
  const std::string error = SerializeError(Status::NotFound("gone"));
  // An error frame among the inputs wins and comes back verbatim.
  auto merged = MergeCountersFrames({counters, error, counters});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged.value(), error);
  // A malformed input frame is a ParseError naming the defect.
  merged = MergeCountersFrames({counters, "{\"ok\":{}"});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().ToString(),
            "ParseError: json: expected ',' or '}' in object at offset 8");
  merged = MergeCountersFrames({});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().ToString(),
            "ParseError: protocol: counters merge needs at least one frame");
  // Well-formed inputs sum.
  merged = MergeCountersFrames({counters, counters});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged.value(), counters);  // a fresh service's counters are 0
}

// A `counters` frame with a distinct nonzero value in every counter, gauge
// and histogram bucket (histogram lengths 0 to 28), written by hand so the
// wire layout is pinned independently of the serializer.
constexpr char kPinnedCountersA[] =
    "{\"ok\":{\"opens\":1,\"asks\":2,\"tells\":3,\"oracles\":4,\"statuses\":5,"
    "\"closes\":6,\"errors\":7,\"questions_served\":8,\"labels_accepted\":9,"
    "\"hibernates\":10,\"rehydrates\":11,\"hibernate_errors\":12,"
    "\"exports\":13,\"imports\":14,\"open_sessions\":15,"
    "\"resident_sessions\":16,\"parked_sessions\":17,\"latency_us\":{"
    "\"open\":[],\"ask\":[21],\"tell\":[31,32,33],"
    "\"oracle\":[41,42,43,44,45,46,47,48,49],"
    "\"status\":[51,52,53,54,55,56,57,58,59,60,61,62,63,64,65,66,67],"
    "\"close\":[71,72,73,74,75,76,77,78,79,80,81,82,83,84,85,86,87,88,89,90,"
    "91,92,93,94,95,96,97,98]}}}";
constexpr char kPinnedCountersB[] =
    "{\"ok\":{\"opens\":100,\"asks\":200,\"tells\":300,\"oracles\":400,"
    "\"statuses\":500,\"closes\":600,\"errors\":700,\"questions_served\":800,"
    "\"labels_accepted\":900,\"hibernates\":1000,\"rehydrates\":1100,"
    "\"hibernate_errors\":1200,\"exports\":1300,\"imports\":1400,"
    "\"open_sessions\":1500,\"resident_sessions\":1600,"
    "\"parked_sessions\":1700,\"latency_us\":{"
    "\"open\":[1000,2000],\"ask\":[2100],"
    "\"tell\":[3100,3200,3300,3400,3500],\"oracle\":[4100,4200,4300,4400],"
    "\"status\":[5100,5200,5300,5400,5500,5600,5700,5800,5900,6000,6100,6200,"
    "6300,6400,6500,6600,6700,6800,6900,7000,7100,7200,7300,7400,7500,7600,"
    "7700,7800],"
    "\"close\":[7100,7200,7300,7400,7500,7600,7700,7800,7900,8000,8100,8200,"
    "8300,8400,8500,8600,8700,8800,8900,9000,9100,9200,9300,9400,9500,9600,"
    "9700,9800]}}}";

/// `count` consecutive buckets counting up from `first`, zero beyond.
std::array<uint64_t, service::LatencySnapshot::kBuckets> Ramp(uint64_t first,
                                                              size_t count) {
  std::array<uint64_t, service::LatencySnapshot::kBuckets> buckets{};
  for (size_t i = 0; i < count; ++i) buckets[i] = first + i;
  return buckets;
}

TEST(ProtocolTest, PinnedCountersFrameParsesAndMergesEveryField) {
  auto parsed = ParseResponse(Request::Op::kCounters, kPinnedCountersA);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed.value().status.ok());
  const service::ServiceCounters& c = parsed.value().counters;
  EXPECT_EQ(c.opens, 1u);
  EXPECT_EQ(c.asks, 2u);
  EXPECT_EQ(c.tells, 3u);
  EXPECT_EQ(c.oracles, 4u);
  EXPECT_EQ(c.statuses, 5u);
  EXPECT_EQ(c.closes, 6u);
  EXPECT_EQ(c.errors, 7u);
  EXPECT_EQ(c.questions_served, 8u);
  EXPECT_EQ(c.labels_accepted, 9u);
  EXPECT_EQ(c.hibernates, 10u);
  EXPECT_EQ(c.rehydrates, 11u);
  EXPECT_EQ(c.hibernate_errors, 12u);
  EXPECT_EQ(c.exports, 13u);
  EXPECT_EQ(c.imports, 14u);
  EXPECT_EQ(parsed.value().open_sessions, 15u);
  EXPECT_EQ(parsed.value().resident_sessions, 16u);
  EXPECT_EQ(parsed.value().parked_sessions, 17u);
  EXPECT_EQ(c.open_latency_us.buckets, Ramp(0, 0));
  EXPECT_EQ(c.ask_latency_us.buckets, Ramp(21, 1));
  EXPECT_EQ(c.tell_latency_us.buckets, Ramp(31, 3));
  EXPECT_EQ(c.oracle_latency_us.buckets, Ramp(41, 9));
  EXPECT_EQ(c.status_latency_us.buckets, Ramp(51, 17));
  EXPECT_EQ(c.close_latency_us.buckets, Ramp(71, 28));

  // One frame merges to itself byte for byte; two sum field by field.
  auto merged = MergeCountersFrames({kPinnedCountersA});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged.value(), kPinnedCountersA);
  merged = MergeCountersFrames({kPinnedCountersA, kPinnedCountersB});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(
      merged.value(),
      "{\"ok\":{\"opens\":101,\"asks\":202,\"tells\":303,\"oracles\":404,"
      "\"statuses\":505,\"closes\":606,\"errors\":707,"
      "\"questions_served\":808,\"labels_accepted\":909,"
      "\"hibernates\":1010,\"rehydrates\":1111,\"hibernate_errors\":1212,"
      "\"exports\":1313,\"imports\":1414,\"open_sessions\":1515,"
      "\"resident_sessions\":1616,\"parked_sessions\":1717,\"latency_us\":{"
      "\"open\":[1000,2000],\"ask\":[2121],"
      "\"tell\":[3131,3232,3333,3400,3500],"
      "\"oracle\":[4141,4242,4343,4444,45,46,47,48,49],"
      "\"status\":[5151,5252,5353,5454,5555,5656,5757,5858,5959,6060,6161,"
      "6262,6363,6464,6565,6666,6767,6800,6900,7000,7100,7200,7300,7400,"
      "7500,7600,7700,7800],"
      "\"close\":[7171,7272,7373,7474,7575,7676,7777,7878,7979,8080,8181,"
      "8282,8383,8484,8585,8686,8787,8888,8989,9090,9191,9292,9393,9494,"
      "9595,9696,9797,9898]}}}");
}

TEST(ProtocolTest, ErrorFrameRoundTripsStatusCode) {
  const Status in = Status::ResourceExhausted("question budget exhausted");
  auto parsed = ParseResponse(Request::Op::kAsk, SerializeError(in));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(parsed.value().status.message(), "question budget exhausted");
}

// --- Over a real socket, through both front ends. ---

class RawConnection {
 public:
  /// `rcvbuf` > 0 shrinks the socket's receive buffer before connecting.
  explicit RawConnection(uint16_t port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    if (rcvbuf > 0) {
      EXPECT_EQ(::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                             sizeof(rcvbuf)),
                0);
    }
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }

  void SendBytes(const std::string& bytes) {
    size_t pos = 0;
    while (pos < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + pos, bytes.size() - pos,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      pos += static_cast<size_t>(n);
    }
  }

  /// Writes `chunk` over and over without reading anything back, until a
  /// send makes no progress for `stall_millis` or `max_bytes` are out.
  /// Returns the bytes written.
  size_t PipelineUntilStalled(const std::string& chunk, size_t max_bytes,
                              int stall_millis) {
    size_t sent = 0;
    size_t pos = 0;
    while (sent < max_bytes) {
      const ssize_t n = ::send(fd_, chunk.data() + pos, chunk.size() - pos,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        sent += static_cast<size_t>(n);
        pos = (pos + static_cast<size_t>(n)) % chunk.size();
        continue;
      }
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        ADD_FAILURE() << "send: " << std::strerror(errno);
        break;
      }
      pollfd p{fd_, POLLOUT, 0};
      if (::poll(&p, 1, stall_millis) == 0) break;  // stalled
    }
    return sent;
  }

  // Blocks for one complete response frame and returns its payload.
  std::string ReadResponse() {
    while (!reader_.HasEvent()) {
      char buffer[4096];
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) {
        ADD_FAILURE() << "connection closed while awaiting a response";
        return "";
      }
      reader_.Feed(buffer, static_cast<size_t>(n));
    }
    FrameReader::Event event = reader_.Next();
    EXPECT_EQ(event.kind, FrameReader::Event::Kind::kFrame);
    return event.payload;
  }

 private:
  int fd_ = -1;
  FrameReader reader_;
};

enum class FrontEnd { kServer, kRouter };

/// Every case runs against both front ends that share the reactor: a
/// Server, and a Router in front of one. `front` configures whichever
/// faces the client.
class ServerRobustnessTest : public ::testing::TestWithParam<FrontEnd> {
 protected:
  void StartFrontEnd(const ReactorOptions& front) {
    ServerOptions server_options;
    if (GetParam() == FrontEnd::kServer) {
      static_cast<ReactorOptions&>(server_options) = front;
    }
    server_ = std::make_unique<Server>(&service_, server_options);
    ASSERT_TRUE(server_->Start().ok());
    if (GetParam() == FrontEnd::kRouter) {
      ShardMap map;
      map.backends.push_back({"127.0.0.1", server_->port()});
      RouterOptions router_options;
      static_cast<ReactorOptions&>(router_options) = front;
      router_ = std::make_unique<Router>(std::move(map), router_options);
      ASSERT_TRUE(router_->Start().ok());
    }
  }

  uint16_t port() const {
    return router_ != nullptr ? router_->port() : server_->port();
  }

  /// The client-facing front end's reactor counters.
  ReactorStats stats() const {
    return router_ != nullptr ? router_->stats() : server_->stats();
  }

  /// Stops, and then restarts, the client-facing front end.
  void StopFrontEnd() {
    router_ != nullptr ? router_->Stop() : server_->Stop();
  }
  void RestartFrontEnd() {
    ASSERT_TRUE((router_ != nullptr ? router_->Start() : server_->Start()).ok());
  }

  /// Polls until the connections_open gauge reads `want` (the reactor
  /// accepts and notices closes asynchronously); returns the last reading.
  uint64_t AwaitConnectionsOpen(uint64_t want) const {
    uint64_t open = stats().connections_open;
    for (int i = 0; i < 500 && open != want; ++i) {
      ::usleep(10 * 1000);
      open = stats().connections_open;
    }
    return open;
  }

  service::SessionService service_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<Router> router_;
};

TEST_P(ServerRobustnessTest, ConnectionStaysUsableAfterEveryBadFrameClass) {
  ReactorOptions front;
  front.max_frame_bytes = 1 << 10;
  StartFrontEnd(front);

  RawConnection conn(port());

  // 1. Zero-length frame: structured error, connection stays up.
  conn.SendBytes(std::string(kFrameHeaderBytes, '\0'));
  EXPECT_EQ(ErrorCodeOf(conn.ReadResponse()), StatusCode::kInvalidArgument);

  // 2. Oversized frame (declared 64 KiB against a 1 KiB cap), full body
  //    actually sent: error for the frame, then the next frame parses.
  std::string oversized;
  oversized.push_back(0);
  oversized.push_back(1);
  oversized.push_back(0);
  oversized.push_back(0);
  oversized += std::string(1 << 16, 'x');
  conn.SendBytes(oversized);
  EXPECT_EQ(ErrorCodeOf(conn.ReadResponse()), StatusCode::kInvalidArgument);

  // 3. Malformed JSON in a well-formed frame.
  conn.SendBytes(Framed("this is not json"));
  EXPECT_EQ(ErrorCodeOf(conn.ReadResponse()), StatusCode::kParseError);

  // 4. Valid request on the same connection: still served.
  conn.SendBytes(Framed("{\"op\":\"counters\"}"));
  auto parsed =
      ParseResponse(Request::Op::kCounters, conn.ReadResponse());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value().status.ok())
      << parsed.value().status.ToString();

  const ReactorStats counts = stats();
  EXPECT_EQ(counts.bad_frames, 2u);       // zero-length + oversized
  EXPECT_EQ(counts.frames_received, 2u);  // malformed JSON + counters
}

TEST_P(ServerRobustnessTest, TruncatedFrameIsCountedOnDisconnect) {
  StartFrontEnd(ReactorOptions{});
  {
    RawConnection conn(port());
    std::string partial = Framed("{\"op\":\"counters\"}");
    partial.resize(partial.size() - 3);  // drop the payload's tail
    conn.SendBytes(partial);
    // Destructor closes the socket mid-frame.
  }
  // The reactor notices EOF asynchronously; poll until it has.
  for (int i = 0; i < 200 && stats().truncated_frames == 0; ++i) {
    ::usleep(10 * 1000);
  }
  EXPECT_EQ(stats().truncated_frames, 1u);
  EXPECT_EQ(stats().frames_received, 0u);
}

TEST_P(ServerRobustnessTest, ConnectionsOpenGaugeTracksClosesStopAndRestart) {
  StartFrontEnd(ReactorOptions{});
  auto first = std::make_unique<RawConnection>(port());
  auto second = std::make_unique<RawConnection>(port());
  auto third = std::make_unique<RawConnection>(port());
  EXPECT_EQ(AwaitConnectionsOpen(3), 3u);

  second.reset();
  third.reset();
  EXPECT_EQ(AwaitConnectionsOpen(1), 1u);

  // Stop closes the last one; the gauge stays at 0 across the restart
  // while connections_accepted accumulates.
  StopFrontEnd();
  EXPECT_EQ(stats().connections_open, 0u);
  RestartFrontEnd();
  EXPECT_EQ(stats().connections_open, 0u);
  EXPECT_EQ(stats().connections_accepted, 3u);
  first.reset();
  RawConnection fourth(port());
  EXPECT_EQ(AwaitConnectionsOpen(1), 1u);
  EXPECT_EQ(stats().connections_accepted, 4u);
}

TEST_P(ServerRobustnessTest, PipelinedRequestsAnswerInOrder) {
  StartFrontEnd(ReactorOptions{});
  RawConnection conn(port());

  // Burst: open, bad JSON, counters — all written before reading anything.
  conn.SendBytes(Framed("{\"op\":\"open\",\"scenario\":\"twig\"}") +
                 Framed("}{") + Framed("{\"op\":\"counters\"}"));

  auto open_parsed = ParseResponse(Request::Op::kOpen, conn.ReadResponse());
  ASSERT_TRUE(open_parsed.ok()) << open_parsed.status().ToString();
  EXPECT_TRUE(open_parsed.value().status.ok());
  EXPECT_FALSE(open_parsed.value().id.empty());

  EXPECT_EQ(ErrorCodeOf(conn.ReadResponse()), StatusCode::kParseError);

  auto counters_parsed =
      ParseResponse(Request::Op::kCounters, conn.ReadResponse());
  ASSERT_TRUE(counters_parsed.ok()) << counters_parsed.status().ToString();
  EXPECT_TRUE(counters_parsed.value().status.ok());
  EXPECT_EQ(counters_parsed.value().open_sessions, 1u);
}

TEST_P(ServerRobustnessTest, InlineBurstPastTheQueueCapDrainsCompletely) {
  // Inline dispatch with a tiny pipelining cap: a burst far past the cap,
  // written before reading a single response, must bound the front end's
  // queues (reads pause, dispatch stops at the cap) yet still answer
  // every request in order once the responses are read. Regression guard
  // for the output-backpressure path: the shard must neither queue
  // responses without bound nor park the connection with requests still
  // waiting.
  ReactorOptions front;
  front.max_queued_frames = 4;
  StartFrontEnd(front);
  RawConnection conn(port());

  constexpr int kRequests = 200;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    if (i % 2 == 0) {
      burst += Framed("{\"op\":\"counters\"}");
    } else {
      burst += Framed("{\"op\":\"status\",\"id\":\"s-" + std::to_string(i) +
                      "\"}");
    }
  }
  conn.SendBytes(burst);
  for (int i = 0; i < kRequests; ++i) {
    const std::string response = conn.ReadResponse();
    if (i % 2 == 0) {
      auto parsed = ParseResponse(Request::Op::kCounters, response);
      ASSERT_TRUE(parsed.ok()) << i << ": " << parsed.status().ToString();
      EXPECT_TRUE(parsed.value().status.ok()) << i;
    } else {
      EXPECT_EQ(ErrorCodeOf(response), StatusCode::kNotFound) << i;
    }
  }
}

/// The largest send buffer TCP autotuning may grow a socket to (the third
/// field of net.ipv4.tcp_wmem), or 4 MiB, the usual default, when the
/// sysctl is unreadable.
size_t TcpSendBufferMax() {
  size_t min = 0;
  size_t initial = 0;
  size_t max = 4 << 20;
  if (FILE* f = std::fopen("/proc/sys/net/ipv4/tcp_wmem", "r")) {
    if (std::fscanf(f, "%zu %zu %zu", &min, &initial, &max) != 3) {
      max = 4 << 20;
    }
    std::fclose(f);
  }
  return max;
}

TEST_P(ServerRobustnessTest, PeerThatNeverReadsStallsInFlowControl) {
  // A client pipelines requests and never reads a response. Once
  // max_queued_frames of its work is queued — unsent responses included —
  // the front end must stop reading it, so the client's sends stall and
  // frames_received stops growing instead of responses piling up in
  // memory.
  ReactorOptions front;
  StartFrontEnd(front);
  RawConnection conn(port(), /*rcvbuf=*/4096);
  const std::string request = "{\"id\":\"s-1\",\"op\":\"status\"}";
  const std::string frame = Framed(request);
  std::string chunk;
  for (int i = 0; i < 64; ++i) chunk += frame;

  // Well above what the kernel buffers between the two ends can hold
  // (the client's send buffer plus the front end's receive buffer, a few
  // MiB with default autotuning), so only a front end that keeps reading
  // gets this far.
  constexpr size_t kMaxBytes = 16 << 20;
  const size_t sent = conn.PipelineUntilStalled(chunk, kMaxBytes,
                                                /*stall_millis=*/300);
  EXPECT_LT(sent, kMaxBytes) << "sends never stalled";
  // The sends stall while megabytes still sit in the kernel buffers
  // between client and front end, which a slow (sanitized) front end keeps
  // draining — as far as its queue cap and the kernel's send buffer
  // towards the client allow. Wait until it has been quiet for a second,
  // then require it to stay quiet.
  uint64_t received = stats().frames_received;
  for (int quiet_ms = 0, waited_ms = 0; quiet_ms < 1000 && waited_ms < 30000;
       waited_ms += 100) {
    ::usleep(100 * 1000);
    const uint64_t now = stats().frames_received;
    quiet_ms = now == received ? quiet_ms + 100 : 0;
    received = now;
  }
  ::usleep(500 * 1000);
  EXPECT_EQ(stats().frames_received, received);

  // What the front end may have consumed: its queue cap, one 64 KiB read
  // of frames past it, and the responses that fit in the kernel's socket
  // buffers towards the client (the send buffer at its autotuning limit
  // plus 64 KiB for the client's receive side).
  service::SessionService scratch;
  const size_t response_bytes =
      kFrameHeaderBytes + Handle(&scratch, request).size();
  const uint64_t bound = front.max_queued_frames +
                         (64 << 10) / frame.size() +
                         (TcpSendBufferMax() + (64 << 10)) / response_bytes;
  EXPECT_LT(received, bound) << sent << " bytes sent";
}

INSTANTIATE_TEST_SUITE_P(
    FrontEnds, ServerRobustnessTest,
    ::testing::Values(FrontEnd::kServer, FrontEnd::kRouter),
    [](const ::testing::TestParamInfo<FrontEnd>& info) {
      return info.param == FrontEnd::kServer ? "Server" : "RouterToServer";
    });

TEST(BufferPoolTest, RecyclesCapacityAndEnforcesCaps) {
  BufferPool pool(/*max_buffers=*/2, /*max_buffer_bytes=*/1024);
  std::string buffer = pool.Acquire();
  EXPECT_TRUE(buffer.empty());
  buffer.assign(512, 'x');
  const size_t capacity = buffer.capacity();
  pool.Release(std::move(buffer));
  EXPECT_EQ(pool.PooledCount(), 1u);

  // The next Acquire reuses the released capacity, cleared.
  std::string reused = pool.Acquire();
  EXPECT_TRUE(reused.empty());
  EXPECT_GE(reused.capacity(), capacity);
  EXPECT_EQ(pool.PooledCount(), 0u);

  // A buffer that outgrew the per-buffer cap is dropped, not pooled.
  std::string oversized(4096, 'y');
  pool.Release(std::move(oversized));
  EXPECT_EQ(pool.PooledCount(), 0u);

  // The free list is bounded at max_buffers.
  for (int i = 0; i < 5; ++i) {
    std::string b(64, 'z');
    pool.Release(std::move(b));
  }
  EXPECT_EQ(pool.PooledCount(), 2u);

  // Capacity-less strings are not worth pooling.
  pool.Release(std::string());
  EXPECT_EQ(pool.PooledCount(), 2u);
}

TEST(BufferPoolTest, FrameReaderDrawsReassemblyBuffersFromThePool) {
  BufferPool pool(/*max_buffers=*/4, /*max_buffer_bytes=*/1024);
  FrameReader reader;
  reader.set_pool(&pool);

  // Seed the pool with one recognizable buffer.
  std::string seeded;
  seeded.reserve(256);
  pool.Release(std::move(seeded));
  ASSERT_EQ(pool.PooledCount(), 1u);

  const std::string wire = Framed("{\"op\":\"counters\"}");
  reader.Feed(wire.data(), wire.size());
  ASSERT_TRUE(reader.HasEvent());
  FrameReader::Event event = reader.Next();
  EXPECT_EQ(event.payload, "{\"op\":\"counters\"}");
  // The reassembly buffer came from the pool...
  EXPECT_EQ(pool.PooledCount(), 0u);
  // ...and the consumer hands the payload back, completing the cycle.
  pool.Release(std::move(event.payload));
  EXPECT_EQ(pool.PooledCount(), 1u);

  // Steady state: framing the same payload again reuses that one buffer.
  reader.Feed(wire.data(), wire.size());
  ASSERT_TRUE(reader.HasEvent());
  FrameReader::Event again = reader.Next();
  EXPECT_EQ(again.payload, "{\"op\":\"counters\"}");
  EXPECT_EQ(pool.PooledCount(), 0u);
}

}  // namespace
}  // namespace net
}  // namespace qlearn
