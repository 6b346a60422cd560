// Tests for kav::net (src/net/): EventLoop task posting, stop
// semantics, and periodic timers; TcpListener/TcpConnection echo over
// loopback with buffered writes; the incremental HTTP request parser
// and response renderer. Socket tests bind 127.0.0.1:0 (ephemeral) so
// they never collide across parallel ctest workers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.h"
#include "net/http.h"
#include "net/tcp.h"

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace kav::net {
namespace {

// --- EventLoop -------------------------------------------------------------

TEST(NetEventLoop, PostedTasksRunOnLoopThreadInOrder) {
  EventLoop loop;
  std::vector<int> order;
  std::atomic<bool> on_loop{false};
  loop.post([&] { order.push_back(1); });
  loop.post([&] { order.push_back(2); });
  loop.post([&loop, &on_loop] { on_loop = loop.on_loop_thread(); });
  loop.post([&loop] { loop.stop(); });
  loop.run();  // drains the queue in order, then the stop lands
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_TRUE(on_loop.load());
  EXPECT_FALSE(loop.on_loop_thread());  // run() returned
}

TEST(NetEventLoop, StopFromAnotherThreadWakesABlockedLoop) {
  EventLoop loop;
  std::thread runner([&loop] { loop.run(); });
  // No fds, no timers: the loop is parked in epoll_wait until woken.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  loop.stop();
  runner.join();  // hangs forever if stop() fails to wake the loop
  SUCCEED();
}

TEST(NetEventLoop, PeriodicFiresRepeatedly) {
  EventLoop loop;
  int fires = 0;
  loop.add_periodic(std::chrono::milliseconds(5), [&] {
    if (++fires >= 3) loop.stop();
  });
  loop.run();
  EXPECT_GE(fires, 3);
}

TEST(NetEventLoop, PostAfterStopRunsOnNextRun) {
  EventLoop loop;
  loop.post([&loop] { loop.stop(); });
  loop.run();
  bool ran = false;
  loop.post([&ran] { ran = true; });
  loop.post([&loop] { loop.stop(); });
  loop.run();  // re-runnable; earlier-enqueued tasks still fire
  EXPECT_TRUE(ran);
}

#if defined(__linux__)

// --- Listener + connection over loopback -----------------------------------

// Minimal blocking client: connect, send `request`, read to EOF.
std::string blocking_round_trip(std::uint16_t port,
                                const std::string& request) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("client socket failed");
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    close(fd);
    throw std::runtime_error("client connect failed");
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = write(fd, request.data() + sent, request.size() - sent);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string reply;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  close(fd);
  return reply;
}

TEST(NetTcp, ListenerResolvesEphemeralPort) {
  TcpListener listener("127.0.0.1", 0);
  EXPECT_EQ(listener.bound_address(), "127.0.0.1");
  EXPECT_NE(listener.bound_port(), 0);
}

TEST(NetTcp, RejectsUnparseableAddress) {
  EXPECT_THROW(TcpListener("not-an-address", 0), std::runtime_error);
}

TEST(NetTcp, EchoRoundTripThenCloseAfterFlush) {
  EventLoop loop;
  TcpListener listener("127.0.0.1", 0);
  std::unique_ptr<TcpConnection> conn;
  loop.add_fd(listener.fd(), kReadable, [&](std::uint32_t) {
    const int fd = listener.accept_one();
    if (fd < 0) return;
    conn = std::make_unique<TcpConnection>(loop, fd);
    conn->set_on_data([&](std::string_view data) {
      conn->send(data);  // echo everything, hang up at the newline
      if (data.find('\n') != std::string_view::npos) {
        conn->close_after_flush();
      }
      return data.size();
    });
    conn->set_on_close([&loop] { loop.stop(); });
  });
  std::thread server([&loop] { loop.run(); });
  const std::string reply =
      blocking_round_trip(listener.bound_port(), "hello echo\n");
  server.join();
  EXPECT_EQ(reply, "hello echo\n");
}

TEST(NetTcp, LargeBufferedWriteFlushesCompletely) {
  // A response far beyond one socket buffer forces the EPOLLOUT
  // backlog path: send() queues, the loop drains as the client reads.
  const std::string payload(4 * 1024 * 1024, 'x');
  EventLoop loop;
  TcpListener listener("127.0.0.1", 0);
  std::unique_ptr<TcpConnection> conn;
  loop.add_fd(listener.fd(), kReadable, [&](std::uint32_t) {
    const int fd = listener.accept_one();
    if (fd < 0) return;
    conn = std::make_unique<TcpConnection>(loop, fd);
    conn->set_on_data([&](std::string_view data) {
      conn->send(payload);
      conn->close_after_flush();
      return data.size();
    });
    conn->set_on_close([&loop] { loop.stop(); });
  });
  std::thread server([&loop] { loop.run(); });
  const std::string reply = blocking_round_trip(listener.bound_port(), "go\n");
  server.join();
  EXPECT_EQ(reply.size(), payload.size());
  EXPECT_EQ(reply, payload);
}

#endif  // defined(__linux__)

// --- HTTP parser -----------------------------------------------------------

TEST(NetHttp, ParsesRequestLineAndHeaders) {
  HttpRequest request;
  const std::string raw =
      "GET /metrics?x=1 HTTP/1.1\r\nHost: localhost\r\n"
      "X-Custom:  spaced value \r\n\r\nleftover";
  const ParseResult parsed = parse_request(raw, request);
  ASSERT_EQ(parsed.status, ParseStatus::ok);
  EXPECT_EQ(parsed.consumed, raw.size() - std::string("leftover").size());
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/metrics?x=1");
  EXPECT_EQ(request.path(), "/metrics");
  EXPECT_EQ(request.version, "HTTP/1.1");
  EXPECT_EQ(request.header("host"), "localhost");
  EXPECT_EQ(request.header("x-custom"), "spaced value");
  EXPECT_EQ(request.header("absent"), "");
  EXPECT_TRUE(request.keep_alive());
}

TEST(NetHttp, NeedMoreUntilBlankLine) {
  HttpRequest request;
  EXPECT_EQ(parse_request("GET / HTTP/1.1\r\nHost: x\r\n", request).status,
            ParseStatus::need_more);
  EXPECT_EQ(parse_request("", request).status, ParseStatus::need_more);
}

TEST(NetHttp, MalformedRequestsAreBad) {
  HttpRequest request;
  // No version.
  EXPECT_EQ(parse_request("GET /\r\n\r\n", request).status, ParseStatus::bad);
  // Unsupported version token.
  EXPECT_EQ(parse_request("GET / HTTP/2\r\n\r\n", request).status,
            ParseStatus::bad);
  // Header line without a colon.
  EXPECT_EQ(
      parse_request("GET / HTTP/1.1\r\nbogus line\r\n\r\n", request).status,
      ParseStatus::bad);
  // Declared body on the read-only surface.
  EXPECT_EQ(parse_request(
                "POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc", request)
                .status,
            ParseStatus::bad);
  // An empty Content-Length, and a nonzero one behind a zero one.
  EXPECT_EQ(
      parse_request("GET / HTTP/1.1\r\nContent-Length: \r\n\r\n", request)
          .status,
      ParseStatus::bad);
  EXPECT_EQ(parse_request("GET / HTTP/1.1\r\nContent-Length: 0\r\n"
                          "Content-Length: 5\r\n\r\nabcde",
                          request)
                .status,
            ParseStatus::bad);
}

TEST(NetHttp, HeadSizeCapAnswersTooLarge) {
  HttpRequest request;
  const std::string huge =
      "GET / HTTP/1.1\r\nX-Pad: " + std::string(1024, 'a') + "\r\n\r\n";
  EXPECT_EQ(parse_request(huge, request, 64).status, ParseStatus::too_large);
  // An incomplete head already over the cap is hopeless too.
  EXPECT_EQ(parse_request(std::string(100, 'a'), request, 64).status,
            ParseStatus::too_large);
}

TEST(NetHttp, KeepAliveSemanticsByVersion) {
  HttpRequest request;
  // 1.1 + Connection: close.
  ASSERT_EQ(parse_request(
                "GET / HTTP/1.1\r\nConnection: close\r\n\r\n", request)
                .status,
            ParseStatus::ok);
  EXPECT_FALSE(request.keep_alive());
  // 1.0 defaults to close...
  ASSERT_EQ(parse_request("GET / HTTP/1.0\r\n\r\n", request).status,
            ParseStatus::ok);
  EXPECT_FALSE(request.keep_alive());
  // ...unless it asks to stay open.
  ASSERT_EQ(parse_request(
                "GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n", request)
                .status,
            ParseStatus::ok);
  EXPECT_TRUE(request.keep_alive());
}

TEST(NetHttp, PipelinedRequestsParseSequentially) {
  const std::string two =
      "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
  HttpRequest request;
  const ParseResult first = parse_request(two, request);
  ASSERT_EQ(first.status, ParseStatus::ok);
  EXPECT_EQ(request.target, "/a");
  const ParseResult second =
      parse_request(std::string_view(two).substr(first.consumed), request);
  ASSERT_EQ(second.status, ParseStatus::ok);
  EXPECT_EQ(request.target, "/b");
  EXPECT_EQ(first.consumed + second.consumed, two.size());
}

TEST(NetHttp, RenderResponseShape) {
  const std::string wire =
      render_response(200, "text/plain", "hello", /*keep_alive=*/true);
  EXPECT_EQ(wire.find("HTTP/1.1 200 OK\r\n"), 0u);
  EXPECT_NE(wire.find("Content-Type: text/plain\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 9), "\r\n\r\nhello");

  const std::string closed =
      render_response(404, "", "gone", /*keep_alive=*/false);
  EXPECT_EQ(closed.find("HTTP/1.1 404 Not Found\r\n"), 0u);
  EXPECT_EQ(closed.find("Content-Type"), std::string::npos);
  EXPECT_NE(closed.find("Connection: close\r\n"), std::string::npos);
}

}  // namespace
}  // namespace kav::net
