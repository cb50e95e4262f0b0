/**
 * @file
 * Tests of the loopback Listener behind vnoised, the router, the HTTP
 * gateway and the faultnet proxy: port 0 resolution, reaping of
 * short-lived connections, stop() waking a handler blocked in read(),
 * and no descriptor leak across start/stop cycles — for the bare
 * Listener and for the HTTP gateway built on it. Kit-free.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <string>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "service/http.hh"
#include "service/listener.hh"
#include "service/metrics.hh"

namespace
{

using namespace vn::service;
using Connection = Listener::Connection;

int
connectTo(int port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    return fd;
}

/** Open descriptors of this process. */
size_t
openFds()
{
    size_t n = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/fd")) {
        (void)entry;
        ++n;
    }
    return n;
}

/** Poll `probe` for up to 3 s until it returns `want`. */
template <typename Probe>
size_t
settlesTo(size_t want, Probe probe)
{
    size_t got = probe();
    for (int i = 0; i < 300 && got != want; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        got = probe();
    }
    return got;
}

/** Handler that echoes one byte back and hangs up. */
void
echoOneByte(const std::shared_ptr<Connection> &conn)
{
    char byte;
    if (::read(conn->fd, &byte, 1) == 1)
        ::send(conn->fd, &byte, 1, MSG_NOSIGNAL);
}

/** One echo round-trip on a fresh connection. */
char
echo(int port, char byte)
{
    int fd = connectTo(port);
    EXPECT_EQ(::send(fd, &byte, 1, MSG_NOSIGNAL), 1);
    char back = 0;
    EXPECT_EQ(::read(fd, &back, 1), 1);
    ::close(fd);
    return back;
}

TEST(Listener, PortZeroResolvesToTheBoundPort)
{
    Listener listener("test", 0);
    listener.start(echoOneByte);
    ASSERT_GT(listener.port(), 0);
    EXPECT_EQ(echo(listener.port(), 'x'), 'x');
    listener.stop();
}

TEST(Listener, ShortLivedConnectionsAreReapedToZero)
{
    Listener listener("test", 0);
    std::atomic<uint64_t> max_ordinal{0};
    listener.start([&](const std::shared_ptr<Connection> &conn) {
        max_ordinal.store(std::max(max_ordinal.load(), conn->ordinal));
        echoOneByte(conn);
    });
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(echo(listener.port(), static_cast<char>('a' + i)),
                  static_cast<char>('a' + i));

    // Reaping is asynchronous: the accept thread joins a finished
    // handler when its wake byte arrives.
    EXPECT_EQ(settlesTo(0, [&] { return listener.liveConnections(); }),
              0u);
    EXPECT_EQ(listener.accepted(), 16u);
    EXPECT_EQ(max_ordinal.load(), 16u) << "ordinals are 1-based";
    listener.stop();
}

TEST(Listener, StopWakesAHandlerBlockedInRead)
{
    Listener listener("test", 0);
    std::promise<void> entered;
    std::atomic<ssize_t> read_result{-2};
    listener.start([&](const std::shared_ptr<Connection> &conn) {
        entered.set_value();
        char byte;
        read_result.store(::read(conn->fd, &byte, 1));
    });

    int fd = connectTo(listener.port()); // connects, never sends
    ASSERT_EQ(entered.get_future().wait_for(std::chrono::seconds(5)),
              std::future_status::ready);
    EXPECT_EQ(listener.liveConnections(), 1u);

    auto begun = std::chrono::steady_clock::now();
    listener.stop();
    EXPECT_LT(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - begun)
                  .count(),
              2.0);
    EXPECT_EQ(read_result.load(), 0) << "shutdown surfaces as EOF";
    EXPECT_TRUE(listener.stopping());
    EXPECT_EQ(listener.liveConnections(), 0u);

    // The peer sees the hangup, and nothing listens any more.
    char byte;
    EXPECT_EQ(::read(fd, &byte, 1), 0);
    ::close(fd);
}

TEST(Listener, StartStopCyclesLeakNoDescriptors)
{
    size_t before = openFds();
    for (int cycle = 0; cycle < 5; ++cycle) {
        Listener listener("test", 0);
        listener.start(echoOneByte);
        for (int i = 0; i < 4; ++i)
            EXPECT_EQ(echo(listener.port(), 'z'), 'z');
        // One connection still open at stop(): its handler is woken
        // and its socket closed with the rest.
        int idle = connectTo(listener.port());
        listener.stop();
        ::close(idle);
    }
    EXPECT_EQ(openFds(), before);
}

TEST(Listener, HttpGatewayReapsFinishedScrapes)
{
    size_t before = openFds();
    MetricsRegistry metrics;
    HttpGateway gateway(nullptr, metrics, HttpConfig{},
                        HttpGateway::Hooks{});
    gateway.start();
    size_t listening = before + 3; // listen socket + wake pipe

    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(httpRequestForTest(gateway.port(),
                                     "GET /healthz HTTP/1.1\r\n"
                                     "Host: localhost\r\n"
                                     "Connection: close\r\n\r\n")
                      .status,
                  200);
    // Each finished scrape's socket is closed by its own thread, and
    // the thread is reaped; neither accumulates until stop().
    EXPECT_EQ(settlesTo(listening, openFds), listening);
    gateway.stop();
    EXPECT_EQ(openFds(), before);
}

} // namespace
