#include "service/listener.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/time.h>
#include <unistd.h>

#include "util/logging.hh"

namespace vn::service
{

namespace
{

/** Backlog of every listen socket. */
constexpr int kListenBacklog = 64;

/** Wake-pipe write end for the signal handlers (one per process). */
std::atomic<int> g_signal_wake_fd{-1};

/** Shutdown signals received since installSignalHandlers(). */
std::atomic<int> g_signal_count{0};

extern "C" void
handleShutdownSignal(int)
{
    if (g_signal_count.fetch_add(1, std::memory_order_relaxed) >= 1) {
        // Second signal: the operator is done waiting for the
        // graceful drain. _exit is async-signal-safe and skips every
        // destructor — nothing below may be trusted mid-drain anyway.
        ::_exit(130);
    }
    int fd = g_signal_wake_fd.load(std::memory_order_relaxed);
    if (fd >= 0) {
        char byte = 's';
        // Best effort: a full pipe means a wake-up is already pending.
        [[maybe_unused]] ssize_t rc = ::write(fd, &byte, 1);
    }
}

void
setSocketTimeout(int fd, int option, double seconds)
{
    if (seconds <= 0.0)
        return;
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec = static_cast<suseconds_t>(
        (seconds - static_cast<double>(tv.tv_sec)) * 1e6);
    ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

} // namespace

Listener::Listener(std::string name, int port, double send_timeout_s,
                   double recv_timeout_s)
    : name_(std::move(name)), requested_port_(port),
      send_timeout_s_(send_timeout_s), recv_timeout_s_(recv_timeout_s)
{}

Listener::~Listener()
{
    stop();
}

void
Listener::start(Handler handler)
{
    if (started_)
        fatal(name_, ": start() called twice");
    handler_ = std::move(handler);

    // Non-blocking write end: a handler's reap request must never
    // block on a full pipe (one is already pending then anyway).
    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_CLOEXEC | O_NONBLOCK) != 0)
        fatal(name_, ": pipe: ", std::strerror(errno));
    wake_read_fd_ = pipe_fds[0];
    wake_write_fd_ = pipe_fds[1];

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0)
        fatal(name_, ": socket: ", std::strerror(errno));
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    // Loopback only: every listener here is a local co-processor or
    // scrape/debug surface, not an exposed network service.
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(requested_port_));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        fatal(name_, ": bind 127.0.0.1:", requested_port_, ": ",
              std::strerror(errno));
    if (::listen(listen_fd_, kListenBacklog) != 0)
        fatal(name_, ": listen: ", std::strerror(errno));

    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        fatal(name_, ": getsockname: ", std::strerror(errno));
    port_ = ntohs(addr.sin_port);

    started_ = true;
    accept_thread_ = std::thread([this] { acceptLoop(); });
}

void
Listener::installSignalHandlers()
{
    if (!started_)
        fatal(name_, ": installSignalHandlers() before start()");
    g_signal_wake_fd.store(wake_write_fd_, std::memory_order_relaxed);
    g_signal_count.store(0, std::memory_order_relaxed);
    struct sigaction action{};
    action.sa_handler = handleShutdownSignal;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);
}

void
Listener::wake(char byte)
{
    [[maybe_unused]] ssize_t rc = ::write(wake_write_fd_, &byte, 1);
}

void
Listener::requestStop()
{
    if (!started_ || stopping_.exchange(true))
        return;
    wake('q');
}

void
Listener::awaitStop()
{
    if (accept_thread_.joinable())
        accept_thread_.join();
}

void
Listener::stop(int how)
{
    if (!started_ || stopped_)
        return;
    stopped_ = true;
    requestStop();
    awaitStop();

    std::vector<std::shared_ptr<Connection>> conns;
    {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        conns.swap(connections_);
    }
    for (auto &conn : conns) {
        // The handler's exit closes the fd (and writes -1) under
        // write_mutex; taking it here keeps this shutdown off a
        // concurrently closed — possibly already recycled — descriptor.
        std::lock_guard<std::mutex> lock(conn->write_mutex);
        if (how == SHUT_RDWR)
            conn->open.store(false);
        if (conn->fd >= 0)
            ::shutdown(conn->fd, how);
        // A handler that publishes its peer after this load sees
        // open == false and shuts the fresh socket down itself.
        int peer = conn->peer_fd.load();
        if (peer >= 0)
            ::shutdown(peer, how);
    }
    for (auto &conn : conns)
        if (conn->thread.joinable())
            conn->thread.join();

    if (g_signal_wake_fd.load() == wake_write_fd_)
        g_signal_wake_fd.store(-1);
    ::close(listen_fd_);
    ::close(wake_read_fd_);
    ::close(wake_write_fd_);
    listen_fd_ = wake_read_fd_ = wake_write_fd_ = -1;
}

size_t
Listener::liveConnections() const
{
    std::lock_guard<std::mutex> lock(connections_mutex_);
    return connections_.size();
}

void
Listener::reap()
{
    std::vector<std::shared_ptr<Connection>> finished;
    {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        auto live_end = std::partition(
            connections_.begin(), connections_.end(),
            [](const std::shared_ptr<Connection> &c) {
                return !c->done.load();
            });
        finished.assign(live_end, connections_.end());
        connections_.erase(live_end, connections_.end());
    }
    for (auto &conn : finished)
        if (conn->thread.joinable())
            conn->thread.join();
}

void
Listener::acceptLoop()
{
    while (true) {
        pollfd fds[2] = {
            {listen_fd_, POLLIN, 0},
            {wake_read_fd_, POLLIN, 0},
        };
        int ready = ::poll(fds, 2, -1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        if (fds[1].revents != 0) {
            // Drain the wake pipe: 'r' asks for a connection reap,
            // anything else ('q' from requestStop, 's' from a signal)
            // means stop.
            char buf[64];
            ssize_t got = ::read(wake_read_fd_, buf, sizeof(buf));
            bool quit = stopping_.load();
            for (ssize_t i = 0; i < got; ++i)
                quit = quit || buf[i] != 'r';
            reap();
            if (quit) {
                stopping_.store(true);
                return;
            }
        }
        if ((fds[0].revents & POLLIN) == 0)
            continue;

        int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd < 0)
            continue;
        setSocketTimeout(fd, SO_SNDTIMEO, send_timeout_s_);
        setSocketTimeout(fd, SO_RCVTIMEO, recv_timeout_s_);

        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        conn->ordinal = accepted_.fetch_add(1) + 1;
        {
            std::lock_guard<std::mutex> lock(connections_mutex_);
            connections_.push_back(conn);
        }
        // conn->thread is only touched by this thread (start here,
        // join in reap) or after it exits (stop()).
        conn->thread = std::thread([this, conn] {
            handler_(conn);
            // Tear the connection down here rather than at stop():
            // a long-running daemon must not accumulate one fd per
            // short-lived client. Closing under the write mutex means
            // a writer on another thread either already finished or
            // sees open == false and skips.
            {
                std::lock_guard<std::mutex> lock(conn->write_mutex);
                conn->open.store(false);
                ::close(conn->fd);
                conn->fd = -1;
                int peer = conn->peer_fd.exchange(-1);
                if (peer >= 0)
                    ::close(peer);
            }
            conn->done.store(true);
            // Ask the accept loop to join this thread and drop the
            // entry.
            wake('r');
        });
    }
}

} // namespace vn::service
