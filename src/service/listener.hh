/**
 * @file
 * The loopback listener shared by vnoised, the router, the HTTP gateway
 * and the faultnet proxy.
 *
 * One accept thread poll()s the 127.0.0.1 listen socket plus a
 * self-pipe. Each accepted connection (close-on-exec, with the owner's
 * send/receive timeouts) gets its own handler thread. When a handler
 * returns, its socket is closed under the connection's write mutex and
 * an `r` byte on the pipe asks the accept thread to join the thread and
 * drop the entry, so a long-running daemon holds no fd or thread per
 * past client. Any other wake byte (`q` from requestStop(), `s` from a
 * signal) ends the accept loop.
 *
 * Teardown is split so each owner keeps its own drain order: awaitStop()
 * returns once the accept loop has ended (the listen socket still
 * exists, but nothing accepts from it), and stop() then shuts every
 * connection down, joins the handlers, and closes all descriptors.
 * The server drains its dispatcher between the two; the router stops
 * with SHUT_RD so in-flight responses still go out.
 */

#ifndef VN_SERVICE_LISTENER_HH
#define VN_SERVICE_LISTENER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>

namespace vn::service
{

/** Loopback accept loop with a thread per connection; see the file
 *  comment. */
class Listener
{
  public:
    /** One accepted connection, shared with its handler thread. */
    struct Connection
    {
        /** The accepted socket; closed by the Listener (under
         *  write_mutex, -1 afterwards) once the handler returns. */
        int fd = -1;

        /**
         * Optional second socket owned by the handler (the faultnet
         * proxy's upstream). stop() shuts it down with `fd`, and it is
         * closed with `fd`.
         */
        std::atomic<int> peer_fd{-1};

        /** 1-based accept ordinal: stable, never reused. */
        uint64_t ordinal = 0;

        /** Serializes writers; `fd` is only closed while holding it. */
        std::mutex write_mutex;

        /** False once writes must stop; checked under write_mutex. */
        std::atomic<bool> open{true};

      private:
        friend class Listener;
        std::thread thread;
        std::atomic<bool> done{false};
    };

    /** Serves one connection; returns when done with it. */
    using Handler =
        std::function<void(const std::shared_ptr<Connection> &)>;

    /**
     * @param name           fatal() message prefix ("Server", ...)
     * @param port           port on 127.0.0.1; 0 picks an ephemeral one
     * @param send_timeout_s SO_SNDTIMEO on accepted sockets; <= 0: none
     * @param recv_timeout_s SO_RCVTIMEO on accepted sockets; <= 0: none
     */
    Listener(std::string name, int port, double send_timeout_s = 0.0,
             double recv_timeout_s = 0.0);

    /** stop() if still running. */
    ~Listener();

    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /** Bind, listen, and spawn the accept loop. fatal() on failure. */
    void start(Handler handler);

    /** The bound port (resolves port 0 after start()). */
    int port() const { return port_; }

    /**
     * Route SIGINT/SIGTERM to this listener's wake pipe (one per
     * process); a SECOND signal exits the process at once with status
     * 130, for operators done waiting on a drain. Call after start().
     */
    void installSignalHandlers();

    /** Async-signal-safe stop trigger; returns immediately. */
    void requestStop();

    /** True once a stop was requested (call, signal, or stop()). */
    bool stopping() const { return stopping_.load(); }

    /** Block until the accept loop has ended (a stop was requested). */
    void awaitStop();

    /**
     * requestStop() + awaitStop(), then shutdown(`how`) every
     * connection (SHUT_RDWR also clears `open`), join every handler,
     * and close every descriptor. Idempotent.
     */
    void stop(int how = SHUT_RDWR);

    /** Connections not yet reaped (live + finished-but-unjoined). */
    size_t liveConnections() const;

    /** Connections accepted so far. */
    uint64_t accepted() const { return accepted_.load(); }

  private:
    void acceptLoop();
    void reap();
    void wake(char byte);

    std::string name_;
    int requested_port_;
    double send_timeout_s_;
    double recv_timeout_s_;
    Handler handler_;

    int listen_fd_ = -1;
    int wake_read_fd_ = -1;
    int wake_write_fd_ = -1;
    int port_ = 0;
    bool started_ = false;
    bool stopped_ = false;
    std::atomic<bool> stopping_{false};
    std::atomic<uint64_t> accepted_{0};

    mutable std::mutex connections_mutex_;
    std::vector<std::shared_ptr<Connection>> connections_;

    std::thread accept_thread_;
};

} // namespace vn::service

#endif // VN_SERVICE_LISTENER_HH
