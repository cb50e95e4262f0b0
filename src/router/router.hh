/**
 * @file
 * vnoise_router: a scope-sharding relay in front of a vnoised fleet.
 *
 * The router speaks the same length-prefixed JSON protocol as vnoised
 * on both sides: clients connect to it exactly as they would to a
 * single daemon, and it forwards each compute request to the backend
 * that owns the request's key on a consistent-hash ring (ring.hh).
 * Placement is a pure function of the configured member set, so two
 * router instances — or a router restart — route identically.
 *
 * Each backend slot is a ResilientClient (connection pool + seeded
 * retry + circuit breaker, PR 5): transient backend failures are
 * absorbed per slot, and a backend that stays down is skipped in ring
 * order — only its arc of keys moves, everyone else's placement is
 * untouched.
 *
 * Health is probed periodically over the backends' own handshake: the
 * framed `ping` now announces `code_version`, a campaign-`scope`
 * fingerprint, and an optional `advertise` identity, and (when a
 * backend's gateway port is configured) `/readyz` is consulted so a
 * draining backend stops receiving new work before its listener
 * closes. A backend whose code_version differs from the router's is
 * excluded (`version_skew`), and a backend whose scope disagrees with
 * the fleet consensus is excluded (`scope_mismatch`) — both would
 * silently compute different answers.
 *
 * The shared tier is the content-addressed result cache: forwarded
 * response payloads are stored under keyFor(fleet scope, request key),
 * which folds in runtime::kCodeVersionTag — a version bump drains
 * stale entries fleet-wide, the same invalidation discipline the
 * backends' own campaign caches follow.
 *
 * Large results stream through, never *into*, the router: when a
 * client opts in with `accept_stream`, the backend's begin/chunk/end
 * frames are relayed as they arrive with only the frame id rewritten,
 * so the router's memory footprint stays flat no matter how big the
 * trace is. A backend torn mid-stream retries/fails over exactly like
 * a single-frame forward — the fresh `stream_begin` restarts the
 * downstream reassembly — and streamed results bypass the shared
 * cache (they would not fit a response frame anyway).
 *
 * Observability: the router reuses the HTTP gateway (dispatcher-less)
 * for `/metrics`, `/healthz`, and drain-aware `/readyz`; its stats
 * document exposes forwarded/rebalanced/hedged counts and per-backend
 * ring share, health, and breaker state.
 */

#ifndef VN_ROUTER_ROUTER_HH
#define VN_ROUTER_ROUTER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "router/ring.hh"
#include "runtime/cache.hh"
#include "service/http.hh"
#include "service/listener.hh"
#include "service/metrics.hh"
#include "service/resilient.hh"

namespace vn::router
{

/** One vnoised backend slot. */
struct BackendConfig
{
    /** Ring member / metrics name; empty derives "b<port>". */
    std::string name;

    /** Framed-protocol port on 127.0.0.1. */
    int port = service::kDefaultPort;

    /**
     * The backend's HTTP gateway port; when >= 0 the health probe
     * additionally requires `/readyz` to answer 200, so a draining
     * backend is retired from the ring before its listener closes.
     * Negative (the default) relies on the framed ping alone.
     */
    int http_port = -1;
};

/** Router knobs (see docs/serving.md, "Fleet"). */
struct RouterConfig
{
    /** TCP port on 127.0.0.1; 0 picks an ephemeral port (tests). */
    int port = 0;

    /** Router's own observability gateway; negative disables. */
    int http_port = -1;

    /** Gateway limits (`http.port` is taken from above). */
    service::HttpConfig http;

    /** Largest accepted request frame payload. */
    size_t max_frame_bytes = service::kDefaultMaxFrameBytes;

    /** SO_SNDTIMEO on accepted connections (see ServerConfig). */
    double send_timeout_s = 5.0;

    /** The fleet. Names must be unique; at least one backend. */
    std::vector<BackendConfig> backends;

    /** Ring geometry; same (seed, members, vnodes) = same placement. */
    RingConfig ring;

    /**
     * Per-backend forwarding policy. The default differs from a plain
     * client's: one retry with a short backoff, because the router's
     * answer to a struggling backend is ring fail-over, not patience.
     */
    service::RetryPolicy retry{.max_attempts = 2,
                               .backoff_base_ms = 5.0,
                               .backoff_cap_ms = 100.0};

    /** Per-backend circuit breaker. */
    service::BreakerConfig breaker;

    /**
     * Connection-pool bound of each backend slot; the router forwards
     * on the client's reader thread, so this caps how many client
     * connections can be in flight toward one backend at once.
     */
    int backend_pool_size = 8;

    /**
     * Directory of the shared result cache; empty disables it. Safe to
     * share with the backends' campaign caches (distinct entry names).
     */
    std::string cache_dir;

    /** Health probe period (milliseconds). */
    double health_period_ms = 200.0;

    /**
     * Forward an `overloaded` reject to the key's next ring owner
     * once before giving up. The hedge never masks the primary's
     * backpressure: if it also fails, the PRIMARY's error — including
     * its retry_after_ms hint — is what the client sees.
     */
    bool hedge_on_overload = true;
};

/** Cumulative router counters (the `router` stats section). */
struct RouterCounters
{
    uint64_t connections = 0;
    uint64_t frames = 0;
    uint64_t malformed = 0;
    uint64_t bad_requests = 0;
    uint64_t unknown_verbs = 0;
    uint64_t forwarded = 0;      //!< compute requests sent upstream
    uint64_t streamed_relays = 0; //!< responses relayed chunk-by-chunk
    uint64_t rebalanced = 0;     //!< fail-overs to a ring successor
    uint64_t hedged = 0;         //!< overload hedges to a successor
    uint64_t cache_hits = 0;     //!< answered from the shared cache
    uint64_t cache_stores = 0;
    uint64_t no_backend = 0;     //!< rejected: no healthy owner
    uint64_t version_skew = 0;   //!< probe saw a foreign code version
    uint64_t scope_mismatch = 0; //!< probe saw a dissenting scope
};

/** The router daemon; lifecycle mirrors service::Server. */
class Router
{
  public:
    explicit Router(RouterConfig config);

    /** beginShutdown() + wait() if still running. */
    ~Router();

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    /**
     * Probe every backend once (so routing is ready the moment this
     * returns), then bind and spawn the accept loop + health thread.
     * fatal() on bind failure — an unreachable backend is NOT fatal,
     * it is simply unhealthy until a probe succeeds.
     */
    void start();

    /** The bound port (resolves port 0 after start()). */
    int port() const { return listener_.port(); }

    /** Bound gateway port after start(); -1 when disabled. */
    int httpPort() const { return http_ ? http_->port() : -1; }

    /**
     * Route SIGINT/SIGTERM to beginShutdown() (one router per
     * process); a SECOND signal forces immediate process exit (status
     * 130), as for service::Server. Call after start().
     */
    void installSignalHandlers();

    /** Async-signal-safe shutdown trigger; returns immediately. */
    void beginShutdown();

    /** Block until shutdown, then close connections and join. */
    void wait();

    /** Snapshot of the cumulative counters. */
    RouterCounters counters() const;

    /** The `stats` verb's document (also behind `/metrics`). */
    service::Json statsJson() const;

    /** Ring membership is fixed at construction; health gates use. */
    const Ring &ring() const { return ring_; }

    /** Backends currently considered healthy. */
    size_t healthyBackends() const;

    /** Fleet scope fingerprint ("" until a backend was probed). */
    std::string fleetScope() const;

    /** Run one synchronous probe round now (tests). */
    void probeForTest() { probeBackends(); }

  private:
    struct Backend
    {
        BackendConfig config;
        std::unique_ptr<service::ResilientClient> client;
        std::atomic<bool> healthy{false};
        std::atomic<uint64_t> forwarded{0};
        std::string scope;     //!< last probed; under state_mutex_
        std::string advertise; //!< last probed; under state_mutex_
    };

    using Connection = service::Listener::Connection;

    void healthLoop();
    void probeBackends();
    void handleConnection(const std::shared_ptr<Connection> &conn);
    bool handleFrame(const std::shared_ptr<Connection> &conn,
                     const std::string &payload);
    void forward(const std::shared_ptr<Connection> &conn,
                 const service::Json &id, service::Verb verb,
                 const std::string &routing_key, service::Json params,
                 bool accept_stream);
    void sendJson(Connection &conn, const service::Json &response);

    /** sendJson that reports whether the frame actually went out; a
     *  stream relay uses this so a dead downstream aborts the relay
     *  instead of draining the whole backend stream into a closed
     *  socket. */
    bool sendJsonChecked(Connection &conn,
                         const service::Json &response);
    Backend *backendByName(const std::string &name);

    RouterConfig config_;
    Ring ring_;
    std::vector<std::unique_ptr<Backend>> backends_;
    std::unique_ptr<runtime::ResultCache> cache_;
    service::MetricsRegistry metrics_;
    std::unique_ptr<service::HttpGateway> http_;

    bool started_ = false;
    bool waited_ = false;
    std::thread health_thread_;
    std::chrono::steady_clock::time_point started_at_;

    mutable std::mutex state_mutex_; //!< fleet scope + probe strings
    std::string fleet_scope_;

    std::mutex health_mutex_; //!< pairs with health_cv_ only
    std::condition_variable health_cv_;

    mutable std::mutex counters_mutex_;
    RouterCounters counters_;

    service::Listener listener_; //!< last: its handlers use the members above
};

} // namespace vn::router

#endif // VN_ROUTER_ROUTER_HH
