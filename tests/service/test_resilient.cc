/**
 * @file
 * Tests of the resilient client layer and the faultnet harness that
 * proves it:
 *
 *  - Resilient.*: backoff determinism (fixed seed => bit-identical
 *    delay sequence), the breaker state machine under an injectable
 *    clock, the deadline budget never exceeding its cap, the pool
 *    bound holding under 16 concurrent callers, and the Client
 *    hardening regressions (failed connect leaves the object
 *    reusable; large frames survive a tiny send buffer).
 *  - Faultnet.*: schedule parse/dump round-trips, seeded schedules
 *    replaying identically, and ping-level proxy runs where a cut
 *    frame, an injected overload, and a refused connection are each
 *    absorbed by one retry.
 *  - FaultnetDeterminism.*: the live replay property — same seed,
 *    same workload, same observed backoff delays, bit for bit
 *    (scripts/check.sh runs this with two different seeds).
 *  - FaultnetE2E.*: the acceptance run — 8 concurrent clients under a
 *    schedule with a mid-frame cut and an overloaded burst return
 *    byte-identical results to the fault-free run with zero
 *    caller-visible errors; the same schedule with retries disabled
 *    fails visibly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "service/client.hh"
#include "service/faultnet.hh"
#include "service/resilient.hh"
#include "service/server.hh"

namespace
{

using namespace vn;
using namespace vn::service;

/** Context with no kit: control-verb and fault-hook tests never
 *  reach a computation. */
vn::AnalysisContext
bareContext()
{
    vn::AnalysisContext ctx;
    ctx.campaign.cache_dir.clear();
    return ctx;
}

const vn::CoreModel &
core()
{
    static vn::CoreModel c;
    return c;
}

/** Reduced-cost kit (same recipe as test_service.cc). */
const vn::StressmarkKit &
kit()
{
    static auto k = [] {
        bool prev = vn::setQuiet(true);
        vn::StressmarkKitParams params;
        params.epi_reps = 300;
        params.search.ipc_filter_keep = 32;
        params.search.ipc_eval_instrs = 200;
        params.search.power_eval_instrs = 800;
        vn::StressmarkKit built(core(), params);
        vn::setQuiet(prev);
        return built;
    }();
    return k;
}

vn::AnalysisContext
computeContext()
{
    vn::AnalysisContext ctx;
    ctx.kit = &kit();
    ctx.window = 6e-6;
    ctx.unsync_draws = 2;
    ctx.consecutive_events = 200;
    ctx.campaign.cache_dir.clear();
    return ctx;
}

/** A loopback port that nothing listens on. */
int
deadPort()
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                            &len),
              0);
    int port = ntohs(addr.sin_port);
    ::close(fd); // bound but never listened: connects are refused
    return port;
}

// ---------------------------------------------------------------------
// Resilient: policy pieces in isolation.

TEST(Resilient, RetryableCodeClassification)
{
    EXPECT_TRUE(retryableCode("io_error"));
    EXPECT_TRUE(retryableCode("overloaded"));
    EXPECT_TRUE(retryableCode("shutting_down"));
    EXPECT_FALSE(retryableCode("bad_request"));
    EXPECT_FALSE(retryableCode("unknown_verb"));
    EXPECT_FALSE(retryableCode("deadline_exceeded"));
    EXPECT_FALSE(retryableCode("internal"));
    EXPECT_FALSE(retryableCode("circuit_open"));
}

TEST(Resilient, BackoffIsBitIdenticalForAFixedSeed)
{
    RetryPolicy policy;
    policy.backoff_base_ms = 10.0;
    policy.backoff_cap_ms = 500.0;
    policy.backoff_seed = 42;

    Backoff a(policy), b(policy);
    for (int i = 0; i < 64; ++i) {
        double da = a.nextDelayMs();
        double db = b.nextDelayMs();
        EXPECT_EQ(da, db) << "delay " << i
                          << " diverged for the same seed";
        EXPECT_GE(da, policy.backoff_base_ms);
        EXPECT_LE(da, policy.backoff_cap_ms);
    }

    // A different seed produces a different sequence.
    policy.backoff_seed = 43;
    Backoff c(policy);
    Backoff fresh(RetryPolicy{4, 10.0, 500.0, 42, 10000.0, 0.0});
    bool any_different = false;
    for (int i = 0; i < 16; ++i)
        any_different |= c.nextDelayMs() != fresh.nextDelayMs();
    EXPECT_TRUE(any_different);

    // The server's retry_after_ms hint is a floor.
    Backoff floored(policy);
    EXPECT_GE(floored.nextDelayMs(900.0), 900.0);
}

TEST(Resilient, BreakerStateMachineUnderInjectableClock)
{
    BreakerConfig config;
    config.failure_threshold = 3;
    config.open_ms = 1000.0;
    CircuitBreaker breaker(config);

    auto fake_now = CircuitBreaker::Clock::now();
    breaker.setClockForTest([&] { return fake_now; });

    // Closed: failures below the threshold change nothing visible.
    EXPECT_EQ(breaker.state(), BreakerState::Closed);
    EXPECT_TRUE(breaker.allow());
    breaker.onFailure();
    breaker.onFailure();
    EXPECT_EQ(breaker.state(), BreakerState::Closed);
    EXPECT_TRUE(breaker.allow());

    // A success resets the consecutive count.
    breaker.onSuccess();
    breaker.onFailure();
    breaker.onFailure();
    EXPECT_EQ(breaker.state(), BreakerState::Closed);

    // The third consecutive failure opens the circuit.
    breaker.onFailure();
    EXPECT_EQ(breaker.state(), BreakerState::Open);
    EXPECT_EQ(breaker.opens(), 1u);
    EXPECT_FALSE(breaker.allow());

    // Still open just before the cooldown elapses.
    fake_now += std::chrono::milliseconds(999);
    EXPECT_FALSE(breaker.allow());

    // Cooldown over: exactly ONE half-open probe is admitted.
    fake_now += std::chrono::milliseconds(2);
    EXPECT_TRUE(breaker.allow());
    EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);
    EXPECT_FALSE(breaker.allow()) << "second probe while one is out";

    // Failed probe: straight back to open, cooldown restarts.
    breaker.onFailure();
    EXPECT_EQ(breaker.state(), BreakerState::Open);
    EXPECT_EQ(breaker.opens(), 2u);
    EXPECT_FALSE(breaker.allow());

    // An abandoned probe (the attempt never ran: budget exhausted,
    // pool wait timed out) releases the slot back to Open — neither a
    // success nor a failure — and the next allow() admits a fresh
    // probe instead of waiting forever on one that never reported.
    fake_now += std::chrono::milliseconds(1001);
    EXPECT_TRUE(breaker.allow());
    EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);
    breaker.onAbandoned();
    EXPECT_EQ(breaker.state(), BreakerState::Open);
    EXPECT_EQ(breaker.opens(), 2u) << "an abandoned probe is not a"
                                      " transition into Open";
    EXPECT_TRUE(breaker.allow()) << "released slot admits a new probe";
    EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);

    // onAbandoned while Closed is a no-op (no reset, no failure).
    // Successful probe closes the circuit fully.
    breaker.onSuccess();
    EXPECT_EQ(breaker.state(), BreakerState::Closed);
    breaker.onAbandoned();
    EXPECT_EQ(breaker.state(), BreakerState::Closed);
    EXPECT_TRUE(breaker.allow());
    EXPECT_EQ(breaker.opens(), 2u);

    EXPECT_STREQ(breakerStateName(BreakerState::Closed), "closed");
    EXPECT_STREQ(breakerStateName(BreakerState::Open), "open");
    EXPECT_STREQ(breakerStateName(BreakerState::HalfOpen), "half_open");
}

// ---------------------------------------------------------------------
// Resilient: the client against a live server.

TEST(Resilient, DeadlineBudgetIsNeverExceeded)
{
    // Every compute submit is rejected `overloaded` by the admission
    // hook, so the client retries until its wall-clock budget is gone
    // (fake clock + fake sleep: no real waiting).
    auto ctx = bareContext();
    ScriptedFaultHook hook(FaultSchedule().overloaded(0, 100000, 5.0));
    ServerConfig config;
    config.port = 0;
    config.dispatcher.fault = &hook;
    Server server(ctx, config);
    server.start();

    ResilientClientConfig rconfig;
    rconfig.port = server.port();
    rconfig.retry.max_attempts = 50;
    rconfig.retry.backoff_base_ms = 20.0;
    rconfig.retry.call_deadline_ms = 100.0;
    ResilientClient client(rconfig);

    auto fake_now = ResilientClient::Clock::now();
    client.setClockForTest([&] { return fake_now; });
    double slept_ms = 0.0;
    client.setSleepForTest([&](double ms) {
        slept_ms += ms;
        fake_now += std::chrono::duration_cast<
            ResilientClient::Clock::duration>(
            std::chrono::duration<double, std::milli>(ms));
    });
    std::vector<double> attempt_deadlines;
    client.setAttemptObserverForTest([&](int, double deadline_ms) {
        attempt_deadlines.push_back(deadline_ms);
    });

    try {
        client.call("sweep", [] {
            Json params = Json::object();
            params.set("freq_hz", Json::number(2.4e6));
            return params;
        }());
        FAIL() << "the hook rejects every attempt";
    } catch (const ServiceError &e) {
        // The wall-clock budget — not the attempt count — ended the
        // call, and the code says so; the last wire error is detail.
        EXPECT_EQ(e.code(), "deadline_exceeded");
        EXPECT_NE(std::string(e.what()).find("overloaded"),
                  std::string::npos);
    }

    // The budget bounds everything: total sleep, every per-attempt
    // deadline, and the deadlines shrink as the budget burns down.
    EXPECT_LE(slept_ms, 100.0 + 1e-6); // delays are clamped to the budget
    ASSERT_GE(attempt_deadlines.size(), 2u);
    for (size_t i = 0; i < attempt_deadlines.size(); ++i) {
        EXPECT_GT(attempt_deadlines[i], 0.0);
        EXPECT_LE(attempt_deadlines[i], 100.0);
        if (i > 0) {
            EXPECT_LT(attempt_deadlines[i], attempt_deadlines[i - 1]);
        }
    }
    // Far fewer than max_attempts fit inside the budget.
    ResilienceCounters counters = client.counters();
    EXPECT_LT(counters.attempts, 50u);
    EXPECT_EQ(counters.retries, counters.attempts - 1);
    EXPECT_EQ(counters.failures, 1u);
    EXPECT_GT(hook.injected(), 0u);

    server.beginShutdown();
    server.wait();
}

TEST(Resilient, BreakerOpensAfterConsecutiveTransportFailures)
{
    ResilientClientConfig rconfig;
    rconfig.port = deadPort();
    rconfig.retry.max_attempts = 5;
    rconfig.retry.backoff_base_ms = 0.1;
    rconfig.retry.backoff_cap_ms = 0.5;
    rconfig.breaker.failure_threshold = 2;
    rconfig.breaker.open_ms = 60000.0;
    ResilientClient client(rconfig);

    // Two failed dials open the circuit; the third attempt is refused
    // without touching a socket.
    try {
        client.call("ping", Json::object());
        FAIL() << "nothing listens on the port";
    } catch (const ServiceError &e) {
        EXPECT_EQ(e.code(), "circuit_open");
    }
    EXPECT_EQ(client.breakerState(), BreakerState::Open);
    ResilienceCounters counters = client.counters();
    EXPECT_EQ(counters.attempts, 2u);
    EXPECT_EQ(counters.breaker_opens, 1u);
    EXPECT_EQ(counters.breaker_rejects, 1u);

    // While open, calls fail fast — no new attempts.
    EXPECT_THROW(client.ping(), ServiceError);
    EXPECT_EQ(client.counters().attempts, 2u);
}

TEST(Resilient, BudgetExhaustionNeverLeaksAHalfOpenProbe)
{
    // Regression: the backoff sleep is capped to exactly the remaining
    // budget, so the next iteration finds the budget exhausted right
    // away. That exit must happen BEFORE the breaker admits a
    // half-open probe — a probe admitted and then abandoned would wedge
    // the breaker into rejecting every future call as circuit_open.
    ResilientClientConfig rconfig;
    rconfig.port = deadPort();
    rconfig.retry.max_attempts = 3;
    rconfig.retry.backoff_base_ms = 200.0;
    rconfig.retry.backoff_cap_ms = 200.0; // delay is exactly 200
    rconfig.retry.call_deadline_ms = 100.0;
    rconfig.breaker.failure_threshold = 1;
    rconfig.breaker.open_ms = 50.0;
    ResilientClient client(rconfig);

    auto fake_now = ResilientClient::Clock::now();
    client.setClockForTest([&] { return fake_now; });
    client.setSleepForTest([&](double ms) {
        fake_now += std::chrono::duration_cast<
            ResilientClient::Clock::duration>(
            std::chrono::duration<double, std::milli>(ms));
    });

    // Call 1: the dial fails (opening the circuit), the 200 ms backoff
    // is clamped to the 100 ms budget, and the second iteration exits
    // on the wall clock — reported as deadline_exceeded (the budget
    // was the cause), with the wire error as detail.
    try {
        client.ping();
        FAIL() << "nothing listens on the port";
    } catch (const ServiceError &e) {
        EXPECT_EQ(e.code(), "deadline_exceeded");
        EXPECT_NE(std::string(e.what()).find("io_error"),
                  std::string::npos);
    }
    EXPECT_EQ(client.breakerState(), BreakerState::Open);
    uint64_t attempts_after_first = client.counters().attempts;
    EXPECT_EQ(attempts_after_first, 1u);

    // The cooldown elapses. The next call must get a real half-open
    // probe (which fails on the wire again) — not an eternal
    // circuit_open from a probe slot leaked by the budget exit above.
    fake_now += std::chrono::milliseconds(60);
    try {
        client.ping();
        FAIL() << "nothing listens on the port";
    } catch (const ServiceError &e) {
        EXPECT_NE(e.code(), "circuit_open")
            << "breaker wedged by a leaked half-open probe";
        EXPECT_EQ(e.code(), "deadline_exceeded");
    }
    EXPECT_GT(client.counters().attempts, attempts_after_first)
        << "the probe attempt must actually touch the socket";
}

TEST(Resilient, PoolNeverExceedsBoundUnder16ConcurrentCallers)
{
    auto ctx = bareContext();
    ServerConfig config;
    config.port = 0;
    Server server(ctx, config);
    server.start();

    ResilientClientConfig rconfig;
    rconfig.port = server.port();
    rconfig.pool_size = 4;
    ResilientClient client(rconfig);

    std::atomic<int> failures{0};
    std::vector<std::thread> callers;
    for (int c = 0; c < 16; ++c) {
        callers.emplace_back([&] {
            for (int i = 0; i < 20; ++i) {
                try {
                    if (client.ping() != kProtocolVersion)
                        ++failures;
                } catch (const ServiceError &) {
                    ++failures;
                }
            }
        });
    }
    for (auto &t : callers)
        t.join();

    EXPECT_EQ(failures.load(), 0);
    ResilienceCounters counters = client.counters();
    EXPECT_EQ(counters.calls, 320u);
    EXPECT_LE(counters.pool_peak_in_use, 4u);
    EXPECT_LE(counters.dials, 4u) << "the bound caps dials too";
    EXPECT_EQ(counters.pool_in_use, 0u);
    EXPECT_LE(counters.pool_idle, 4u);
    EXPECT_GT(counters.reused, 0u);

    server.beginShutdown();
    server.wait();
}

TEST(Resilient, IdleConnectionsAreReapedAfterTheTtl)
{
    auto ctx = bareContext();
    ServerConfig config;
    config.port = 0;
    Server server(ctx, config);
    server.start();

    ResilientClientConfig rconfig;
    rconfig.port = server.port();
    rconfig.idle_ttl_ms = 1000.0;
    ResilientClient client(rconfig);
    auto fake_now = ResilientClient::Clock::now();
    client.setClockForTest([&] { return fake_now; });

    EXPECT_EQ(client.ping(), kProtocolVersion);
    EXPECT_EQ(client.counters().pool_idle, 1u);

    fake_now += std::chrono::milliseconds(999);
    EXPECT_EQ(client.reapIdle(), 0u) << "TTL not reached yet";
    fake_now += std::chrono::milliseconds(2);
    EXPECT_EQ(client.reapIdle(), 1u);
    ResilienceCounters counters = client.counters();
    EXPECT_EQ(counters.reaped, 1u);
    EXPECT_EQ(counters.pool_idle, 0u);

    // The pool redials transparently afterwards.
    EXPECT_EQ(client.ping(), kProtocolVersion);
    EXPECT_EQ(client.counters().dials, 2u);

    server.beginShutdown();
    server.wait();
}

// ---------------------------------------------------------------------
// Client hardening regressions (satellite bugfix).

TEST(Resilient, FailedConnectLeavesTheClientReusable)
{
    int dead = deadPort();

    // A fresh client survives a failed connect and can dial again.
    Client client;
    EXPECT_THROW(client.connect(dead), ServiceError);
    EXPECT_FALSE(client.connected());

    auto ctx = bareContext();
    ServerConfig config;
    config.port = 0;
    Server server(ctx, config);
    server.start();
    client.connect(server.port());
    EXPECT_TRUE(client.connected());
    EXPECT_EQ(client.ping(), kProtocolVersion);

    // An ALREADY-CONNECTED client keeps its live connection when a
    // re-connect attempt fails (the old socket is only replaced after
    // the new dial succeeds).
    EXPECT_THROW(client.connect(dead), ServiceError);
    EXPECT_TRUE(client.connected());
    EXPECT_EQ(client.ping(), kProtocolVersion);

    server.beginShutdown();
    server.wait();
}

TEST(Resilient, LargeFramesSurviveATinySendBuffer)
{
    auto ctx = bareContext();
    ServerConfig config;
    config.port = 0;
    Server server(ctx, config);
    server.start();

    Client client(server.port());
    // Force partial write(2)s on the request path.
    int small = 4096;
    ::setsockopt(client.nativeHandle(), SOL_SOCKET, SO_SNDBUF, &small,
                 sizeof(small));

    Json params = Json::object();
    params.set("pad", Json::str(std::string(300000, 'x')));
    Json result = client.call("ping", std::move(params));
    EXPECT_TRUE(result.at("pong").asBool());

    server.beginShutdown();
    server.wait();
}

// ---------------------------------------------------------------------
// Faultnet: schedules.

TEST(Faultnet, ScheduleParseDumpRoundTrip)
{
    FaultSchedule schedule;
    schedule.refuseConnection(0)
        .refuseConnection(4)
        .cutMidFrame(2, 9)
        .truncate(5, 3)
        .delayMs(7, 12.5)
        .overloaded(10, 3, 7.25);

    FaultSchedule reparsed = FaultSchedule::parse(schedule.dump());
    EXPECT_TRUE(reparsed == schedule);
    EXPECT_EQ(reparsed.dump(), schedule.dump());

    EXPECT_TRUE(schedule.connectionRefused(0));
    EXPECT_FALSE(schedule.connectionRefused(1));
    EXPECT_EQ(schedule.actionFor(2).kind,
              FaultAction::Kind::CutMidFrame);
    EXPECT_EQ(schedule.actionFor(2).bytes, 9u);
    EXPECT_EQ(schedule.actionFor(11).kind,
              FaultAction::Kind::Overloaded);
    EXPECT_EQ(schedule.actionFor(11).retry_after_ms, 7.25);
    EXPECT_EQ(schedule.actionFor(3).kind, FaultAction::Kind::None);

    // COUNT and RETRY_AFTER_MS are optional: the documented short
    // forms keep their defaults (1 and 0) instead of being zeroed by
    // a failed extraction.
    FaultSchedule shorthand = FaultSchedule::parse(
        "overloaded 5\noverloaded 8 2\noverloaded 12 1 3.5\n");
    EXPECT_EQ(shorthand.actionFor(5).kind,
              FaultAction::Kind::Overloaded);
    EXPECT_EQ(shorthand.actionFor(5).retry_after_ms, 0.0);
    EXPECT_EQ(shorthand.actionFor(6).kind, FaultAction::Kind::None);
    EXPECT_EQ(shorthand.actionFor(8).kind,
              FaultAction::Kind::Overloaded);
    EXPECT_EQ(shorthand.actionFor(9).kind,
              FaultAction::Kind::Overloaded);
    EXPECT_EQ(shorthand.actionFor(12).retry_after_ms, 3.5);

    // Comments and blank lines are tolerated; junk is not.
    FaultSchedule commented = FaultSchedule::parse(
        "# a comment\n\ncut 1 4\n");
    EXPECT_EQ(commented.actionFor(1).kind,
              FaultAction::Kind::CutMidFrame);
    EXPECT_THROW(FaultSchedule::parse("frobnicate 1 2\n"),
                 std::runtime_error);
    EXPECT_THROW(FaultSchedule::parse("cut 1\n"), std::runtime_error);
    EXPECT_THROW(FaultSchedule::parse("cut 1 2 3\n"),
                 std::runtime_error);
    EXPECT_THROW(FaultSchedule::parse("overloaded 1 junk\n"),
                 std::runtime_error);
    EXPECT_THROW(FaultSchedule::parse("overloaded 1 0\n"),
                 std::runtime_error);
}

TEST(Faultnet, RandomSchedulesAreAPureFunctionOfTheSeed)
{
    FaultSchedule a = FaultSchedule::random(17, 100, 8);
    FaultSchedule b = FaultSchedule::random(17, 100, 8);
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.dump(), b.dump());
    EXPECT_EQ(a.actionCount(), 8u);

    FaultSchedule other = FaultSchedule::random(42, 100, 8);
    EXPECT_NE(a.dump(), other.dump());

    // Round-trips through the text form like any hand-written one.
    EXPECT_TRUE(FaultSchedule::parse(a.dump()) == a);
}

// ---------------------------------------------------------------------
// Faultnet: the proxy, at ping level (no kit).

TEST(Faultnet, MidFrameCutIsAbsorbedByOneRetry)
{
    auto ctx = bareContext();
    ServerConfig config;
    config.port = 0;
    Server server(ctx, config);
    server.start();

    // The response of request 0 is cut 2 bytes into its HEADER.
    FaultProxy proxy(server.port(), FaultSchedule().cutMidFrame(0, 2));
    proxy.start();

    ResilientClientConfig rconfig;
    rconfig.port = proxy.port();
    rconfig.retry.backoff_base_ms = 0.1;
    rconfig.retry.backoff_cap_ms = 1.0;
    ResilientClient client(rconfig);

    EXPECT_EQ(client.ping(), kProtocolVersion);
    ResilienceCounters counters = client.counters();
    EXPECT_EQ(counters.retries, 1u);
    EXPECT_EQ(counters.dials, 2u) << "the torn connection is redialed";
    EXPECT_GE(counters.discarded, 1u);
    EXPECT_EQ(counters.failures, 0u);
    EXPECT_EQ(proxy.counters().injected_cuts, 1u);

    proxy.stop();
    server.beginShutdown();
    server.wait();
}

TEST(Faultnet, TruncatedPayloadIsAbsorbedByOneRetry)
{
    auto ctx = bareContext();
    ServerConfig config;
    config.port = 0;
    Server server(ctx, config);
    server.start();

    // Header promises the full payload; only 5 bytes arrive.
    FaultProxy proxy(server.port(), FaultSchedule().truncate(0, 5));
    proxy.start();

    ResilientClientConfig rconfig;
    rconfig.port = proxy.port();
    rconfig.retry.backoff_base_ms = 0.1;
    rconfig.retry.backoff_cap_ms = 1.0;
    ResilientClient client(rconfig);

    EXPECT_EQ(client.ping(), kProtocolVersion);
    EXPECT_EQ(client.counters().retries, 1u);
    EXPECT_EQ(proxy.counters().injected_truncations, 1u);

    proxy.stop();
    server.beginShutdown();
    server.wait();
}

TEST(Faultnet, InjectedOverloadHonorsRetryAfter)
{
    auto ctx = bareContext();
    ServerConfig config;
    config.port = 0;
    Server server(ctx, config);
    server.start();

    FaultProxy proxy(server.port(),
                     FaultSchedule().overloaded(0, 1, 25.0));
    proxy.start();

    ResilientClientConfig rconfig;
    rconfig.port = proxy.port();
    rconfig.retry.backoff_base_ms = 0.1;
    rconfig.retry.backoff_cap_ms = 1.0;
    ResilientClient client(rconfig);
    std::vector<double> delays;
    client.setSleepForTest([&](double ms) { delays.push_back(ms); });

    EXPECT_EQ(client.ping(), kProtocolVersion);
    ASSERT_EQ(delays.size(), 1u);
    EXPECT_GE(delays[0], 25.0) << "retry_after_ms floors the backoff";
    EXPECT_EQ(proxy.counters().injected_overloaded, 1u);
    // A structured response keeps the breaker closed: the endpoint
    // is alive, it is just shedding load.
    EXPECT_EQ(client.breakerState(), BreakerState::Closed);

    proxy.stop();
    server.beginShutdown();
    server.wait();
}

TEST(Faultnet, RefusedConnectionIsAbsorbedByOneRetry)
{
    auto ctx = bareContext();
    ServerConfig config;
    config.port = 0;
    Server server(ctx, config);
    server.start();

    FaultProxy proxy(server.port(), FaultSchedule().refuseConnection(0));
    proxy.start();

    ResilientClientConfig rconfig;
    rconfig.port = proxy.port();
    rconfig.retry.backoff_base_ms = 0.1;
    rconfig.retry.backoff_cap_ms = 1.0;
    ResilientClient client(rconfig);

    EXPECT_EQ(client.ping(), kProtocolVersion);
    ResilienceCounters counters = client.counters();
    EXPECT_EQ(counters.retries, 1u);
    EXPECT_EQ(counters.failures, 0u);
    EXPECT_EQ(proxy.counters().refused, 1u);

    proxy.stop();
    server.beginShutdown();
    server.wait();
}

TEST(Faultnet, CutRelayedToAResetClientDoesNotKillTheProxy)
{
    auto ctx = bareContext();
    Server server(ctx, ServerConfig{});
    server.start();

    // Request 0 relays intact, but only after its client is gone: the
    // client's kernel answers that response with a RST. Request 1's
    // response is then cut into the reset connection — a write that
    // must fail as an error return, not raise SIGPIPE and kill the
    // process.
    FaultProxy proxy(server.port(),
                     FaultSchedule().delayMs(0, 50.0).cutMidFrame(1, 9));
    proxy.start();

    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(proxy.port()));
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    for (int i = 0; i < 2; ++i) {
        Json request = Json::object();
        request.set("id", Json::number(i));
        request.set("verb", Json::str("ping"));
        ASSERT_TRUE(writeFrame(fd, request.dump()));
    }
    ::close(fd); // nothing unread: a FIN now, the RST comes later

    for (int i = 0; i < 300 && proxy.counters().injected_cuts == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    FaultProxyCounters counters = proxy.counters();
    EXPECT_EQ(counters.injected_cuts, 1u);
    EXPECT_EQ(counters.forwarded, 1u);

    // The proxy (and this process) survived and still relays.
    Client client(proxy.port());
    EXPECT_EQ(client.ping(), kProtocolVersion);

    proxy.stop();
    server.beginShutdown();
    server.wait();
}

// ---------------------------------------------------------------------
// Determinism under a seeded schedule (check.sh runs this suite with
// two different VNOISE_FAULT_SEED values).

TEST(FaultnetDeterminism, SeededRunsReplayBitIdentically)
{
    uint64_t seed = 17;
    if (const char *env = std::getenv("VNOISE_FAULT_SEED"))
        seed = std::strtoull(env, nullptr, 10);

    // Schedule derivation is a pure function of the seed...
    FaultSchedule schedule = FaultSchedule::random(seed, 8, 3);
    ASSERT_TRUE(FaultSchedule::random(seed, 8, 3) == schedule);
    // ...with one guaranteed retryable injection so the replay below
    // always exercises the backoff path.
    schedule.overloaded(0, 1, 5.0);

    auto ctx = bareContext();
    ServerConfig config;
    config.port = 0;
    Server server(ctx, config);
    server.start();

    // Run the same single-threaded ping workload twice behind the same
    // schedule: the observed backoff delays (PRNG draws floored by
    // injected retry hints) must match bit for bit.
    auto run = [&] {
        FaultProxy proxy(server.port(), schedule);
        proxy.start();
        ResilientClientConfig rconfig;
        rconfig.port = proxy.port();
        rconfig.retry.backoff_seed = seed;
        rconfig.retry.max_attempts = 6;
        ResilientClient client(rconfig);
        std::vector<double> delays;
        client.setSleepForTest(
            [&](double ms) { delays.push_back(ms); });
        for (int i = 0; i < 8; ++i)
            EXPECT_EQ(client.ping(), kProtocolVersion);
        EXPECT_EQ(client.counters().failures, 0u);
        proxy.stop();
        return delays;
    };

    std::vector<double> first = run();
    std::vector<double> second = run();
    EXPECT_FALSE(first.empty());
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(first[i], second[i]) << "delay " << i;

    server.beginShutdown();
    server.wait();
}

// ---------------------------------------------------------------------
// Acceptance: 8 concurrent clients under carnage == fault-free run.

TEST(FaultnetE2E, FaultedRunMatchesFaultFreeRunByteForByte)
{
    auto ctx = computeContext();
    ServerConfig config;
    config.port = 0;
    Server server(ctx, config);
    server.start();

    const int kClients = 8;
    std::vector<SweepRequest> requests;
    for (int c = 0; c < kClients; ++c)
        requests.push_back(SweepRequest{{1.0e6 + 2e5 * c, true}});

    // One worker thread per request through a shared pooled client;
    // results come back as canonical 17-digit JSON dumps so equality
    // is byte equality.
    auto runAll = [&](int port, const RetryPolicy &retry,
                      ResilienceCounters *counters_out) {
        ResilientClientConfig rconfig;
        rconfig.port = port;
        rconfig.pool_size = kClients;
        rconfig.retry = retry;
        ResilientClient client(rconfig);
        std::vector<std::string> dumps(
            static_cast<size_t>(kClients));
        std::atomic<int> errors{0};
        std::vector<std::thread> threads;
        for (int c = 0; c < kClients; ++c) {
            threads.emplace_back([&, c] {
                try {
                    FreqSweepPoint point = client.sweep(
                        requests[static_cast<size_t>(c)]);
                    dumps[static_cast<size_t>(c)] =
                        encodeResult(point).dump();
                } catch (const ServiceError &) {
                    ++errors;
                }
            });
        }
        for (auto &t : threads)
            t.join();
        if (counters_out)
            *counters_out = client.counters();
        return std::make_pair(dumps, errors.load());
    };

    RetryPolicy with_retries;
    with_retries.max_attempts = 6;
    with_retries.backoff_base_ms = 1.0;
    with_retries.backoff_cap_ms = 20.0;
    with_retries.call_deadline_ms = 120000.0;

    // Baseline: straight at the server, no faults.
    auto [baseline, baseline_errors] =
        runAll(server.port(), with_retries, nullptr);
    ASSERT_EQ(baseline_errors, 0);

    // The acceptance schedule: a response cut mid-frame plus an
    // overloaded burst. Retries must absorb all of it.
    FaultSchedule schedule;
    schedule.cutMidFrame(1, 9).overloaded(3, 2, 2.0);
    {
        FaultProxy proxy(server.port(), schedule);
        proxy.start();
        ResilienceCounters counters;
        auto [faulted, faulted_errors] =
            runAll(proxy.port(), with_retries, &counters);
        EXPECT_EQ(faulted_errors, 0)
            << "every injected fault must be absorbed";
        EXPECT_GT(counters.retries, 0u);
        for (int c = 0; c < kClients; ++c)
            EXPECT_EQ(faulted[static_cast<size_t>(c)],
                      baseline[static_cast<size_t>(c)])
                << "request " << c
                << " diverged between the faulted and fault-free runs";
        FaultProxyCounters pc = proxy.counters();
        EXPECT_EQ(pc.injected_cuts, 1u);
        EXPECT_EQ(pc.injected_overloaded, 2u);
        proxy.stop();
    }

    // Control experiment: the same schedule with retries disabled
    // fails visibly — the harness is injecting real faults.
    {
        FaultProxy proxy(server.port(), schedule);
        proxy.start();
        RetryPolicy no_retries = with_retries;
        no_retries.max_attempts = 1;
        auto [unprotected, unprotected_errors] =
            runAll(proxy.port(), no_retries, nullptr);
        EXPECT_GT(unprotected_errors, 0)
            << "without retries the schedule must surface errors";
        proxy.stop();
    }

    server.beginShutdown();
    server.wait();
}

} // namespace
