/**
 * @file
 * Integration tests of the vnoised serving stack: a real TCP server,
 * concurrent typed clients with mixed request types, and the three
 * acceptance properties of the serving layer —
 *
 *  1. served results are bit-identical to direct library calls
 *     (per-job seeds derive from the job key, and doubles travel with
 *     17 significant digits),
 *  2. queue overflow yields structured `overloaded` errors, never
 *     hangs, and
 *  3. SIGTERM drains in-flight requests (their responses are written)
 *     before the daemon exits.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "service/client.hh"
#include "service/server.hh"

namespace
{

using namespace vn;
using namespace vn::service;

const vn::CoreModel &
core()
{
    static vn::CoreModel c;
    return c;
}

/** Reduced-cost kit (same recipe as the end-to-end tests). */
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

/** Harness configuration shared by the server AND the direct calls —
 *  the bit-identical comparison requires the exact same context. */
vn::AnalysisContext
context()
{
    vn::AnalysisContext ctx;
    ctx.kit = &kit();
    ctx.window = 6e-6;
    ctx.unsync_draws = 2;
    ctx.consecutive_events = 200;
    ctx.campaign.cache_dir.clear(); // results, not cache, under test
    return ctx;
}

Mapping
mappingOf(const char *text)
{
    Mapping m{};
    for (int c = 0; c < kNumCores; ++c)
        m[c] = text[c] == 'X'   ? WorkloadClass::Max
               : text[c] == 'm' ? WorkloadClass::Medium
                                : WorkloadClass::Idle;
    return m;
}

TEST(Service, ConcurrentClientsGetBitIdenticalResults)
{
    auto ctx = context();
    ServerConfig config;
    config.dispatcher.queue_depth = 32;
    config.dispatcher.max_batch = 32;
    Server server(ctx, config);
    server.start();

    // Mixed request types from 9 concurrent clients; two of the sweep
    // requests are identical on purpose (they must coalesce into one
    // campaign job and still both get full answers).
    SweepRequest sweep_a{{2.4e6, true}};
    SweepRequest sweep_b{{1.1e6, false}};
    MapRequest map_a{mappingOf("XX.m.."), 2e6};
    MapRequest map_b{mappingOf("X....X"), 2e6};
    MarginRequest margin_a{{2.4e6, 100}, 0.005};
    TraceRequest trace_a{{2.4e6, 4e-6, 2, 16}};
    GuardbandRequest guard_a{{200, 3.0, 7}};

    FreqSweepPoint got_sweep_a[2];
    FreqSweepPoint got_sweep_b;
    MappingResult got_map_a, got_map_b;
    MarginPoint got_margin_a;
    DroopTrace got_trace_a;
    GuardbandResult got_guard_a;
    std::atomic<int> failures{0};

    // Stall the batcher until every request is queued, so the batch is
    // assembled from all clients at once (deterministic coalescing).
    server.pauseForTest(true);
    int port = server.port();
    auto guarded = [&failures](auto fn) {
        return [&failures, fn] {
            try {
                fn();
            } catch (const std::exception &e) {
                ++failures;
                ADD_FAILURE() << e.what();
            }
        };
    };
    std::vector<std::thread> clients;
    clients.emplace_back(guarded([&] {
        got_sweep_a[0] = Client(port).sweep(sweep_a);
    }));
    clients.emplace_back(guarded([&] {
        got_sweep_a[1] = Client(port).sweep(sweep_a);
    }));
    clients.emplace_back(guarded([&] {
        got_sweep_b = Client(port).sweep(sweep_b);
    }));
    clients.emplace_back(guarded([&] {
        got_map_a = Client(port).map(map_a);
    }));
    clients.emplace_back(guarded([&] {
        got_map_b = Client(port).map(map_b);
    }));
    clients.emplace_back(guarded([&] {
        got_margin_a = Client(port).margin(margin_a);
    }));
    clients.emplace_back(guarded([&] {
        got_trace_a = Client(port).trace(trace_a);
    }));
    clients.emplace_back(guarded([&] {
        got_guard_a = Client(port).guardband(guard_a);
    }));
    clients.emplace_back(guarded([&] {
        Client client(port);
        EXPECT_EQ(client.ping(), kProtocolVersion);
    }));

    // Give every client thread time to enqueue, then run the batch.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    server.pauseForTest(false);
    for (auto &t : clients)
        t.join();
    ASSERT_EQ(failures.load(), 0);

    // The same computations, directly against the library, with the
    // same context. Every double must match bit-for-bit.
    auto direct_sweep =
        sweepStimulusPoints(ctx, std::vector<SweepPointSpec>{
                                     sweep_a.spec, sweep_b.spec});
    for (const FreqSweepPoint &served :
         {got_sweep_a[0], got_sweep_a[1]}) {
        EXPECT_EQ(served.freq_hz, direct_sweep[0].freq_hz);
        EXPECT_EQ(served.max_p2p, direct_sweep[0].max_p2p);
        EXPECT_EQ(served.min_v, direct_sweep[0].min_v);
        for (int c = 0; c < kNumCores; ++c) {
            EXPECT_EQ(served.p2p[c], direct_sweep[0].p2p[c]);
            EXPECT_EQ(served.v_min[c], direct_sweep[0].v_min[c]);
        }
    }
    EXPECT_EQ(got_sweep_b.max_p2p, direct_sweep[1].max_p2p);
    EXPECT_EQ(got_sweep_b.min_v, direct_sweep[1].min_v);

    MappingStudy study(ctx, 2e6);
    auto direct_maps = study.runMany(
        std::vector<Mapping>{map_a.mapping, map_b.mapping});
    EXPECT_EQ(got_map_a.max_p2p, direct_maps[0].max_p2p);
    EXPECT_EQ(got_map_b.max_p2p, direct_maps[1].max_p2p);
    for (int c = 0; c < kNumCores; ++c) {
        EXPECT_EQ(got_map_a.v_min[c], direct_maps[0].v_min[c]);
        EXPECT_EQ(got_map_b.v_min[c], direct_maps[1].v_min[c]);
    }

    auto direct_margin = marginPoints(
        ctx, std::vector<MarginSpec>{margin_a.spec}, margin_a.bias_step);
    EXPECT_EQ(got_margin_a.bias_at_failure,
              direct_margin[0].bias_at_failure);
    EXPECT_EQ(got_margin_a.failed, direct_margin[0].failed);
    EXPECT_EQ(got_margin_a.events, direct_margin[0].events);

    auto direct_trace = droopTraces(
        ctx, std::vector<DroopTraceSpec>{trace_a.spec});
    ASSERT_EQ(got_trace_a.v.size(), direct_trace[0].v.size());
    EXPECT_EQ(got_trace_a.t0, direct_trace[0].t0);
    EXPECT_EQ(got_trace_a.dt, direct_trace[0].dt);
    EXPECT_EQ(got_trace_a.v_min, direct_trace[0].v_min);
    for (size_t i = 0; i < got_trace_a.v.size(); ++i)
        ASSERT_EQ(got_trace_a.v[i], direct_trace[0].v[i]) << i;

    auto direct_guard = guardbandStudy(ctx, guard_a.trace);
    EXPECT_EQ(got_guard_a.avg_voltage_static,
              direct_guard.avg_voltage_static);
    EXPECT_EQ(got_guard_a.avg_voltage_dynamic,
              direct_guard.avg_voltage_dynamic);
    for (int n = 0; n <= kNumCores; ++n) {
        EXPECT_EQ(got_guard_a.safe_bias[n], direct_guard.safe_bias[n]);
        EXPECT_EQ(got_guard_a.worst_droop[n],
                  direct_guard.worst_droop[n]);
        EXPECT_EQ(got_guard_a.histogram[n], direct_guard.histogram[n]);
    }

    // The two identical sweeps coalesced into one job; the counters
    // saw every request.
    ServiceCounters counters = server.dispatcher().counters();
    EXPECT_EQ(counters.received, 8u); // ping is answered inline
    EXPECT_EQ(counters.completed_ok, 8u);
    EXPECT_GE(counters.coalesced, 1u);
    EXPECT_EQ(counters.rejected_overloaded, 0u);

    server.beginShutdown();
    server.wait();
}

TEST(Service, QueueOverflowYieldsOverloadedNotHangs)
{
    auto ctx = context();
    ServerConfig config;
    config.dispatcher.queue_depth = 2;
    Server server(ctx, config);
    server.start();
    server.pauseForTest(true); // nothing leaves the queue

    // Fire 5 requests on one connection without waiting for replies:
    // raw frames, since the typed client is strictly synchronous.
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(server.port()));
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    for (int i = 0; i < 5; ++i) {
        Json request = Json::object();
        request.set("id", Json::number(i));
        request.set("verb", Json::str("sweep"));
        Json params = Json::object();
        params.set("freq_hz", Json::number(1e6 * (i + 1)));
        params.set("synchronized", Json::boolean(true));
        request.set("params", std::move(params));
        ASSERT_TRUE(writeFrame(fd, request.dump()));
    }

    // Depth 2: requests 0 and 1 are admitted; 2, 3, 4 bounce straight
    // back with `overloaded` while the batcher is still stalled.
    int overloaded = 0;
    for (int i = 0; i < 3; ++i) {
        std::string text;
        ASSERT_EQ(readFrame(fd, text, kDefaultMaxFrameBytes),
                  FrameStatus::Ok);
        Json response = Json::parse(text);
        ASSERT_FALSE(response.at("ok").asBool());
        EXPECT_EQ(response.at("error").at("code").asString(),
                  "overloaded");
        EXPECT_GE(response.at("id").asNumber(), 2.0);
        ++overloaded;
    }
    EXPECT_EQ(overloaded, 3);

    // Un-stall: the two admitted requests complete normally.
    server.pauseForTest(false);
    for (int i = 0; i < 2; ++i) {
        std::string text;
        ASSERT_EQ(readFrame(fd, text, kDefaultMaxFrameBytes),
                  FrameStatus::Ok);
        Json response = Json::parse(text);
        EXPECT_TRUE(response.at("ok").asBool());
        EXPECT_LE(response.at("id").asNumber(), 1.0);
    }
    ::close(fd);

    ServiceCounters counters = server.dispatcher().counters();
    EXPECT_EQ(counters.rejected_overloaded, 3u);
    EXPECT_EQ(counters.admitted, 2u);

    server.beginShutdown();
    server.wait();
}

TEST(Service, ExpiredDeadlineIsAnsweredWithoutComputing)
{
    auto ctx = context();
    Server server(ctx, ServerConfig{});
    server.start();
    server.pauseForTest(true);

    std::string code;
    std::thread requester([&] {
        Client client(server.port());
        client.setDeadlineMs(0.0);
        try {
            client.sweep(SweepRequest{{2.4e6, true}});
        } catch (const ServiceError &e) {
            code = e.code();
        }
    });
    // The deadline (arrival + 0 ms) has long passed when the batcher
    // finally dequeues the request.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server.pauseForTest(false);
    requester.join();
    EXPECT_EQ(code, "deadline_exceeded");

    ServiceCounters counters = server.dispatcher().counters();
    EXPECT_EQ(counters.deadline_expired, 1u);
    EXPECT_EQ(counters.campaign.executed, 0u); // never computed

    server.beginShutdown();
    server.wait();
}

TEST(Service, SigtermDrainsInFlightRequestsBeforeExit)
{
    auto ctx = context();
    Server server(ctx, ServerConfig{});
    server.start();
    server.installSignalHandlers();
    server.pauseForTest(true);

    // Two requests in the queue, responses not yet read.
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(server.port()));
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    for (int i = 0; i < 2; ++i) {
        Json request = Json::object();
        request.set("id", Json::number(i));
        request.set("verb", Json::str("sweep"));
        Json params = Json::object();
        params.set("freq_hz", Json::number(2e6 + i * 1e6));
        request.set("params", std::move(params));
        ASSERT_TRUE(writeFrame(fd, request.dump()));
    }
    // Let both submissions reach the admission queue.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    std::raise(SIGTERM);
    // Drain overrides the test pause: wait() must complete both
    // admitted requests and write their responses before closing.
    server.wait();

    for (int i = 0; i < 2; ++i) {
        std::string text;
        ASSERT_EQ(readFrame(fd, text, kDefaultMaxFrameBytes),
                  FrameStatus::Ok)
            << "response " << i << " was dropped during shutdown";
        Json response = Json::parse(text);
        EXPECT_TRUE(response.at("ok").asBool());
    }
    std::string text;
    EXPECT_EQ(readFrame(fd, text, kDefaultMaxFrameBytes),
              FrameStatus::Eof);
    ::close(fd);

    ServiceCounters counters = server.dispatcher().counters();
    EXPECT_EQ(counters.completed_ok, 2u);

    // The listener is gone: new connections are refused.
    EXPECT_THROW(Client{server.port()}, ServiceError);

    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
}

TEST(ServiceDeathTest, SecondSignalExitsAtOnceWith130)
{
    // The first SIGTERM starts the graceful drain; an operator done
    // waiting on it sends a second, which must end the process at
    // once with status 130 instead of running the drain to the end
    // (which would exit 0 here).
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            vn::AnalysisContext ctx; // no kit: nothing computes
            ctx.campaign.cache_dir.clear();
            Server server(ctx, ServerConfig{});
            server.start();
            server.installSignalHandlers();
            std::raise(SIGTERM);
            std::raise(SIGTERM);
            server.wait();
            std::exit(0);
        },
        ::testing::ExitedWithCode(130), "");
}

TEST(Service, DrainTimeoutBoundsShutdownWithAWedgedBatcher)
{
    // A batch wedged mid-campaign (simulated by a blocking batch
    // hook) must not turn shutdown into a hang: after
    // drain_timeout_s, queued-but-unbatched requests are answered
    // `shutting_down`, wait() returns, and drainedCleanly() reports
    // the abandoned drain.
    auto ctx = context();
    ServerConfig config;
    config.drain_timeout_s = 0.5;
    config.dispatcher.max_batch = 1; // one request per batch
    Server server(ctx, config);
    server.start();
    server.pauseForTest(true);

    std::mutex hook_mutex;
    std::condition_variable hook_cv;
    bool batch_entered = false;
    bool hook_released = false;
    server.setBatchHookForTest([&] {
        std::unique_lock<std::mutex> lock(hook_mutex);
        batch_entered = true;
        hook_cv.notify_all();
        hook_cv.wait(lock, [&] { return hook_released; });
    });

    // Two requests: request 0 will wedge inside the first batch,
    // request 1 stays queued behind it.
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(server.port()));
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    for (int i = 0; i < 2; ++i) {
        Json request = Json::object();
        request.set("id", Json::number(i));
        request.set("verb", Json::str("sweep"));
        Json params = Json::object();
        params.set("freq_hz", Json::number(2e6 + i * 1e6));
        request.set("params", std::move(params));
        ASSERT_TRUE(writeFrame(fd, request.dump()));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    // Release the pause; the batcher takes request 0 and wedges.
    server.pauseForTest(false);
    {
        std::unique_lock<std::mutex> lock(hook_mutex);
        ASSERT_TRUE(hook_cv.wait_for(lock, std::chrono::seconds(5),
                                     [&] { return batch_entered; }));
    }

    auto shutdown_started = std::chrono::steady_clock::now();
    server.beginShutdown();
    server.wait(); // must return despite the wedged batch
    double waited_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      shutdown_started)
            .count();
    EXPECT_LT(waited_s, 5.0);
    EXPECT_FALSE(server.drainedCleanly());

    // The queued request was cancelled with a structured error, its
    // response written before the connection came down.
    std::string text;
    ASSERT_EQ(readFrame(fd, text, kDefaultMaxFrameBytes),
              FrameStatus::Ok);
    Json response = Json::parse(text);
    ASSERT_FALSE(response.at("ok").asBool());
    EXPECT_EQ(response.at("error").at("code").asString(),
              "shutting_down");
    EXPECT_EQ(response.at("id").asNumber(), 1.0);
    EXPECT_EQ(readFrame(fd, text, kDefaultMaxFrameBytes),
              FrameStatus::Eof);
    ::close(fd);

    ServiceCounters counters = server.dispatcher().counters();
    EXPECT_EQ(counters.rejected_shutdown, 1u);

    // Unwedge so the Dispatcher destructor can join the batcher; the
    // wedged request completes into the now-closed connection.
    {
        std::lock_guard<std::mutex> lock(hook_mutex);
        hook_released = true;
    }
    hook_cv.notify_all();
}

TEST(Service, ShutdownVerbDrainsLikeASignal)
{
    auto ctx = context();
    Server server(ctx, ServerConfig{});
    server.start();

    Client client(server.port());
    EXPECT_EQ(client.ping(), kProtocolVersion);
    client.shutdown();
    server.wait(); // returns because the verb triggered the drain

    ServiceCounters counters = server.dispatcher().counters();
    EXPECT_EQ(counters.received, 0u); // ping/shutdown answered inline
}

} // namespace
