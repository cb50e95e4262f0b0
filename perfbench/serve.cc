/**
 * @file
 * Serving workloads: an open loop of seeded arrivals into in-process
 * vnoised backends over loopback, through ResilientClient.
 *
 *  - serve_mixed: one backend with two dispatcher workers.
 *  - fleet_mixed: vnoise_router in front of two backends with one
 *    worker each and the router's shared result tier off, so every
 *    request pays the relay hop.
 *
 * Both send the same schedule for a seed: hot reads of small results
 * (sweep points, mapping scores, Vmin cells) and of 60k-sample traces
 * (streamed), warmed into the result cache before timing begins, plus
 * cold writes: distinct sweep points the backend computes and stores.
 * Load is bounded by the machine's four cores: two dispatcher workers
 * and two client connections, each driven by one sender thread.
 */

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <numeric>
#include <thread>

#include "circuit/factorization.hh"
#include "pools.hh"
#include "probes.hh"
#include "router/router.hh"
#include "service/resilient.hh"
#include "service/server.hh"
#include "util/rng.hh"
#include "workloads.hh"

namespace vnbench
{

namespace
{

namespace fs = std::filesystem;
using vn::service::Json;

/**
 * Offered load (requests per second) of each class. A trace or a write
 * holds the single batcher thread for ~0.1-0.2 s, so this keeps it about
 * a fifth busy: well below saturation, and far enough from half busy
 * that the median point read stays unqueued on a slower host too.
 */
constexpr double kPointRate = 40.0;
constexpr double kTraceRate = 0.8;
constexpr double kWriteRate = 0.8;

/** Latency limits (ms, from the due time) for goodput. */
constexpr double kPointLimitMs = 250.0;
constexpr double kTraceLimitMs = 1500.0;
constexpr double kWriteLimitMs = 1500.0;

/** The generator has fallen behind its schedule when its 99th
 *  percentile send lag exceeds this. */
constexpr double kMaxLateP99Ms = 1000.0;

/** Set-up repetitions (a full deploy and warm-up each); setup_s is
 *  their median. */
constexpr int kSetupRepeats = 3;

constexpr int kSenders = 2;
constexpr int kServeWorkers = 2; //!< serve_mixed: one backend
constexpr int kFleetWorkers = 1; //!< fleet_mixed: per backend
constexpr int kWarmJobs = 4;     //!< in-process warm-up (setup, not load)

/** Hot set composition. */
constexpr size_t kHotSweeps = 16;
constexpr size_t kHotMaps = 12;
constexpr size_t kHotCells = 4;

/** Closed-loop point reads per pass of the tracing-overhead check. */
constexpr int kOverheadReads = 100;

enum Class
{
    kPoint = 0,
    kTrace = 1,
    kWrite = 2,
};

/** One scheduled request with the digest its result must have. */
struct Request
{
    double due_s = 0.0;
    Class cls = kPoint;
    vn::service::AnyRequest request;
    std::string key;      //!< pool key (golden lookup)
    uint64_t expect = 0;  //!< in-process digest (hot reads)
};

struct Outcome
{
    double latency_ms = 0.0; //!< done - due
    double wire_ms = 0.0;    //!< done - sent
    double late_ms = 0.0;    //!< sent - due
    bool ok = false;
    uint64_t digest = 0;
};

/** Hot items with their in-process results' digests. */
struct HotSet
{
    std::vector<Request> small; //!< sweep, map, margin reads
    std::vector<Request> traces;
};

/** One running deployment: backends, optional router, its inputs. */
struct Deployment
{
    std::unique_ptr<vn::StressmarkKit> kit;
    std::vector<std::string> cache_dirs;
    std::vector<std::unique_ptr<vn::service::Server>> servers;
    std::unique_ptr<vn::router::Router> router;
    int port = 0; //!< where clients connect
    HotSet hot;

    ~Deployment()
    {
        if (router) {
            router->beginShutdown();
            router->wait();
        }
        for (auto &server : servers) {
            server->beginShutdown();
            server->wait();
        }
    }
};

/**
 * Compute the hot set in process, into the first backend's result
 * cache (the other backends get a copy), and keep each result's digest
 * so every served read can be compared with it.
 */
void
warm(Deployment &d, const Options &options, const Golden &golden,
     Report &report)
{
    Scope span("warmup");
    vn::Rng rng(options.seed ^ 0x5eedf00dull);
    std::vector<vn::SweepPointSpec> sweeps =
        Deck(sweepPool()).draw(kHotSweeps, rng);
    std::vector<vn::Mapping> maps = Deck(mappingPool()).draw(kHotMaps, rng);
    std::vector<vn::MarginSpec> cells =
        Deck(filtered(marginPool(), [](const vn::MarginSpec &c) {
            return c.events > 0;
        })).draw(kHotCells, rng);
    std::vector<vn::DroopTraceSpec> traces = tracePool();

    vn::AnalysisContext ctx = analysisContext(*d.kit);
    ctx.campaign.jobs = kWarmJobs;
    ctx.campaign.cache_dir = d.cache_dirs.front();

    auto add = [&](std::vector<Request> &into, Class cls,
                   vn::service::AnyRequest request, const std::string &key,
                   uint64_t digest) {
        checkGolden(golden, key, digest, report);
        into.push_back({0.0, cls, std::move(request), key, digest});
    };
    std::vector<vn::FreqSweepPoint> points;
    {
        Scope call("analysis.sweepStimulusPoints");
        points = vn::sweepStimulusPoints(ctx, sweeps);
    }
    for (size_t i = 0; i < sweeps.size(); ++i)
        add(d.hot.small, kPoint, vn::service::SweepRequest{sweeps[i]},
            keyOf(sweeps[i]), digestOf(points[i]));
    std::vector<vn::MappingResult> scores;
    {
        Scope call("analysis.MappingStudy.runMany");
        scores = vn::MappingStudy(ctx, kMapFreqHz).runMany(maps);
    }
    for (size_t i = 0; i < maps.size(); ++i)
        add(d.hot.small, kPoint, vn::service::MapRequest{maps[i], kMapFreqHz},
            keyOf(maps[i]), digestOf(scores[i]));
    std::vector<vn::MarginPoint> margins;
    {
        Scope call("analysis.marginPoints");
        margins = vn::marginPoints(ctx, cells, kBiasStep);
    }
    for (size_t i = 0; i < cells.size(); ++i)
        add(d.hot.small, kPoint,
            vn::service::MarginRequest{cells[i], kBiasStep}, keyOf(cells[i]),
            digestOf(margins[i]));
    std::vector<vn::DroopTrace> captured;
    {
        Scope call("analysis.droopTraces");
        captured = vn::droopTraces(ctx, traces);
    }
    for (size_t i = 0; i < traces.size(); ++i)
        add(d.hot.traces, kTrace, vn::service::TraceRequest{traces[i]},
            keyOf(traces[i]), digestOf(captured[i]));

    for (size_t b = 1; b < d.cache_dirs.size(); ++b)
        fs::copy(d.cache_dirs.front(), d.cache_dirs[b],
                 fs::copy_options::recursive |
                     fs::copy_options::overwrite_existing);
}

std::unique_ptr<Deployment>
deploy(const Options &options, int rep, const Golden &golden, Report &report)
{
    Scope span("setup");
    const bool fleet = options.workload == "fleet_mixed";
    auto d = std::make_unique<Deployment>();
    d->kit = std::make_unique<vn::StressmarkKit>(
        vn::StressmarkKit::cached(coreModel(), options.kit_memo));

    const int backends = fleet ? 2 : 1;
    fs::path root = fs::path(options.run_dir) / ("deploy" + std::to_string(rep));
    fs::remove_all(root);
    for (int b = 0; b < backends; ++b) {
        std::string dir = (root / ("cache-b" + std::to_string(b))).string();
        fs::create_directories(dir);
        d->cache_dirs.push_back(dir);
    }
    warm(*d, options, golden, report);

    for (int b = 0; b < backends; ++b) {
        vn::AnalysisContext ctx = analysisContext(*d->kit);
        ctx.campaign.jobs = fleet ? kFleetWorkers : kServeWorkers;
        ctx.campaign.cache_dir = d->cache_dirs[b];
        vn::service::ServerConfig config;
        config.advertise = "b" + std::to_string(b);
        d->servers.push_back(
            std::make_unique<vn::service::Server>(ctx, config));
        d->servers.back()->start();
    }
    d->port = d->servers.front()->port();
    if (fleet) {
        vn::router::RouterConfig config;
        for (int b = 0; b < backends; ++b)
            config.backends.push_back({"b" + std::to_string(b),
                                       d->servers[b]->port(), -1});
        d->router = std::make_unique<vn::router::Router>(config);
        d->router->start();
        d->port = d->router->port();
    }
    return d;
}

/**
 * The seeded schedule: a fixed number of requests per class, with
 * arrival times drawn uniformly over the window (a Poisson process
 * conditioned on its count) and skewed choice among hot items.
 */
std::vector<Request>
schedule(const HotSet &hot, uint64_t seed, double seconds)
{
    vn::Rng rng(seed);
    // At least one request of each class, however short the run.
    auto count = [seconds](double rate) {
        return std::max<size_t>(
            1, static_cast<size_t>(std::lround(rate * seconds)));
    };
    const size_t points = count(kPointRate);
    const size_t traces = count(kTraceRate);
    const size_t writes = std::min<size_t>(count(kWriteRate), 256);

    // Zipf(1) popularity over a seeded ranking of the hot items.
    auto skewed = [&rng](const std::vector<Request> &items) {
        std::vector<size_t> rank(items.size());
        std::iota(rank.begin(), rank.end(), 0);
        for (size_t i = rank.size(); i > 1; --i)
            std::swap(rank[i - 1], rank[rng.next() % i]);
        std::vector<double> cdf;
        double sum = 0.0;
        for (size_t i = 0; i < items.size(); ++i)
            cdf.push_back(sum += 1.0 / static_cast<double>(i + 1));
        return [&items, rank, cdf, sum](vn::Rng &r) {
            double u = r.uniform() * sum;
            size_t i = static_cast<size_t>(
                std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
            return items[rank[std::min(i, rank.size() - 1)]];
        };
    };
    auto pick_small = skewed(hot.small);
    auto pick_trace = skewed(hot.traces);

    std::vector<Request> out;
    for (size_t i = 0; i < points; ++i)
        out.push_back(pick_small(rng));
    for (size_t i = 0; i < traces; ++i)
        out.push_back(pick_trace(rng));
    for (const vn::SweepPointSpec &w : Deck(writePool()).draw(writes, rng)) {
        Request r;
        r.cls = kWrite;
        r.request = vn::service::SweepRequest{w};
        r.key = keyOf(w);
        out.push_back(std::move(r));
    }
    for (size_t i = out.size(); i > 1; --i)
        std::swap(out[i - 1], out[rng.next() % i]);
    std::vector<double> due;
    for (size_t i = 0; i < out.size(); ++i)
        due.push_back(rng.uniform() * seconds);
    std::sort(due.begin(), due.end());
    for (size_t i = 0; i < out.size(); ++i)
        out[i].due_s = due[i];
    return out;
}

/** Issue one request; returns the digest of the decoded result. */
uint64_t
call(vn::service::ResilientClient &client, const Request &r, uint64_t id,
     vn::FreqSweepPoint *keep_point, vn::DroopTrace *keep_trace)
{
    if (const auto *s = std::get_if<vn::service::SweepRequest>(&r.request)) {
        Scope span("client.sweep", id);
        vn::FreqSweepPoint p = client.sweep(*s);
        if (keep_point != nullptr)
            *keep_point = p;
        return digestOf(p);
    }
    if (const auto *m = std::get_if<vn::service::MapRequest>(&r.request)) {
        Scope span("client.map", id);
        return digestOf(client.map(*m));
    }
    if (const auto *m = std::get_if<vn::service::MarginRequest>(&r.request)) {
        Scope span("client.margin", id);
        return digestOf(client.margin(*m));
    }
    const auto &t = std::get<vn::service::TraceRequest>(r.request);
    Scope span("client.trace", id);
    vn::DroopTrace trace = client.trace(t);
    if (keep_trace != nullptr)
        *keep_trace = trace;
    return digestOf(trace);
}

vn::service::ResilientClientConfig
clientConfig(int port, int pool)
{
    vn::service::ResilientClientConfig config;
    config.port = port;
    config.pool_size = pool;
    config.retry.call_deadline_ms = 60000.0;
    return config;
}

/** Drive the schedule open-loop from kSenders threads. */
std::vector<Outcome>
openLoop(int port, const std::vector<Request> &requests,
         vn::FreqSweepPoint *keep_point, vn::DroopTrace *keep_trace)
{
    vn::service::ResilientClient client(clientConfig(port, kSenders));
    client.setAcceptStream(true);
    std::vector<Outcome> outcomes(requests.size());
    std::atomic<size_t> next{0};
    std::mutex keep_mutex;
    bool kept_point = false, kept_trace = false;
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(20);

    auto sender = [&] {
        // Wake at the due time itself, not up to the default 50 us
        // timer slack later: that lag would count as latency.
        prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        for (size_t i; (i = next.fetch_add(1)) < requests.size();) {
            const Request &r = requests[i];
            Clock::time_point due =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(r.due_s));
            std::this_thread::sleep_until(due);
            Clock::time_point sent = Clock::now();
            Outcome &o = outcomes[i];
            vn::FreqSweepPoint point;
            vn::DroopTrace trace;
            try {
                o.digest = call(client, r, i + 1, &point, &trace);
                o.ok = true;
            } catch (const std::exception &) {
                o.ok = false;
            }
            Clock::time_point done = Clock::now();
            o.latency_ms = msBetween(due, done);
            o.wire_ms = msBetween(sent, done);
            o.late_ms = msBetween(due, sent);
            if (o.ok && (r.cls == kTrace || r.cls == kPoint)) {
                std::lock_guard<std::mutex> lock(keep_mutex);
                if (r.cls == kTrace && !kept_trace) {
                    *keep_trace = std::move(trace);
                    kept_trace = true;
                } else if (std::holds_alternative<vn::service::SweepRequest>(
                               r.request) &&
                           !kept_point) {
                    *keep_point = point;
                    kept_point = true;
                }
            }
        }
    };
    std::vector<std::thread> threads;
    for (int s = 0; s < kSenders; ++s)
        threads.emplace_back(sender);
    for (auto &t : threads)
        t.join();
    return outcomes;
}

/** Closed-loop hot point reads; returns their latencies. */
std::vector<double>
closedLoopReads(int port, const HotSet &hot, int n)
{
    vn::service::ResilientClient client(clientConfig(port, 1));
    std::vector<double> ms;
    for (int i = 0; i < n; ++i) {
        const Request &r = hot.small[static_cast<size_t>(i) % hot.small.size()];
        Clock::time_point t0 = Clock::now();
        call(client, r, 0, nullptr, nullptr);
        ms.push_back(msBetween(t0, Clock::now()));
    }
    return ms;
}

double
num(const Json &doc, const char *section, const char *key)
{
    return doc.at(section).numberOr(key, 0.0);
}

} // namespace

void
runServe(const Options &options, const Golden &golden, Report &report)
{
    const bool fleet = options.workload == "fleet_mixed";

    // Set up several times: each repetition warms a fresh cache and
    // starts fresh backends (and router); the last one is measured.
    std::vector<double> setup_s;
    std::unique_ptr<Deployment> d;
    for (int r = 0; r < kSetupRepeats; ++r) {
        d.reset();
        vn::FactorizationCache::global().clear();
        if (options.trace && r + 1 == kSetupRepeats)
            Tracer::instance().enable(true);
        Clock::time_point t0 = Clock::now();
        d = deploy(options, r, golden, report);
        setup_s.push_back(secondsSince(t0));
    }
    Tracer::instance().enable(false);
    for (int r = 0; r + 1 < kSetupRepeats; ++r)
        fs::remove_all(fs::path(options.run_dir) / ("deploy" + std::to_string(r)));

    double overhead_pct = 0.0;
    if (options.trace) {
        double untraced = median(closedLoopReads(d->port, d->hot, kOverheadReads));
        Tracer::instance().enable(true);
        double traced = median(closedLoopReads(d->port, d->hot, kOverheadReads));
        overhead_pct = 100.0 * (traced - untraced) / untraced;
    }

    const size_t fact_hits0 = vn::FactorizationCache::global().hits();
    const size_t fact_misses0 = vn::FactorizationCache::global().misses();
    const std::vector<Request> requests =
        schedule(d->hot, options.seed, options.seconds);
    vn::FreqSweepPoint served_point;
    vn::DroopTrace served_trace;
    Clock::time_point loop_start = Clock::now();
    std::vector<Outcome> outcomes =
        openLoop(d->port, requests, &served_point, &served_trace);
    double loop_s = secondsSince(loop_start);

    // Every served result must equal the in-process result for the same
    // request: hot reads were computed at warm-up, writes are recomputed
    // now with the cache off.
    std::vector<vn::SweepPointSpec> write_specs;
    std::vector<size_t> write_index;
    for (size_t i = 0; i < requests.size(); ++i)
        if (requests[i].cls == kWrite) {
            write_specs.push_back(
                std::get<vn::service::SweepRequest>(requests[i].request).spec);
            write_index.push_back(i);
        }
    std::vector<vn::FreqSweepPoint> recomputed;
    {
        vn::AnalysisContext ctx = analysisContext(*d->kit);
        ctx.campaign.jobs = kWarmJobs;
        Scope call("analysis.sweepStimulusPoints");
        recomputed = vn::sweepStimulusPoints(ctx, write_specs);
    }
    std::vector<uint64_t> expect(requests.size());
    for (size_t i = 0; i < requests.size(); ++i)
        expect[i] = requests[i].expect;
    for (size_t w = 0; w < write_index.size(); ++w) {
        expect[write_index[w]] = digestOf(recomputed[w]);
        checkGolden(golden, requests[write_index[w]].key,
                    digestOf(recomputed[w]), report);
    }

    std::vector<double> by_class[3], all_ms, wire_ms, late_ms;
    size_t good = 0;
    const double limit[3] = {kPointLimitMs, kTraceLimitMs, kWriteLimitMs};
    report.attempted += requests.size();
    for (size_t i = 0; i < requests.size(); ++i) {
        const Outcome &o = outcomes[i];
        const Request &r = requests[i];
        late_ms.push_back(o.late_ms);
        if (!o.ok || o.digest != expect[i]) {
            ++report.failed;
            report.fail(std::string(o.ok ? "served result differs from "
                                           "in-process result for "
                                         : "request failed: ") +
                        r.key);
            continue;
        }
        by_class[r.cls].push_back(o.latency_ms);
        all_ms.push_back(o.latency_ms);
        wire_ms.push_back(o.wire_ms);
        if (o.latency_ms <= limit[r.cls])
            ++good;
    }
    double late_p99 = percentile(late_ms, 99.0);
    if (late_p99 > kMaxLateP99Ms)
        report.fail("generator fell behind its schedule: send lag p99 " +
                    std::to_string(late_p99) + " ms");

    // stats reads: backend documents (summed), router document.
    Json router_stats;
    std::vector<Json> backend_stats;
    {
        for (const auto &server : d->servers) {
            vn::service::ResilientClient client(clientConfig(server->port(), 1));
            Scope span("client.stats");
            backend_stats.push_back(client.stats());
        }
        if (fleet) {
            vn::service::ResilientClient client(clientConfig(d->port, 1));
            Scope span("client.stats");
            router_stats = client.stats();
        }
    }
    auto sum = [&](const char *section, const char *key) {
        double total = 0.0;
        for (const Json &doc : backend_stats)
            total += num(doc, section, key);
        return total;
    };
    const double writes = static_cast<double>(write_specs.size());
    const double hits = sum("campaign", "cache_hits");
    const double read_jobs = hits + sum("campaign", "executed") - writes;
    if (read_jobs <= 0.0 || hits != read_jobs)
        report.fail("hot reads missed the warmed cache: " +
                    std::to_string(hits) + " hits of " +
                    std::to_string(read_jobs) + " read jobs");

    if (!options.trace) {
        report.set("setup_s", median(setup_s), "s", setup_s.size());
        report.set("throughput_per_s", static_cast<double>(good) / loop_s,
                   "1/s", good, "goodput: correct and within class limit");
        report.set("latency_p50_ms", median(all_ms), "ms", all_ms.size(),
                   "all classes, from due time");
        return;
    }

    // ------------------------------------------------------- per layer
    report.set("serve.point_p50_ms", median(by_class[kPoint]), "ms",
               by_class[kPoint].size());
    report.set("serve.point_p90_ms", percentile(by_class[kPoint], 90.0), "ms",
               by_class[kPoint].size());
    report.set("serve.trace_p50_ms", median(by_class[kTrace]), "ms",
               by_class[kTrace].size());
    report.set("serve.write_p50_ms", median(by_class[kWrite]), "ms",
               by_class[kWrite].size());
    report.set("serve.goodput_rps", static_cast<double>(good) / loop_s, "1/s",
               good);
    report.set("bench.gen_late_p99_ms", late_p99, "ms", late_ms.size());
    report.set("bench.trace_overhead_pct", overhead_pct, "%",
               kOverheadReads, "traced vs untraced hot point p50");

    report.set("runtime.jobs", sum("campaign", "jobs"), "count");
    report.set("runtime.executed", sum("campaign", "executed"), "count");
    report.set("runtime.cache_hits", hits, "count");
    report.set("runtime.lane_batches", 0.0, "count", 0,
               "not in stats; campaign lane batches are offline-only");
    report.set("runtime.steals", sum("campaign", "steals"), "count");
    report.set("runtime.failures", sum("campaign", "failures"), "count");
    report.set("runtime.read_hit_ratio", read_jobs > 0 ? hits / read_jobs : 0.0,
               "ratio", static_cast<size_t>(read_jobs),
               "base=runtime.read_jobs");
    report.set("runtime.read_jobs", read_jobs, "count");

    std::vector<double> server_ms, wait_i, wait_b;
    for (const auto &server : d->servers) {
        for (double v : server->dispatcher().latencySamplesMs())
            server_ms.push_back(v);
        for (double v :
             server->dispatcher().tierWaitSamplesMs(vn::service::Tier::Interactive))
            wait_i.push_back(v);
        for (double v :
             server->dispatcher().tierWaitSamplesMs(vn::service::Tier::Batch))
            wait_b.push_back(v);
    }
    report.set("service.server_p50_ms", median(server_ms), "ms",
               server_ms.size(), "stats latency_ms samples, all backends");
    report.set("service.server_p99_ms", percentile(server_ms, 99.0), "ms",
               server_ms.size(), "stats latency_ms samples, all backends");
    report.set("service.wait_p99_ms.interactive", percentile(wait_i, 99.0),
               "ms", wait_i.size());
    report.set("service.wait_p99_ms.batch", percentile(wait_b, 99.0), "ms",
               wait_b.size());
    const double batches = sum("batching", "batches");
    report.set("service.batch_size_mean",
               batches > 0 ? sum("requests", "admitted") / batches : 0.0,
               "count", static_cast<size_t>(batches));
    report.set("service.coalesced", sum("batching", "coalesced"), "count");
    report.set("service.rejected",
               sum("requests", "rejected_overloaded") +
                   sum("requests", "rejected_shutdown"),
               "count");
    report.set("service.stream_chunks", sum("server", "stream_chunks"),
               "count");

    if (fleet) {
        const Json &rs = router_stats.at("router");
        report.set("router.forwarded", rs.numberOr("forwarded_total", 0.0),
                   "count");
        report.set("router.rebalanced", rs.numberOr("rebalanced_total", 0.0),
                   "count");
        report.set("router.hedged", rs.numberOr("hedged_total", 0.0), "count");
        report.set("router.no_backend", rs.numberOr("no_backend_total", 0.0),
                   "count");
        report.set("router.streamed_relays",
                   rs.numberOr("streamed_relays_total", 0.0), "count");
        report.set("router.relay_p50_ms",
                   median(wire_ms) - median(server_ms), "ms", wire_ms.size(),
                   "derived: client p50 minus backend p50");
        report.set("router.relay_p99_ms",
                   percentile(wire_ms, 99.0) - percentile(server_ms, 99.0),
                   "ms", wire_ms.size(),
                   "derived: client p99 minus backend p99");
    } else {
        for (const char *name :
             {"router.forwarded", "router.rebalanced", "router.hedged",
              "router.no_backend", "router.streamed_relays"})
            report.set(name, 0.0, "count", 0);
        report.set("router.relay_p50_ms", 0.0, "ms", 0);
        report.set("router.relay_p99_ms", 0.0, "ms", 0);
    }

    report.set("circuit.fact_misses",
               static_cast<double>(vn::FactorizationCache::global().misses() -
                                   fact_misses0),
               "count");
    report.set("circuit.fact_hits",
               static_cast<double>(vn::FactorizationCache::global().hits() -
                                   fact_hits0),
               "count", 1, "varies with how the dispatcher batches writes");

    double ms = Tracer::instance().totalMs("analysis.sweepStimulusPoints");
    report.set("analysis.sweep_point_ms",
               ms / static_cast<double>(kHotSweeps + write_specs.size()), "ms",
               kHotSweeps + write_specs.size());
    report.set("analysis.mapping_ms",
               Tracer::instance().totalMs("analysis.MappingStudy.runMany") /
                   kHotMaps,
               "ms", kHotMaps);
    report.set("analysis.margin_cell_ms",
               Tracer::instance().totalMs("analysis.marginPoints") / kHotCells,
               "ms", kHotCells);

    // Probes on this run's own inputs and results.
    probeCache(d->cache_dirs.front(),
               (fs::path(options.run_dir) / "probe-cache").string(), report);
    probeCodec(served_point, served_trace, report);
    // Chip probes use the stressmarks of the written sweep points, one
    // per solver lane.
    std::vector<ChipInputs> lanes;
    for (const vn::SweepPointSpec &w : write_specs) {
        if (lanes.size() >= 8)
            break;
        vn::StressmarkSpec spec;
        spec.stimulus_freq_hz = w.freq_hz;
        vn::Stressmark sm = d->kit->make(spec);
        lanes.push_back(ChipInputs{{sm.activity(), sm.activity(), sm.activity(),
                                    sm.activity(), sm.activity(), sm.activity()},
                                   24e-6});
    }
    vn::ChipConfig chip_config = analysisContext(*d->kit).chip_config;
    probeChip(chip_config, lanes, report);
    for (const Request &r : d->hot.small) {
        const auto *m = std::get_if<vn::service::MarginRequest>(&r.request);
        if (m == nullptr)
            continue;
        vn::StressmarkSpec spec;
        spec.stimulus_freq_hz = m->spec.freq_hz;
        spec.consecutive_events = m->spec.events;
        vn::Stressmark sm = d->kit->make(spec);
        probeVmin(chip_config,
                  ChipInputs{{sm.activity(), sm.activity(), sm.activity(),
                              sm.activity(), sm.activity(), sm.activity()},
                             std::clamp(4.0 / m->spec.freq_hz, 20e-6, 120e-6)},
                  report);
        break;
    }
    Tracer::instance().enable(false);
}

} // namespace vnbench
