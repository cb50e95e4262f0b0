/**
 * @file
 * Offline campaign workloads, result cache off.
 *
 *  - sweep_cold: every round is one sweepStimulusPoints() campaign over
 *    16 synchronized and 8 free-running points plus one
 *    MappingStudy::runMany() over 16 mappings. Its time goes to batched
 *    and scalar chip co-simulation; none goes to Vmin, cache, codec,
 *    wire or router.
 *  - margin_cold: every round is one marginPoints() campaign over 16
 *    synchronized and 4 free-running Vmin cells (half the pool): scalar
 *    per-bias-step transients with a fresh ChipModel at each step. Cell
 *    costs differ by 4x, so rounds are large enough that workers do not
 *    sit idle waiting for the round's last cell.
 */

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <memory>
#include <thread>

#include "analysis/mapping.hh"
#include "analysis/margins.hh"
#include "analysis/sweeps.hh"
#include "circuit/factorization.hh"
#include "pools.hh"
#include "probes.hh"
#include "util/rng.hh"
#include "workloads.hh"

namespace vnbench
{

namespace
{

constexpr size_t kSyncPoints = 16;
constexpr size_t kFreePoints = 8;
constexpr size_t kMappings = 16;
constexpr size_t kSyncCells = 16;
constexpr size_t kFreeCells = 4;

/** Cold set-up takes under a millisecond, so it is repeated often
 *  enough for its median to be steady. Repetitions are pinned to the
 *  allowed CPUs in turn, so the median covers every CPU rather than
 *  whichever one the main thread happens to sit on. */
constexpr int kColdSetupRepeats = 100;

/** Rounds of the traced run: each is run untraced, then traced. */
constexpr int kTracedRoundsSweep = 4;
constexpr int kTracedRoundsMargin = 2;

struct Round
{
    std::vector<vn::SweepPointSpec> sweeps;
    std::vector<vn::Mapping> maps;
    std::vector<vn::MarginSpec> cells;

    size_t jobs() const { return sweeps.size() + maps.size() + cells.size(); }
};

/**
 * The seeded stream of rounds. Synchronized and free-running items
 * differ in cost (a free point or cell unions several random-phase
 * draws), so every round takes a fixed number of each.
 */
class RoundSource
{
  public:
    RoundSource(bool margin, uint64_t seed)
        : margin_(margin), rng_(seed),
          sync_points_(filtered(sweepPool(),
                                [](const auto &s) { return s.synchronized; })),
          free_points_(filtered(sweepPool(),
                                [](const auto &s) { return !s.synchronized; })),
          mappings_(mappingPool()),
          sync_cells_(filtered(marginPool(),
                               [](const auto &c) { return c.events > 0; })),
          free_cells_(filtered(marginPool(),
                               [](const auto &c) { return c.events <= 0; }))
    {}

    Round
    next()
    {
        Round round;
        // The costlier free-running items are submitted first, so they
        // do not start last and stretch the round.
        if (margin_) {
            round.cells = free_cells_.draw(kFreeCells, rng_);
            for (const vn::MarginSpec &c : sync_cells_.draw(kSyncCells, rng_))
                round.cells.push_back(c);
            return round;
        }
        round.sweeps = free_points_.draw(kFreePoints, rng_);
        for (const vn::SweepPointSpec &p : sync_points_.draw(kSyncPoints, rng_))
            round.sweeps.push_back(p);
        round.maps = mappings_.draw(kMappings, rng_);
        return round;
    }

  private:
    bool margin_;
    vn::Rng rng_;
    Deck<vn::SweepPointSpec> sync_points_;
    Deck<vn::SweepPointSpec> free_points_;
    Deck<vn::Mapping> mappings_;
    Deck<vn::MarginSpec> sync_cells_;
    Deck<vn::MarginSpec> free_cells_;
};

/** Everything a cold run builds before timing may begin. */
struct ColdSetup
{
    std::unique_ptr<vn::StressmarkKit> kit;
    vn::AnalysisContext ctx;
    std::unique_ptr<vn::ChipModel> chip;
    std::unique_ptr<vn::MappingStudy> study; //!< holds a reference to ctx
    vn::runtime::CampaignStats stats;
};

std::unique_ptr<ColdSetup>
setUp(const Options &options, bool margin)
{
    Scope span("setup");
    auto s = std::make_unique<ColdSetup>();
    s->kit = std::make_unique<vn::StressmarkKit>(
        vn::StressmarkKit::cached(coreModel(), options.kit_memo));
    s->ctx = analysisContext(*s->kit);
    s->ctx.campaign.jobs = kColdJobs;
    s->ctx.campaign.stats_sink = &s->stats;
    s->chip = std::make_unique<vn::ChipModel>(s->ctx.chip_config);
    if (!margin)
        s->study = std::make_unique<vn::MappingStudy>(s->ctx, kMapFreqHz);
    return s;
}

/** Run one round; returns the jobs that completed with golden values. */
size_t
runRound(ColdSetup &s, const Round &round, const Golden &golden,
         Report &report)
{
    size_t good = 0;
    report.attempted += round.jobs();
    if (!round.sweeps.empty()) {
        try {
            std::vector<vn::FreqSweepPoint> points;
            {
                Scope span("analysis.sweepStimulusPoints");
                points = vn::sweepStimulusPoints(s.ctx, round.sweeps);
            }
            for (size_t i = 0; i < points.size(); ++i)
                if (checkGolden(golden, keyOf(round.sweeps[i]),
                                digestOf(points[i]), report))
                    ++good;
        } catch (const std::exception &e) {
            report.fail(std::string("sweep campaign: ") + e.what());
        }
    }
    if (!round.maps.empty()) {
        try {
            std::vector<vn::MappingResult> results;
            {
                Scope span("analysis.MappingStudy.runMany");
                results = s.study->runMany(round.maps);
            }
            for (size_t i = 0; i < results.size(); ++i)
                if (checkGolden(golden, keyOf(round.maps[i]),
                                digestOf(results[i]), report))
                    ++good;
        } catch (const std::exception &e) {
            report.fail(std::string("mapping campaign: ") + e.what());
        }
    }
    if (!round.cells.empty()) {
        try {
            std::vector<vn::MarginPoint> cells;
            {
                Scope span("analysis.marginPoints");
                cells = vn::marginPoints(s.ctx, round.cells, kBiasStep);
            }
            for (size_t i = 0; i < cells.size(); ++i)
                if (checkGolden(golden, keyOf(round.cells[i]),
                                digestOf(cells[i]), report))
                    ++good;
        } catch (const std::exception &e) {
            report.fail(std::string("margin campaign: ") + e.what());
        }
    }
    report.failed += round.jobs() - good;
    return good;
}

/** Stimuli of a synchronized stressmark at `freq_hz` on every core. */
ChipInputs
syncInputs(const vn::StressmarkKit &kit, double freq_hz, int events,
           double window)
{
    vn::StressmarkSpec spec;
    spec.stimulus_freq_hz = freq_hz;
    spec.synchronized = true;
    spec.consecutive_events = events;
    vn::Stressmark sm = kit.make(spec);
    return ChipInputs{{sm.activity(), sm.activity(), sm.activity(),
                       sm.activity(), sm.activity(), sm.activity()},
                      window};
}

void
perJob(Report &report, const char *metric, const char *span, size_t jobs)
{
    double ms = Tracer::instance().totalMs(span);
    report.set(metric, jobs > 0 ? ms / static_cast<double>(jobs) : 0.0,
               "ms", jobs);
}

/** Serving-side metrics have no meaning offline; report them as 0. */
void
zeroServing(Report &report)
{
    zeroCache(report);
    zeroCodec(report);
    report.set("runtime.read_hit_ratio", 0.0, "ratio", 0, "base=0 reads");
    report.set("runtime.read_jobs", 0.0, "count", 0);
    for (const char *name :
         {"service.server_p50_ms", "service.server_p99_ms",
          "service.wait_p99_ms.interactive", "service.wait_p99_ms.batch",
          "router.relay_p50_ms", "router.relay_p99_ms",
          "bench.gen_late_p99_ms", "serve.point_p50_ms", "serve.point_p90_ms",
          "serve.trace_p50_ms", "serve.write_p50_ms"})
        report.set(name, 0.0, "ms", 0);
    report.set("serve.goodput_rps", 0.0, "1/s", 0);
    report.set("service.batch_size_mean", 0.0, "count", 0);
    for (const char *name :
         {"service.coalesced", "service.rejected", "service.stream_chunks",
          "router.forwarded", "router.rebalanced", "router.hedged",
          "router.no_backend", "router.streamed_relays"})
        report.set(name, 0.0, "count", 0);
}

} // namespace

void
runCold(const Options &options, const Golden &golden, Report &report)
{
    const bool margin = options.workload == "margin_cold";

    // Set up several times; each repetition starts without interned
    // factorizations so it pays for building the model in full.
    std::vector<int> cpus;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed))
                cpus.push_back(c);
    std::vector<double> setup_s;
    std::unique_ptr<ColdSetup> s;
    for (int r = 0; r < kColdSetupRepeats; ++r) {
        s.reset();
        vn::FactorizationCache::global().clear();
        std::thread([&] {
            if (!cpus.empty()) {
                cpu_set_t one;
                CPU_ZERO(&one);
                CPU_SET(cpus[static_cast<size_t>(r) % cpus.size()], &one);
                pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
            }
            Clock::time_point t0 = Clock::now();
            s = setUp(options, margin);
            setup_s.push_back(secondsSince(t0));
        }).join();
    }

    RoundSource source(margin, options.seed);
    if (!options.trace) {
        std::vector<double> round_ms;
        size_t jobs = 0;
        Clock::time_point start = Clock::now();
        do {
            Round round = source.next();
            Clock::time_point t0 = Clock::now();
            jobs += runRound(*s, round, golden, report);
            round_ms.push_back(msBetween(t0, Clock::now()));
        } while (secondsSince(start) < options.seconds);
        double elapsed = secondsSince(start);

        report.set("setup_s", median(setup_s), "s", setup_s.size());
        report.set("throughput_per_s", static_cast<double>(jobs) / elapsed,
                   "1/s", jobs, "campaign jobs per host second");
        report.set("latency_p50_ms", median(round_ms), "ms", round_ms.size(),
                   "wall time of one campaign round");
        if (s->stats.cache_hits != 0)
            report.fail("cold campaign reported cache hits");
        return;
    }

    // Traced run: each round runs untraced and then traced, so the
    // tracing overhead compares identical work.
    const int rounds = margin ? kTracedRoundsMargin : kTracedRoundsSweep;
    vn::runtime::CampaignStats traced_stats;
    double untraced_s = 0.0, traced_s = 0.0;
    size_t traced_jobs = 0, points = 0, maps = 0, cells = 0;
    const size_t fact_hits0 = vn::FactorizationCache::global().hits();
    const size_t fact_misses0 = vn::FactorizationCache::global().misses();
    Round last;
    for (int r = 0; r < rounds; ++r) {
        Round round = source.next();
        Report untraced;
        Clock::time_point t0 = Clock::now();
        runRound(*s, round, golden, untraced);
        untraced_s += secondsSince(t0);

        Tracer::instance().enable(true);
        s->ctx.campaign.stats_sink = &traced_stats;
        t0 = Clock::now();
        traced_jobs += runRound(*s, round, golden, report);
        traced_s += secondsSince(t0);
        s->ctx.campaign.stats_sink = &s->stats;
        Tracer::instance().enable(false);

        // Both passes must agree with the golden digests.
        report.attempted += untraced.attempted;
        report.failed += untraced.failed;
        for (const std::string &p : untraced.problems)
            report.fail(p);
        points += round.sweeps.size();
        maps += round.maps.size();
        cells += round.cells.size();
        last = round;
    }
    report.set("circuit.fact_hits",
               static_cast<double>(vn::FactorizationCache::global().hits() -
                                   fact_hits0),
               "count");
    report.set("circuit.fact_misses",
               static_cast<double>(vn::FactorizationCache::global().misses() -
                                   fact_misses0),
               "count");

    const vn::runtime::CampaignStats &st = traced_stats;
    report.set("runtime.jobs", st.jobs, "count");
    report.set("runtime.executed", st.executed, "count");
    report.set("runtime.cache_hits", st.cache_hits, "count");
    report.set("runtime.lane_batches", st.lane_batches, "count");
    report.set("runtime.steals", static_cast<double>(st.steals), "count");
    report.set("runtime.failures", st.failures, "count");
    if (st.cache_hits != 0 || s->stats.cache_hits != 0)
        report.fail("cold campaign reported cache hits");

    Tracer::instance().enable(true);
    perJob(report, "analysis.sweep_point_ms", "analysis.sweepStimulusPoints",
           points);
    perJob(report, "analysis.mapping_ms", "analysis.MappingStudy.runMany",
           maps);
    perJob(report, "analysis.margin_cell_ms", "analysis.marginPoints", cells);

    // Probes on this run's own stimuli: the last round's synchronized
    // sweep points or Vmin cells, one per solver lane. A cell's window is
    // the one marginPoints() gives it.
    std::vector<ChipInputs> lanes;
    const size_t k = static_cast<size_t>(s->ctx.campaign.lanes);
    if (margin) {
        for (const vn::MarginSpec &c : last.cells)
            if (c.events > 0 && lanes.size() < k)
                lanes.push_back(syncInputs(
                    *s->kit, c.freq_hz, c.events,
                    std::clamp(4.0 / c.freq_hz, 20e-6, 120e-6)));
        probeVmin(s->ctx.chip_config, lanes.front(), report);
    } else {
        for (const vn::SweepPointSpec &p : last.sweeps)
            if (p.synchronized && lanes.size() < k)
                lanes.push_back(syncInputs(*s->kit, p.freq_hz,
                                           s->ctx.consecutive_events,
                                           s->ctx.window));
        zeroVmin(report);
    }
    probeChip(s->ctx.chip_config, lanes, report);
    Tracer::instance().enable(false);
    zeroServing(report);

    double jps_untraced = static_cast<double>(traced_jobs) / untraced_s;
    double jps_traced = static_cast<double>(traced_jobs) / traced_s;
    report.set("bench.trace_overhead_pct",
               100.0 * (jps_untraced - jps_traced) / jps_untraced, "%",
               static_cast<size_t>(rounds), "traced vs untraced jobs/s");
}

} // namespace vnbench
