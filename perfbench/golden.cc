/**
 * @file
 * Regeneration of golden.json: every pool item computed once through
 * the analysis entry points, cache off. Only run this after a change
 * that is meant to alter simulated values, and say so in its review.
 */

#include <cstdio>

#include "pools.hh"
#include "workloads.hh"

namespace vnbench
{

int
regenerateGolden(const Options &options, const std::string &path)
{
    vn::StressmarkKit kit =
        vn::StressmarkKit::cached(coreModel(), options.kit_memo);
    vn::AnalysisContext ctx = analysisContext(kit);
    ctx.campaign.jobs = kColdJobs;

    Golden golden;
    Clock::time_point t0 = Clock::now();
    for (const auto &pool : {sweepPool(), writePool()}) {
        std::vector<vn::FreqSweepPoint> points =
            vn::sweepStimulusPoints(ctx, pool);
        for (size_t i = 0; i < pool.size(); ++i)
            golden.put(keyOf(pool[i]), digestOf(points[i]));
    }
    std::fprintf(stderr, "golden: sweep points done (%.1f s)\n",
                 secondsSince(t0));

    const std::vector<vn::Mapping> maps = mappingPool();
    vn::MappingStudy study(ctx, kMapFreqHz);
    std::vector<vn::MappingResult> results = study.runMany(maps);
    for (size_t i = 0; i < maps.size(); ++i)
        golden.put(keyOf(maps[i]), digestOf(results[i]));
    std::fprintf(stderr, "golden: mappings done (%.1f s)\n", secondsSince(t0));

    const std::vector<vn::MarginSpec> cells = marginPool();
    for (const vn::MarginSpec &cell : cells) {
        Clock::time_point c0 = Clock::now();
        std::vector<vn::MarginSpec> one{cell};
        vn::MarginPoint p = vn::marginPoints(ctx, one, kBiasStep).at(0);
        golden.put(keyOf(cell), digestOf(p));
        std::fprintf(stderr, "golden: %s bias=%.3f %.0f ms\n",
                     keyOf(cell).c_str(), p.bias_at_failure,
                     msBetween(c0, Clock::now()));
    }

    const std::vector<vn::DroopTraceSpec> traces = tracePool();
    std::vector<vn::DroopTrace> captured = vn::droopTraces(ctx, traces);
    for (size_t i = 0; i < traces.size(); ++i)
        golden.put(keyOf(traces[i]), digestOf(captured[i]));

    golden.save(path);
    std::fprintf(stderr, "golden: %zu digests written to %s (%.1f s)\n",
                 golden.size(), path.c_str(), secondsSince(t0));
    return 0;
}

} // namespace vnbench
