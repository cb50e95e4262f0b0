/**
 * @file
 * Shared helpers for the figure/table reproduction binaries.
 *
 * Every bench accepts the campaign runtime knobs:
 *   --jobs N         worker threads for campaign loops (default 1, or
 *                    VNOISE_JOBS)
 *   --lanes K        solver lanes per batch job (default 8, or
 *                    VNOISE_LANES; 1 = one lane per job, results
 *                    are bit-identical either way)
 *   --cache-dir P    campaign result-cache directory (default
 *                    VNOISE_CACHE_DIR or "<out>/cache")
 *   --no-cache       disable the result cache
 *
 * Artifacts (CSV traces, the stressmark-kit memo, cache entries) go
 * under VNOISE_OUT_DIR (default "out/"), never the current working
 * directory. Campaign summaries print to stderr so stdout stays
 * byte-comparable across thread counts and cache states.
 */

#ifndef VN_BENCH_COMMON_HH
#define VN_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "vnoise/vnoise.hh"

namespace vnbench
{

/** Banner naming the paper artifact a binary regenerates. */
inline void
banner(const char *artifact, const char *description)
{
    std::printf("==============================================================\n");
    std::printf("%s - %s\n", artifact, description);
    std::printf("Bertran et al., \"Voltage Noise in Multi-core Processors\","
                " MICRO 2014\n");
    std::printf("==============================================================\n\n");
}

/** The shared core model. */
inline const vn::CoreModel &
coreModel()
{
    static vn::CoreModel core;
    return core;
}

/**
 * The shared stressmark kit, memoized on disk so only the first bench
 * binary of a session pays for the sequence search.
 */
inline const vn::StressmarkKit &
sharedKit()
{
    static vn::StressmarkKit kit = vn::StressmarkKit::cached(
        coreModel(), vn::outputPath("vnoise_kit.cache"));
    return kit;
}

/** Aggregate campaign counters of this bench process. */
inline vn::runtime::CampaignStats &
campaignStats()
{
    static vn::runtime::CampaignStats stats;
    return stats;
}

/**
 * Campaign knobs from the command line (see the file comment); exits
 * with a usage message on unknown arguments.
 */
inline vn::runtime::CampaignOptions
campaignOptions(int argc, char **argv)
{
    vn::runtime::CampaignOptions options;
    const char *env_jobs = std::getenv("VNOISE_JOBS");
    if (env_jobs != nullptr && env_jobs[0] != '\0')
        options.jobs = std::atoi(env_jobs);
    const char *env_lanes = std::getenv("VNOISE_LANES");
    if (env_lanes != nullptr && env_lanes[0] != '\0')
        options.lanes = std::atoi(env_lanes);
    options.cache_dir = vn::defaultCacheDir();
    options.stats_sink = &campaignStats();

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
            options.jobs = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--lanes") == 0 && i + 1 < argc) {
            options.lanes = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--cache-dir") == 0 &&
                   i + 1 < argc) {
            options.cache_dir = argv[++i];
        } else if (std::strcmp(argv[i], "--no-cache") == 0) {
            options.cache_dir.clear();
        } else {
            std::fprintf(stderr,
                         "usage: %s [--jobs N] [--lanes K] "
                         "[--cache-dir PATH] [--no-cache]\n",
                         argv[0]);
            std::exit(1);
        }
    }
    if (options.jobs < 1)
        vn::fatal("--jobs must be >= 1");
    if (options.lanes < 1)
        vn::fatal("--lanes must be >= 1");
    return options;
}

/** Default harness configuration used by the figure benches. */
inline vn::AnalysisContext
defaultContext(int argc = 0, char **argv = nullptr)
{
    vn::AnalysisContext ctx;
    ctx.kit = &sharedKit();
    ctx.window = 24e-6;
    ctx.unsync_draws = 4;
    ctx.consecutive_events = 1000;
    if (argv != nullptr)
        ctx.campaign = campaignOptions(argc, argv);
    return ctx;
}

/**
 * Print the aggregated campaign summary (stderr, like all status
 * output). Call once at the end of main().
 */
inline void
printCampaignSummary()
{
    const auto &stats = campaignStats();
    if (stats.jobs > 0)
        vn::inform("campaign: ", stats.summary());
}

} // namespace vnbench

#endif // VN_BENCH_COMMON_HH
