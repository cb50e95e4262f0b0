/**
 * @file
 * The benchmark's workloads. Each fills a Report: the end-to-end
 * metrics in an untraced run, the per-layer metrics in a traced one.
 *
 *  - sweep_cold, margin_cold: offline campaigns with the result cache
 *    off, measured in jobs completed per host second (cold.cc).
 *  - serve_mixed, fleet_mixed: an open loop of seeded arrivals into an
 *    in-process vnoised, directly or through vnoise_router (serve.cc).
 */

#ifndef VNBENCH_WORKLOADS_HH
#define VNBENCH_WORKLOADS_HH

#include "bench.hh"

namespace vnbench
{

/** Campaign workers of the cold workloads (the machine's nproc). */
inline constexpr int kColdJobs = 4;

void runCold(const Options &options, const Golden &golden, Report &report);
void runServe(const Options &options, const Golden &golden, Report &report);

/** Recompute every pool item and write its digest to `path`. */
int regenerateGolden(const Options &options, const std::string &path);

} // namespace vnbench

#endif // VNBENCH_WORKLOADS_HH
