/**
 * @file
 * Per-layer probes of the traced run. Each probe calls one layer's
 * public function on inputs taken from the run it belongs to (the
 * workload's netlist, lane count, stimuli, cache entries and results)
 * and reports the layer's cost per unit of work.
 */

#ifndef VNBENCH_PROBES_HH
#define VNBENCH_PROBES_HH

#include <array>
#include <string>
#include <vector>

#include "bench.hh"
#include "chip/chip.hh"

namespace vnbench
{

/** Stimuli of one chip run taken from the workload. */
struct ChipInputs
{
    std::array<vn::CoreActivity, vn::kNumCores> workloads;
    double window = 0.0;
};

/**
 * chip.* (activity, run, runBatch, constructor), circuit.* (scalar and
 * lane-batched solver steps) and measure.skitter_ns_per_sample.
 * `lanes` holds one stimulus set per solver lane.
 */
void probeChip(const vn::ChipConfig &config,
               const std::vector<ChipInputs> &lanes, Report &report);

/** measure.vmin_ms / measure.vmin_steps on one Vmin cell's inputs. */
void probeVmin(const vn::ChipConfig &config, const ChipInputs &cell,
               Report &report);

/** runtime.cache_load_ms.{point,trace} over the entries in
 *  `cache_dir`, and runtime.cache_store_ms.point into `store_dir`. */
void probeCache(const std::string &cache_dir, const std::string &store_dir,
                Report &report);

/** service.{encode,decode}_ms.{point,trace} on served results. */
void probeCodec(const vn::FreqSweepPoint &point, const vn::DroopTrace &trace,
                Report &report);

/** Zero-valued entries for the probes a workload does not exercise,
 *  so every run reports the same metric names. */
void zeroVmin(Report &report);
void zeroCache(Report &report);
void zeroCodec(Report &report);

} // namespace vnbench

#endif // VNBENCH_PROBES_HH
