#include "chip/vmin.hh"

#include "util/logging.hh"

namespace vn
{

VminExperiment::VminExperiment(ChipConfig base, double bias_step,
                               double max_bias)
    : base_(std::move(base)), bias_step_(bias_step), max_bias_(max_bias)
{
    if (bias_step_ <= 0.0 || bias_step_ > 0.05)
        fatal("VminExperiment: bias_step must be in (0, 0.05], got ",
              bias_step_);
    if (max_bias_ <= 0.0 || max_bias_ > 0.3)
        fatal("VminExperiment: max_bias must be in (0, 0.3], got ",
              max_bias_);
}

VminSweepStart
vminSweepStart(double vnom, double v_floor, double v_crit,
               double bias_step, double max_bias)
{
    // Walk the sweep's exact floating-point bias sequence and supply
    // expression (ChipModel's), so the exact tail resumes where the
    // sweep would be.
    VminSweepStart start;
    for (; start.bias <= max_bias + 1e-12; start.bias += bias_step) {
        double shift = vnom - vnom * (1.0 - start.bias);
        if (v_floor - shift - v_crit <= kLinearityTolerance)
            break;
        ++start.skipped;
    }
    return start;
}

VminResult
VminExperiment::run(const std::array<CoreActivity, kNumCores> &workloads,
                    double window) const
{
    VminResult result;

    // Step 1 of the sweep, run over the full window: the first
    // violation is recorded once, so failed/failing_core match a
    // stop_on_failure run, and v_floor covers every sample.
    ChipConfig nominal = base_;
    nominal.bias = 0.0;
    ChipModel nominal_chip(nominal);
    ChipRunResult floor_run = nominal_chip.run(workloads, window);
    if (floor_run.failed) {
        result.steps = 1;
        result.failed = true;
        result.failing_core = floor_run.failing_core;
        return result;
    }

    VminSweepStart start =
        vminSweepStart(base_.pdn.vnom, floor_run.v_floor,
                       nominal_chip.criticalVoltage(), bias_step_,
                       max_bias_);
    result.steps = start.skipped;

    RunOptions options;
    options.stop_on_failure = true;
    for (double bias = start.bias; bias <= max_bias_ + 1e-12;
         bias += bias_step_) {
        ChipConfig config = base_;
        config.bias = bias;
        ChipModel chip(config);
        ++result.steps;
        auto outcome = chip.run(workloads, window, options);
        if (outcome.failed) {
            result.bias_at_failure = bias;
            result.failed = true;
            result.failing_core = outcome.failing_core;
            return result;
        }
    }
    result.bias_at_failure = max_bias_;
    result.failed = false;
    return result;
}

} // namespace vn
