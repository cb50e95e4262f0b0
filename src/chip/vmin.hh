/**
 * @file
 * Vmin experiment: find the available voltage margin by lowering the
 * operating voltage in 0.5% steps until the R-Unit detects the first
 * failure (paper section III, "the ultimate bullet-proof method to
 * check the available voltage margin"; results in Fig. 12).
 */

#ifndef VN_CHIP_VMIN_HH
#define VN_CHIP_VMIN_HH

#include <array>

#include "chip/chip.hh"

namespace vn
{

/** Outcome of a Vmin experiment. */
struct VminResult
{
    /**
     * Bias fraction at first failure (e.g. 0.045 = failed when the
     * supply was lowered by 4.5%). This is the "available margin".
     */
    double bias_at_failure = 0.0;

    /**
     * Sweep position: the number of bias steps the undervolt sweep
     * walked up to and including the failing one (or to max_bias).
     * Steps the bias-0 run proves safe count although no transient
     * runs for them.
     */
    int steps = 0;

    /** True when a failure was actually observed. */
    bool failed = false;

    /** Core whose skitter-protected path failed first (-1 if none). */
    int failing_core = -1;
};

/** Where the exact part of a Vmin sweep starts. */
struct VminSweepStart
{
    /** Leading sweep steps proven to pass (bias 0 included). */
    int skipped = 0;

    /**
     * Bias of the first step not proven to pass, reached by the
     * sweep's own accumulation. Past max_bias + 1e-12 when every step
     * is proven to pass, so no exact transient is needed.
     */
    double bias = 0.0;
};

/**
 * First undervolt step a bias-0 run cannot prove passing.
 *
 * The PDN is linear and core currents do not depend on voltage, so at
 * bias b every die voltage is the bias-0 voltage shifted down by
 * vnom - vnom * (1 - b). A step is proven to pass when the shifted
 * bias-0 floor clears v_crit by more than kLinearityTolerance.
 *
 * @param vnom      nominal supply (PdnConfig::vnom)
 * @param v_floor   ChipRunResult::v_floor of the bias-0 run
 * @param v_crit    the R-Unit's critical voltage
 * @param bias_step per-step undervolt increment
 * @param max_bias  last bias the sweep tries
 */
VminSweepStart vminSweepStart(double vnom, double v_floor, double v_crit,
                              double bias_step, double max_bias);

/**
 * Drift allowed between an exact transient at bias b and the bias-0
 * transient shifted by the supply difference, in volts. At the failing
 * bias of the benchmark's 40 Vmin cells the measured drift is at most
 * 7.5e-14 V, so this leaves seven orders of magnitude for solver
 * rounding; no predicted step of those cells lands within 0.3 mV of
 * v_crit.
 */
constexpr double kLinearityTolerance = 1e-6;

/**
 * Runs Vmin experiments over a chip configuration.
 */
class VminExperiment
{
  public:
    /**
     * @param base      chip configuration at nominal voltage
     *                  (base.bias is ignored; the experiment sweeps it)
     * @param bias_step per-step undervolt increment (0.005 = the
     *                  service element's 0.5% granularity)
     * @param max_bias  give up past this bias
     */
    explicit VminExperiment(ChipConfig base, double bias_step = 0.005,
                            double max_bias = 0.15);

    /**
     * Lower the voltage until first failure while the given workloads
     * run; each voltage step re-runs a measurement window (the real
     * flow reboots the machine per step, we just rebuild the model).
     * One full-window transient at bias 0 proves the leading steps
     * safe (vminSweepStart()); exact transients start at the first
     * step it cannot prove, so the result equals the full sweep's.
     *
     * @param workloads per-core activity
     * @param window    seconds simulated per voltage step
     */
    VminResult run(const std::array<CoreActivity, kNumCores> &workloads,
                   double window) const;

  private:
    ChipConfig base_;
    double bias_step_;
    double max_bias_;
};

} // namespace vn

#endif // VN_CHIP_VMIN_HH
