/**
 * @file
 * Chip-level power telemetry and oscilloscope capture.
 *
 * PowerMeter mirrors the service-element power measurement of the paper
 * (readings of input-rail current and voltage, milliwatt granularity).
 * Oscilloscope records a node-voltage waveform with optional decimation,
 * standing in for the bench scope used to confirm Fig. 8.
 */

#ifndef VN_MEASURE_METER_HH
#define VN_MEASURE_METER_HH

#include <utility>

#include "circuit/waveform.hh"
#include "util/stats.hh"

namespace vn
{

/**
 * Accumulates input-rail samples and reports average power with
 * milliwatt granularity.
 */
class PowerMeter
{
  public:
    /** Record one sample of rail voltage (V) and drawn current (A). */
    void
    sample(double volts, double amps)
    {
        stats_.add(volts * amps);
    }

    /** Discard all samples. */
    void reset() { stats_ = RunningStats{}; }

    /** Number of samples. */
    size_t count() const { return stats_.count(); }

    /** Average power in watts (full precision). */
    double averageWatts() const { return stats_.mean(); }

    /** Average power quantized to milliwatts, as the console reports. */
    long averageMilliwatts() const;

    /** Peak instantaneous power seen. */
    double peakWatts() const { return stats_.max(); }

  private:
    RunningStats stats_;
};

/**
 * Captures a voltage waveform at a fixed decimation of the simulation
 * step (a software stand-in for the lab oscilloscope).
 */
class Oscilloscope
{
  public:
    /**
     * @param dt         simulation step of the samples fed in
     * @param decimation keep one sample out of this many (>= 1)
     */
    Oscilloscope(double dt, unsigned decimation = 1);

    /** Feed one simulation sample. */
    void sample(double v);

    /** The captured trace. */
    const Waveform &trace() const { return trace_; }

    /** Move the captured trace out (once, after the last sample). */
    Waveform takeTrace() { return std::move(trace_); }

  private:
    unsigned decimation_;
    unsigned phase_ = 0;
    Waveform trace_;
};

} // namespace vn

#endif // VN_MEASURE_METER_HH
