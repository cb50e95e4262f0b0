/**
 * @file
 * Chip co-simulation tests: idle behaviour, noise generation,
 * synchronization effects, process variation and Vmin experiments.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "chip/chip.hh"
#include "chip/vmin.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace
{

constexpr double kHighPower = 3.46;  // max-power sequence, model units
constexpr double kLowPower = 1.874;  // min-power sequence

vn::CoreActivity
squareWave(double freq_hz, bool sync, uint64_t offset_ticks = 0)
{
    // 500 consecutive deltaI events per synchronization, as the paper's
    // stressmarks do (1000 events per 4 ms sync in section V-B).
    std::vector<vn::ActivityPhase> loop;
    for (int i = 0; i < 500; ++i) {
        loop.push_back({kHighPower, 0.5 / freq_hz});
        loop.push_back({kLowPower, 0.5 / freq_hz});
    }
    std::optional<vn::SyncSpec> s;
    if (sync)
        s = vn::SyncSpec{64000, offset_ticks, kLowPower};
    return vn::CoreActivity(loop, s);
}

using Workloads = std::array<vn::CoreActivity, vn::kNumCores>;

Workloads
allCores(const vn::CoreActivity &a)
{
    return {a, a, a, a, a, a};
}

TEST(ChipModelTest, IdleChipIsQuiet)
{
    vn::ChipModel chip;
    auto r = chip.run(allCores(chip.idleActivity()), 10e-6);
    EXPECT_FALSE(r.failed);
    EXPECT_LT(r.maxP2p(), 2.0);
    for (const auto &c : r.core) {
        EXPECT_GT(c.v_min, 0.99);
        EXPECT_LT(c.v_max, chip.supplyVoltage() + 1e-6);
    }
}

TEST(ChipModelTest, IdlePowerPlausible)
{
    // Six idle cores (static only) plus nest/MCU/GX background: the
    // input-rail power sits near 200 W for the default calibration.
    vn::ChipModel chip;
    auto r = chip.run(allCores(chip.idleActivity()), 5e-6);
    EXPECT_GT(r.avg_power_watts, 120.0);
    EXPECT_LT(r.avg_power_watts, 320.0);
}

TEST(ChipModelTest, StressmarkGeneratesNoise)
{
    vn::ChipModel chip;
    auto r = chip.run(allCores(squareWave(2.6e6, true)), 40e-6);
    EXPECT_GT(r.maxP2p(), 30.0);
    double vmin = 10.0;
    for (const auto &c : r.core)
        vmin = std::min(vmin, c.v_min);
    EXPECT_LT(vmin, 0.95);
}

TEST(ChipModelTest, SyncNoisierThanStaggered)
{
    // Perfectly aligned square waves beat deliberately spread ones:
    // the headline alignment result (Fig. 9 / Fig. 10).
    vn::ChipModel chip;
    auto synced = chip.run(allCores(squareWave(2.6e6, true)), 40e-6);

    std::array<vn::CoreActivity, vn::kNumCores> staggered = {
        squareWave(2.6e6, true, 0), squareWave(2.6e6, true, 1),
        squareWave(2.6e6, true, 2), squareWave(2.6e6, true, 3),
        squareWave(2.6e6, true, 4), squareWave(2.6e6, true, 5)};
    auto spread = chip.run(staggered, 40e-6);

    EXPECT_GT(synced.maxP2p(), spread.maxP2p() + 5.0);
}

TEST(ChipModelTest, ResonantStimulusNoisierThanOffResonance)
{
    // Single-core (others idle) so the sync bonus doesn't mask the
    // resonance; compare the die band against a high frequency.
    vn::ChipModel chip;
    std::array<vn::CoreActivity, vn::kNumCores> res = allCores(
        chip.idleActivity());
    res[0] = squareWave(2.6e6, false);
    auto at_res = chip.run(res, 40e-6);

    std::array<vn::CoreActivity, vn::kNumCores> off = allCores(
        chip.idleActivity());
    off[0] = squareWave(20e6, false);
    auto off_res = chip.run(off, 40e-6);

    EXPECT_GT(at_res.core[0].p2p, off_res.core[0].p2p);
}

TEST(ChipModelTest, MoreCoresMoreNoise)
{
    vn::ChipModel chip;
    auto one = allCores(chip.idleActivity());
    one[0] = squareWave(2.6e6, true);
    auto r1 = chip.run(one, 40e-6);

    auto all = allCores(squareWave(2.6e6, true));
    auto r6 = chip.run(all, 40e-6);

    EXPECT_GT(r6.maxP2p(), r1.maxP2p() + 10.0);
}

TEST(ChipModelTest, NoiseReachesIdleCores)
{
    // Noise propagates across the shared PDN: an idle core still reads
    // noise when its neighbours run stressmarks.
    vn::ChipModel chip;
    auto w = allCores(squareWave(2.6e6, true));
    w[3] = chip.idleActivity();
    auto r = chip.run(w, 40e-6);
    EXPECT_GT(r.core[3].p2p, 10.0);
}

TEST(ChipModelTest, TraceCaptureWorks)
{
    vn::ChipModel chip;
    vn::RunOptions options;
    options.capture_traces = true;
    options.trace_decimation = 2;
    auto r = chip.run(allCores(squareWave(2.6e6, true)), 5e-6, options);
    ASSERT_EQ(r.traces.size(), static_cast<size_t>(vn::kNumCores));
    EXPECT_GT(r.traces[0].size(), 1000u);
    EXPECT_NEAR(r.traces[0].dt(), 2e-9, 1e-15);
    EXPECT_GT(r.traces[0].peakToPeak(), 0.01);
}

TEST(ChipModelTest, BiasShiftsOperatingPoint)
{
    vn::ChipConfig config;
    config.bias = 0.05;
    vn::ChipModel biased(config);
    vn::ChipModel nominal;
    EXPECT_NEAR(biased.supplyVoltage(),
                nominal.supplyVoltage() * 0.95, 1e-9);

    auto r = biased.run(allCores(biased.idleActivity()), 5e-6);
    EXPECT_LT(r.core[0].v_mean, 1.01);
}

TEST(ChipModelTest, DeepBiasFailsUnderStress)
{
    vn::ChipConfig config;
    config.bias = 0.10;
    vn::ChipModel chip(config);
    auto r = chip.run(allCores(squareWave(2.6e6, true)), 40e-6);
    EXPECT_TRUE(r.failed);
    EXPECT_GE(r.failing_core, 0);
    EXPECT_GT(r.failure_time, 0.0);
}

TEST(ChipModelTest, StopOnFailureShortens)
{
    vn::ChipConfig config;
    config.bias = 0.10;
    vn::ChipModel chip(config);
    vn::RunOptions options;
    options.stop_on_failure = true;
    auto r = chip.run(allCores(squareWave(2.6e6, true)), 400e-6, options);
    EXPECT_TRUE(r.failed);
}

TEST(ChipModelTest, VariationMakesCoresDiffer)
{
    // The discretized %p2p may land on the same latch step for all
    // cores, but the underlying voltage extremes differ with the
    // default process-variation profile.
    vn::ChipModel chip;
    auto r = chip.run(allCores(squareWave(2.6e6, true)), 40e-6);
    double lo = 1e9, hi = 0.0;
    for (const auto &c : r.core) {
        lo = std::min(lo, c.v_min);
        hi = std::max(hi, c.v_min);
    }
    EXPECT_GT(hi - lo, 1e-4); // at least 0.1 mV spread across cores
}

TEST(ChipModelTest, UniformProfileMirrorSymmetry)
{
    // With no process variation, mirrored cores (0/1, 2/3, 4/5) read
    // identical noise under identical workloads.
    vn::ChipConfig config;
    config.variation = vn::VariationProfile::uniform();
    vn::ChipModel chip(config);
    auto r = chip.run(allCores(squareWave(2.6e6, true)), 20e-6);
    EXPECT_NEAR(r.core[0].p2p, r.core[1].p2p, 1e-9);
    EXPECT_NEAR(r.core[2].p2p, r.core[3].p2p, 1e-9);
    EXPECT_NEAR(r.core[4].p2p, r.core[5].p2p, 1e-9);
}

TEST(VminTest, StressMarginSmallerThanIdleMargin)
{
    // The Vmin experiment: noisy workloads fail at a smaller undervolt
    // than idle (the entire premise of margin provisioning).
    vn::ChipConfig config;
    vn::VminExperiment vmin(config, 0.01, 0.2); // 1% steps for speed

    auto idle = vn::ChipModel(config).idleActivity();
    auto idle_result = vmin.run({idle, idle, idle, idle, idle, idle},
                                4e-6);

    auto stress = squareWave(2.6e6, true);
    auto stress_result = vmin.run(
        {stress, stress, stress, stress, stress, stress}, 20e-6);

    EXPECT_TRUE(idle_result.failed);
    EXPECT_TRUE(stress_result.failed);
    EXPECT_LT(stress_result.bias_at_failure,
              idle_result.bias_at_failure);
    // Sync stressmarks leave almost no margin (paper Fig. 12: 0-2%).
    EXPECT_LE(stress_result.bias_at_failure, 0.03);
    // Idle margin close to the full provisioned margin.
    EXPECT_GE(idle_result.bias_at_failure, 0.08);
}

TEST(VminTest, StepCountReported)
{
    vn::ChipConfig config;
    vn::VminExperiment vmin(config, 0.02, 0.2);
    auto idle = vn::ChipModel(config).idleActivity();
    auto r = vmin.run({idle, idle, idle, idle, idle, idle}, 2e-6);
    EXPECT_TRUE(r.failed);
    EXPECT_GE(r.steps, 2);
    EXPECT_NEAR(r.bias_at_failure,
                0.02 * static_cast<double>(r.steps - 1), 1e-12);
}

// The undervolt sweep without the bias-0 skip rule: a fresh chip and a
// stop_on_failure transient at every step until the first failure.
vn::VminResult
referenceSweep(const vn::ChipConfig &base, double bias_step,
               double max_bias, const Workloads &workloads, double window)
{
    vn::VminResult result;
    vn::RunOptions options;
    options.stop_on_failure = true;
    for (double bias = 0.0; bias <= max_bias + 1e-12; bias += bias_step) {
        vn::ChipConfig config = base;
        config.bias = bias;
        vn::ChipModel chip(config);
        ++result.steps;
        auto outcome = chip.run(workloads, window, options);
        if (outcome.failed) {
            result.bias_at_failure = bias;
            result.failed = true;
            result.failing_core = outcome.failing_core;
            return result;
        }
    }
    result.bias_at_failure = max_bias;
    return result;
}

// Largest |v_b(t) - (v_0(t) - shift)| over every core sample: how far
// an exact run at `bias` strays from the shifted bias-0 run.
double
linearityDrift(const vn::ChipConfig &base, double bias,
               const Workloads &workloads, double window)
{
    vn::RunOptions capture;
    capture.capture_traces = true;
    vn::ChipConfig nominal = base;
    nominal.bias = 0.0;
    vn::ChipConfig undervolted = base;
    undervolted.bias = bias;
    auto v0 = vn::ChipModel(nominal).run(workloads, window, capture);
    auto vb = vn::ChipModel(undervolted).run(workloads, window, capture);
    double shift = base.pdn.vnom - base.pdn.vnom * (1.0 - bias);
    double drift = 0.0;
    for (int c = 0; c < vn::kNumCores; ++c) {
        EXPECT_EQ(v0.traces[c].size(), vb.traces[c].size());
        for (size_t i = 0; i < v0.traces[c].size(); ++i)
            drift = std::max(
                drift, std::fabs(vb.traces[c][i] - (v0.traces[c][i] - shift)));
    }
    return drift;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(VminTest, SkipRuleMatchesReferenceSweep)
{
    struct Case
    {
        std::string name;
        Workloads workloads;
        double window;
        double bias_step;
        double max_bias = 0.15;
        vn::ChipConfig config{};
    };
    vn::ChipConfig base;
    auto idle = vn::ChipModel(base).idleActivity();

    std::vector<Case> cases;
    cases.push_back({"idle", allCores(idle), 4e-6, 0.01});
    const double sync_freqs[] = {0.3e6, 1.0e6, 2.6e6, 4.5e6};
    const double sync_steps[] = {0.005, 0.01, 0.02, 0.005};
    for (int i = 0; i < 4; ++i)
        cases.push_back({"sync f=" + std::to_string(sync_freqs[i]),
                         allCores(squareWave(sync_freqs[i], true)), 20e-6,
                         sync_steps[i]});

    // Misaligned copies: each core reaches the TOD barrier a few ticks
    // after its neighbour.
    Workloads misaligned = allCores(idle);
    for (int c = 0; c < vn::kNumCores; ++c)
        misaligned[c] =
            squareWave(2.6e6, true, static_cast<uint64_t>(3 * c));
    cases.push_back({"misaligned", misaligned, 20e-6, 0.01});

    // Free-running copies from seeded random start phases.
    const double free_freq = 1.5e6;
    std::vector<vn::ActivityPhase> free_loop;
    for (int e = 0; e < 500; ++e) {
        free_loop.push_back({kHighPower, 0.5 / free_freq});
        free_loop.push_back({kLowPower, 0.5 / free_freq});
    }
    for (uint64_t seed : {1u, 2u}) {
        vn::Rng rng(seed);
        Workloads free_running = allCores(idle);
        for (int c = 0; c < vn::kNumCores; ++c)
            free_running[c] = vn::CoreActivity(
                free_loop, std::nullopt,
                {{kLowPower, rng.uniform() / free_freq}});
        cases.push_back({"free seed=" + std::to_string(seed), free_running,
                         10e-6, 0.005});
    }

    // Never fails: the idle margin lies beyond max_bias.
    cases.push_back({"no failure", allCores(idle), 4e-6, 0.02, 0.06});

    // Fails at nominal: a slower critical path leaves no margin.
    Case at_nominal{"fails at bias 0", allCores(squareWave(2.6e6, true)),
                    20e-6, 0.005};
    at_nominal.config.critpath.nominal_path_fraction = 0.75;
    cases.push_back(at_nominal);

    bool saw_no_failure = false;
    bool saw_nominal_failure = false;
    bool saw_skipped_steps = false;
    for (const Case &tc : cases) {
        SCOPED_TRACE(tc.name);
        vn::VminExperiment vmin(tc.config, tc.bias_step, tc.max_bias);
        auto got = vmin.run(tc.workloads, tc.window);
        auto want = referenceSweep(tc.config, tc.bias_step, tc.max_bias,
                                   tc.workloads, tc.window);
        EXPECT_TRUE(sameBits(got.bias_at_failure, want.bias_at_failure))
            << got.bias_at_failure << " vs " << want.bias_at_failure;
        EXPECT_EQ(got.failed, want.failed);
        EXPECT_EQ(got.failing_core, want.failing_core);
        EXPECT_EQ(got.steps, want.steps);

        saw_no_failure = saw_no_failure || !want.failed;
        saw_nominal_failure =
            saw_nominal_failure || (want.failed && want.steps == 1);
        saw_skipped_steps =
            saw_skipped_steps || (want.failed && want.steps > 1);
        if (want.failed) {
            EXPECT_LE(linearityDrift(tc.config, want.bias_at_failure,
                                     tc.workloads, tc.window),
                      1e-9);
        }
    }
    EXPECT_TRUE(saw_no_failure);
    EXPECT_TRUE(saw_nominal_failure);
    EXPECT_TRUE(saw_skipped_steps);
}

// The bias sequence of the sweep, step by step.
std::vector<double>
sweepBiases(double bias_step, double max_bias)
{
    std::vector<double> biases;
    for (double bias = 0.0; bias <= max_bias + 1e-12; bias += bias_step)
        biases.push_back(bias);
    return biases;
}

TEST(VminSweepStartTest, MarginAtToleranceIsNotSkipped)
{
    // At bias 0 the shift is exactly zero, so the predicted margin is
    // v_floor - v_crit = kLinearityTolerance with no rounding.
    auto start = vn::vminSweepStart(1.05, vn::kLinearityTolerance, 0.0,
                                    0.005, 0.15);
    EXPECT_EQ(start.skipped, 0);
    EXPECT_EQ(start.bias, 0.0);
}

TEST(VminSweepStartTest, MarginJustAboveToleranceIsSkipped)
{
    double floor = std::nextafter(vn::kLinearityTolerance, 1.0);
    auto start = vn::vminSweepStart(1.05, floor, 0.0, 0.005, 0.15);
    EXPECT_EQ(start.skipped, 1);
    EXPECT_EQ(start.bias, 0.005);
}

TEST(VminSweepStartTest, HighFloorNeedsNoExactRun)
{
    auto biases = sweepBiases(0.005, 0.15);
    auto start = vn::vminSweepStart(1.05, 10.0, 0.9, 0.005, 0.15);
    EXPECT_EQ(start.skipped, static_cast<int>(biases.size()));
    EXPECT_GT(start.bias, 0.15 + 1e-12);
}

TEST(VminSweepStartTest, BiasSequenceMatchesSweep)
{
    // A floor placed right at the shifted v_crit of step k stops the
    // skip walk at step k, on the sweep's own accumulated bias. The
    // default 0.5% sweep ends at 0.15000000000000005: the endpoint
    // exists only through the max_bias + 1e-12 slack.
    const double vnom = 1.05;
    const double v_crit = 0.9;
    for (double step : {0.005, 0.01, 0.02}) {
        for (double max_bias : {0.15, 0.2}) {
            auto biases = sweepBiases(step, max_bias);
            for (size_t k = 0; k < biases.size(); ++k) {
                SCOPED_TRACE("step " + std::to_string(step) + " k " +
                             std::to_string(k));
                double shift = vnom - vnom * (1.0 - biases[k]);
                auto start = vn::vminSweepStart(vnom, v_crit + shift,
                                                v_crit, step, max_bias);
                EXPECT_EQ(start.skipped, static_cast<int>(k));
                EXPECT_TRUE(sameBits(start.bias, biases[k]));
            }
        }
    }
    EXPECT_GT(sweepBiases(0.005, 0.15).back(), 0.15);
}

TEST(ChipModelTest, SharedUnitSkittersReadNoise)
{
    // Paper Fig. 3: the nest, MCU and GX carry skitters too. Under an
    // all-core stressmark the nest (sitting on the big L3 decap, fed
    // through damping bridges) reads noise, but less than the worst
    // core.
    vn::ChipModel chip;
    auto r = chip.run(allCores(squareWave(2.6e6, true)), 30e-6);
    for (int u = 0; u < vn::kNumSharedUnits; ++u) {
        EXPECT_GT(r.shared[u].p2p, 2.0) << vn::sharedUnitName(u);
        EXPECT_LT(r.shared[u].v_min, chip.supplyVoltage());
    }
    // The nest is damped: discretized %p2p may tie with the cores, but
    // its deepest droop is strictly shallower than the worst core's.
    EXPECT_LE(r.shared[0].p2p, r.maxP2p());
    double worst_core_vmin = 10.0;
    for (const auto &c : r.core)
        worst_core_vmin = std::min(worst_core_vmin, c.v_min);
    EXPECT_GT(r.shared[0].v_min, worst_core_vmin);
}

TEST(ChipModelTest, SharedUnitNames)
{
    EXPECT_STREQ(vn::sharedUnitName(0), "nest");
    EXPECT_STREQ(vn::sharedUnitName(1), "mcu");
    EXPECT_STREQ(vn::sharedUnitName(2), "gx");
}

TEST(ChipModelTest, InvalidConfigIsFatal)
{
    bool prev = vn::setThrowOnError(true);
    vn::ChipConfig bad;
    bad.bias = 0.5;
    EXPECT_THROW(vn::ChipModel{bad}, vn::FatalError);
    vn::ChipConfig bad2;
    bad2.dt = 0.0;
    EXPECT_THROW(vn::ChipModel{bad2}, vn::FatalError);
    vn::setThrowOnError(prev);
}

} // namespace
