#include "chip/chip.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace vn
{

const char *
sharedUnitName(int unit)
{
    switch (unit) {
      case 0: return "nest";
      case 1: return "mcu";
      case 2: return "gx";
    }
    return "?";
}

double
ChipRunResult::maxP2p() const
{
    double best = 0.0;
    for (const auto &c : core)
        best = std::max(best, c.p2p);
    return best;
}

int
ChipRunResult::noisiestCore() const
{
    int best = 0;
    for (int c = 1; c < kNumCores; ++c)
        if (core[c].p2p > core[best].p2p)
            best = c;
    return best;
}

ChipModel::ChipModel(ChipConfig config)
    : config_(std::move(config)), critpath_(config_.critpath)
{
    if (config_.bias < 0.0 || config_.bias > 0.3)
        fatal("ChipModel: bias must be in [0, 0.3], got ", config_.bias);
    if (config_.dt <= 0.0)
        fatal("ChipModel: dt must be > 0");
    if (config_.power_unit_amps <= 0.0)
        fatal("ChipModel: power_unit_amps must be > 0");

    // Apply per-core variation to the PDN and the bias to the supply.
    PdnConfig pdn_config = config_.pdn;
    for (int c = 0; c < kNumCores; ++c) {
        pdn_config.rail_res_scale[c] *=
            config_.variation.core[c].rail_res_scale;
        pdn_config.decap_scale[c] *= config_.variation.core[c].decap_scale;
    }
    supply_ = pdn_config.vnom * (1.0 - config_.bias);
    pdn_config.vnom = supply_;
    pdn_ = buildZec12Pdn(pdn_config);

    // One LU factorization per (netlist content, dt), interned in the
    // process-wide cache and shared read-only by every run of this
    // model, serial or across worker threads.
    fact_ = FactorizationCache::global().get(pdn_.netlist, config_.dt);
}

CoreActivity
ChipModel::idleActivity() const
{
    return CoreActivity::constant(config_.core.static_power);
}

ChipRunResult
ChipModel::run(const std::array<CoreActivity, kNumCores> &workloads,
               double duration, const RunOptions &options) const
{
    return runBatch(std::span(&workloads, 1), duration, options).front();
}

std::vector<ChipRunResult>
ChipModel::runBatch(
    std::span<const std::array<CoreActivity, kNumCores>> workloads,
    double duration, const RunOptions &options) const
{
    if (duration <= 0.0)
        fatal("ChipModel::runBatch(): duration must be > 0");
    const size_t lanes = workloads.size();
    if (lanes == 0)
        return {};

    std::vector<std::array<CoreActivity, kNumCores>> activity(
        workloads.begin(), workloads.end());

    // Per-lane measurement state. Lanes never mix arithmetically: each
    // samples its own voltages into its own skitters, stats, scopes
    // and meter, so a lane's result does not depend on the batch width
    // or its position in the batch.
    struct LaneState
    {
        std::vector<Skitter> skitters;
        std::vector<Skitter> shared_skitters;
        std::array<RunningStats, kNumCores> vstats;
        std::array<RunningStats, kNumSharedUnits> shared_vstats;
        std::vector<Oscilloscope> scopes; //!< per core, with traces
        PowerMeter meter;
        bool active = true;
    };
    std::vector<LaneState> lane_state(lanes);
    for (auto &ls : lane_state) {
        ls.skitters.reserve(kNumCores);
        for (int c = 0; c < kNumCores; ++c) {
            SkitterParams sp = config_.skitter;
            sp.gain *= config_.variation.core[c].skitter_gain_scale;
            ls.skitters.emplace_back(sp);
        }
        ls.shared_skitters.assign(kNumSharedUnits,
                                  Skitter(config_.skitter));
        if (options.capture_traces) {
            ls.scopes.reserve(kNumCores);
            for (int c = 0; c < kNumCores; ++c)
                ls.scopes.emplace_back(config_.dt,
                                       options.trace_decimation);
        }
    }

    const std::array<NodeId, kNumSharedUnits> shared_nodes = {
        pdn_.l3_node, pdn_.mcu_node, pdn_.gx_node};

    BatchedTransientSolver sim(fact_, lanes);

    const size_t num_ports = pdn_.portCount();
    std::vector<double> currents(num_ports * lanes, 0.0);
    auto fill_currents = [&](bool advance) {
        for (size_t k = 0; k < lanes; ++k) {
            double *lane_currents = &currents[k * num_ports];
            for (int c = 0; c < kNumCores; ++c) {
                double power = advance
                                   ? activity[k][c].advance(config_.dt)
                                   : activity[k][c].currentPower();
                lane_currents[pdn_.core_port[c]] =
                    power * config_.power_unit_amps *
                    config_.variation.core[c].power_scale;
            }
            lane_currents[pdn_.l3_port] = config_.nest_amps;
            lane_currents[pdn_.mcu_port] = config_.mcu_amps;
            lane_currents[pdn_.gx_port] = config_.gx_amps;
        }
    };

    fill_currents(false);
    sim.initDcOperatingPoint(currents);

    std::vector<ChipRunResult> results(lanes);
    for (auto &r : results)
        r.duration = duration;

    size_t active_lanes = lanes;

    const auto steps =
        static_cast<uint64_t>(std::ceil(duration / config_.dt));
    for (uint64_t step = 0; step < steps; ++step) {
        fill_currents(true);
        sim.step(currents);
        double t = sim.time();

        for (size_t k = 0; k < lanes; ++k) {
            LaneState &ls = lane_state[k];
            if (!ls.active)
                continue;
            ChipRunResult &result = results[k];

            for (int c = 0; c < kNumCores; ++c) {
                double v = sim.nodeVoltage(k, pdn_.core_node[c]);
                result.v_floor = std::min(result.v_floor, v);
                if (t >= options.warmup) {
                    ls.skitters[c].sample(v);
                    ls.vstats[c].add(v);
                }
                if (!result.failed && critpath_.violates(v)) {
                    result.failed = true;
                    result.failure_time = t;
                    result.failing_core = c;
                }
                if (options.capture_traces)
                    ls.scopes[c].sample(v);
            }

            if (t >= options.warmup) {
                for (int u = 0; u < kNumSharedUnits; ++u) {
                    double v = sim.nodeVoltage(k, shared_nodes[u]);
                    ls.shared_skitters[u].sample(v);
                    ls.shared_vstats[u].add(v);
                }
            }

            ls.meter.sample(supply_, std::fabs(sim.sourceCurrent(k, 0)));

            // The lane's result fields are final at its first
            // violation: freeze its sampling and keep stepping the rest.
            if (result.failed && options.stop_on_failure) {
                ls.active = false;
                --active_lanes;
            }
        }

        if (active_lanes == 0)
            break;
    }

    auto readout = [](const Skitter &skitter, const RunningStats &vstats) {
        CoreRunResult r;
        r.p2p = skitter.percentP2p();
        r.min_latch = skitter.minPosition();
        r.max_latch = skitter.maxPosition();
        r.v_min = vstats.min();
        r.v_max = vstats.max();
        r.v_mean = vstats.mean();
        return r;
    };
    for (size_t k = 0; k < lanes; ++k) {
        LaneState &ls = lane_state[k];
        ChipRunResult &result = results[k];
        for (int c = 0; c < kNumCores; ++c)
            result.core[c] = readout(ls.skitters[c], ls.vstats[c]);
        for (int u = 0; u < kNumSharedUnits; ++u)
            result.shared[u] =
                readout(ls.shared_skitters[u], ls.shared_vstats[u]);
        result.avg_power_watts = ls.meter.averageWatts();
        for (auto &scope : ls.scopes)
            result.traces.push_back(scope.takeTrace());
    }
    return results;
}

} // namespace vn
