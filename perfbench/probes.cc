#include "probes.hh"

#include <cmath>
#include <filesystem>
#include <optional>

#include "chip/vmin.hh"
#include "circuit/batched.hh"
#include "circuit/transient.hh"
#include "measure/skitter.hh"
#include "runtime/cache.hh"
#include "service/codec.hh"

namespace vnbench
{

namespace
{

constexpr int kRepeats = 3; //!< each probe reports its median repeat

/** Port currents of one step, filled exactly as the chip model does. */
void
fillCurrents(const vn::ChipModel &chip,
             std::array<vn::CoreActivity, vn::kNumCores> &activity,
             double *currents)
{
    const vn::ChipConfig &config = chip.config();
    const vn::ChipPdn &pdn = chip.pdn();
    for (int c = 0; c < vn::kNumCores; ++c)
        currents[pdn.core_port[c]] = activity[c].advance(config.dt) *
                                     config.power_unit_amps *
                                     config.variation.core[c].power_scale;
    currents[pdn.l3_port] = config.nest_amps;
    currents[pdn.mcu_port] = config.mcu_amps;
    currents[pdn.gx_port] = config.gx_amps;
}

template <typename Fn>
double
medianMs(Fn fn)
{
    std::vector<double> ms;
    for (int r = 0; r < kRepeats; ++r) {
        Clock::time_point t0 = Clock::now();
        fn();
        ms.push_back(msBetween(t0, Clock::now()));
    }
    return median(ms);
}

} // namespace

void
probeChip(const vn::ChipConfig &config, const std::vector<ChipInputs> &lanes,
          Report &report)
{
    Scope probe("probe.chip");
    const vn::ChipModel chip(config);
    const ChipInputs &first = lanes.front();
    const double sim_ns = first.window / 1e-9;
    const size_t k = lanes.size();

    // CoreActivity::advance, one core-step at a time.
    const int steps = 20000;
    double activity_ms = medianMs([&] {
        std::array<vn::CoreActivity, vn::kNumCores> w = first.workloads;
        double sink = 0.0;
        for (int s = 0; s < steps; ++s)
            for (auto &a : w)
                sink += a.advance(config.dt);
        if (sink < 0.0)
            report.fail("negative activity power");
    });
    report.set("chip.activity_ns_per_core_step",
               activity_ms * 1e6 / (steps * vn::kNumCores), "ns",
               static_cast<size_t>(steps) * vn::kNumCores);

    double run_ms =
        medianMs([&] { (void)chip.run(first.workloads, first.window); });
    report.set("chip.run_us_per_sim_ns", run_ms * 1e3 / sim_ns, "us",
               kRepeats);

    std::vector<std::array<vn::CoreActivity, vn::kNumCores>> batch;
    for (const ChipInputs &lane : lanes)
        batch.push_back(lane.workloads);
    double batch_ms =
        medianMs([&] { (void)chip.runBatch(batch, first.window); });
    report.set("chip.batch_us_per_lane_sim_ns",
               batch_ms * 1e3 / (sim_ns * static_cast<double>(k)), "us",
               kRepeats);

    // The constructor Vmin calls at every 0.5% step (bias 0.5%..5%).
    const int biases = 10;
    double construct_ms = medianMs([&] {
        for (int b = 1; b <= biases; ++b) {
            vn::ChipConfig biased = config;
            biased.bias = 0.005 * b;
            vn::ChipModel step_chip(biased);
        }
    });
    report.set("chip.construct_ms", construct_ms / biases, "ms",
               kRepeats * biases);

    // Solver steps on the chip's own factorization, driven by the port
    // currents the run's activities produce (generated beforehand so
    // only the steps are timed).
    const size_t ports = chip.pdn().portCount();
    const int solver_steps = 4000;
    std::vector<double> lane_currents((solver_steps + 1) * k * ports, 0.0);
    {
        std::vector<std::array<vn::CoreActivity, vn::kNumCores>> w = batch;
        for (int s = 0; s <= solver_steps; ++s)
            for (size_t l = 0; l < k; ++l)
                fillCurrents(chip, w[l], &lane_currents[(s * k + l) * ports]);
    }
    std::span<const double> all(lane_currents);
    double lane_ms = medianMs([&] {
        vn::BatchedTransientSolver solver(chip.factorization(), k);
        solver.initDcOperatingPoint(all.subspan(0, k * ports));
        for (int s = 1; s <= solver_steps; ++s)
            solver.step(all.subspan(s * k * ports, k * ports));
    });
    // The scalar solver replays lane 0's currents.
    std::vector<double> scalar_currents;
    for (int s = 0; s <= solver_steps; ++s) {
        auto step = all.subspan(s * k * ports, ports);
        scalar_currents.insert(scalar_currents.end(), step.begin(), step.end());
    }
    std::span<const double> lane0(scalar_currents);
    double scalar_ms = medianMs([&] {
        vn::TransientSolver solver(chip.factorization());
        solver.initDcOperatingPoint(lane0.subspan(0, ports));
        for (int s = 1; s <= solver_steps; ++s)
            solver.step(lane0.subspan(s * ports, ports));
    });
    report.set("circuit.step_ns_per_lane",
               lane_ms * 1e6 / (solver_steps * static_cast<double>(k)), "ns",
               static_cast<size_t>(solver_steps) * k);
    report.set("circuit.step_ns_scalar", scalar_ms * 1e6 / solver_steps, "ns",
               solver_steps);

    // Skitter sampling on the run's own core-0 voltage trace.
    vn::RunOptions capture;
    capture.capture_traces = true;
    vn::ChipRunResult traced = chip.run(first.workloads, first.window, capture);
    std::span<const double> volts = traced.traces.at(0).samples();
    const int passes = 20;
    double skitter_ms = medianMs([&] {
        vn::Skitter skitter(config.skitter);
        for (int p = 0; p < passes; ++p)
            for (double v : volts)
                skitter.sample(v);
        if (skitter.sampleCount() <= 0)
            report.fail("skitter probe took no samples");
    });
    size_t samples = volts.size() * passes;
    report.set("measure.skitter_ns_per_sample",
               skitter_ms * 1e6 / static_cast<double>(samples), "ns",
               samples);
}

void
probeVmin(const vn::ChipConfig &config, const ChipInputs &cell,
          Report &report)
{
    Scope probe("probe.vmin");
    vn::VminExperiment vmin(config, 0.005, 0.15);
    vn::VminResult result;
    double ms = medianMs([&] { result = vmin.run(cell.workloads, cell.window); });
    report.set("measure.vmin_ms", ms, "ms", kRepeats);
    report.set("measure.vmin_steps", result.steps, "count", 1);
}

void
probeCache(const std::string &cache_dir, const std::string &store_dir,
           Report &report)
{
    Scope probe("probe.cache");
    vn::runtime::ResultCache cache(cache_dir);
    std::vector<double> point_ms, trace_ms;
    std::optional<vn::KeyValueFile> point_entry;
    for (const auto &file : std::filesystem::directory_iterator(cache_dir)) {
        if (file.path().extension() != ".kv")
            continue;
        uint64_t key = std::stoull(file.path().stem().string(), nullptr, 16);
        Clock::time_point t0 = Clock::now();
        std::optional<vn::KeyValueFile> entry = cache.load(key);
        double ms = msBetween(t0, Clock::now());
        if (!entry) {
            report.fail("cache probe: entry " + file.path().string() +
                        " did not load");
            continue;
        }
        // Trace entries hold one "s.NNNNNN" key per sample.
        if (entry->has("s.000000")) {
            trace_ms.push_back(ms);
        } else {
            point_ms.push_back(ms);
            if (!point_entry)
                point_entry = std::move(entry);
        }
    }
    report.set("runtime.cache_load_ms.point", median(point_ms), "ms",
               point_ms.size());
    report.set("runtime.cache_load_ms.trace", median(trace_ms), "ms",
               trace_ms.size());

    std::vector<double> store_ms;
    if (point_entry) {
        vn::runtime::ResultCache store(store_dir);
        for (uint64_t key = 1; key <= 32; ++key) {
            Clock::time_point t0 = Clock::now();
            if (!store.store(key, *point_entry))
                report.fail("cache probe: store failed");
            store_ms.push_back(msBetween(t0, Clock::now()));
        }
    }
    report.set("runtime.cache_store_ms.point", median(store_ms), "ms",
               store_ms.size());
}

void
probeCodec(const vn::FreqSweepPoint &point, const vn::DroopTrace &trace,
           Report &report)
{
    Scope probe("probe.codec");
    using vn::service::Json;
    auto measure = [&](const vn::service::AnyResult &result,
                       vn::service::Verb verb, const char *suffix,
                       int repeats) {
        std::string text;
        std::vector<double> enc, dec;
        for (int r = 0; r < repeats; ++r) {
            Clock::time_point t0 = Clock::now();
            text = vn::service::encodeResult(result).dump();
            Clock::time_point t1 = Clock::now();
            vn::service::AnyResult back =
                vn::service::decodeResult(verb, Json::parse(text));
            Clock::time_point t2 = Clock::now();
            enc.push_back(msBetween(t0, t1));
            dec.push_back(msBetween(t1, t2));
            if (back.index() != result.index())
                report.fail("codec probe: decoded a different type");
        }
        report.set(std::string("service.encode_ms.") + suffix, median(enc),
                   "ms", enc.size());
        report.set(std::string("service.decode_ms.") + suffix, median(dec),
                   "ms", dec.size());
    };
    measure(vn::service::AnyResult(point), vn::service::Verb::Sweep, "point",
            200);
    measure(vn::service::AnyResult(trace), vn::service::Verb::Trace, "trace",
            5);
}

void
zeroVmin(Report &report)
{
    report.set("measure.vmin_ms", 0.0, "ms", 0);
    report.set("measure.vmin_steps", 0.0, "count", 0);
}

void
zeroCache(Report &report)
{
    for (const char *name : {"runtime.cache_load_ms.point",
                             "runtime.cache_load_ms.trace",
                             "runtime.cache_store_ms.point"})
        report.set(name, 0.0, "ms", 0);
}

void
zeroCodec(Report &report)
{
    for (const char *name :
         {"service.encode_ms.point", "service.decode_ms.point",
          "service.encode_ms.trace", "service.decode_ms.trace"})
        report.set(name, 0.0, "ms", 0);
}

} // namespace vnbench
