/**
 * @file
 * google-benchmark microbenchmarks of the simulation substrate: PDN
 * transient stepping (one lane and lane-batched), AC solves, DC
 * operating points, and factorization-cache hits. These bound the
 * wall-clock cost of every experiment harness.
 *
 * Besides the usual google-benchmark CLI, `--table[=OUT.json]` runs a
 * fixed one-lane-vs-batched throughput comparison at K in {1, 4, 8, 16}
 * and (with a path) writes a machine-readable BENCH_solver.json for
 * the CI regression gate (scripts/bench_gate.py). The JSON includes
 * `calibration_ns` — the wall time of a fixed dependent-FMA reference
 * kernel — so the gate can compare machine-normalized ratios instead
 * of raw nanoseconds across runner generations. Table mode also
 * asserts that every batched lane reproduces the one-lane solver
 * bit-for-bit before trusting the timings. The JSON keeps its
 * `scalar_ns_per_step` / `speedup_vs_scalar` field names for the
 * one-lane TransientSolver row.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "vnoise/vnoise.hh"

namespace
{

const vn::ChipPdn &
pdn()
{
    static vn::ChipPdn p = vn::buildZec12Pdn();
    return p;
}

void
BM_TransientStep(benchmark::State &state)
{
    vn::TransientSolver sim(pdn().netlist, 1e-9);
    std::vector<double> load(pdn().portCount(), 0.0);
    sim.initDcOperatingPoint(load);
    load[0] = 20.0;
    for (auto _ : state) {
        sim.step(load);
        benchmark::DoNotOptimize(sim.nodeVoltage(pdn().core_node[0]));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TransientStep);

void
BM_TransientStepBatched(benchmark::State &state)
{
    const size_t lanes = static_cast<size_t>(state.range(0));
    vn::BatchedTransientSolver sim(pdn().netlist, 1e-9, lanes);
    std::vector<double> load(pdn().portCount() * lanes, 0.0);
    sim.initDcOperatingPoint(load);
    for (size_t k = 0; k < lanes; ++k)
        load[k * pdn().portCount()] = 20.0;
    for (auto _ : state) {
        sim.step(load);
        benchmark::DoNotOptimize(
            sim.nodeVoltage(lanes - 1, pdn().core_node[0]));
    }
    // Items = lane-steps, so items/sec is directly comparable with
    // BM_TransientStep.
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(lanes));
}
BENCHMARK(BM_TransientStepBatched)->Arg(1)->Arg(4)->Arg(8)->Arg(16);

void
BM_DcOperatingPoint(benchmark::State &state)
{
    vn::TransientSolver sim(pdn().netlist, 1e-9);
    std::vector<double> load(pdn().portCount(), 15.0);
    for (auto _ : state)
        sim.initDcOperatingPoint(load);
}
BENCHMARK(BM_DcOperatingPoint);

void
BM_AcImpedancePoint(benchmark::State &state)
{
    vn::AcAnalysis ac(pdn().netlist);
    double f = 1e4;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ac.impedance(pdn().core_port[0], f));
        f = f < 1e8 ? f * 1.3 : 1e4;
    }
}
BENCHMARK(BM_AcImpedancePoint);

void
BM_SolverConstruction(benchmark::State &state)
{
    // With the factorization cache this is a hash + intern lookup, not
    // a fresh LU: the first construction in the process factorizes,
    // every later one shares it.
    for (auto _ : state) {
        vn::TransientSolver sim(pdn().netlist, 1e-9);
        benchmark::DoNotOptimize(&sim);
    }
}
BENCHMARK(BM_SolverConstruction);

void
BM_FactorizationCacheHit(benchmark::State &state)
{
    // Steady-state cost of FactorizationCache::get() on a hit: content
    // hash of the netlist + locked bucket probe.
    benchmark::DoNotOptimize(
        vn::FactorizationCache::global().get(pdn().netlist, 1e-9).get());
    for (auto _ : state) {
        auto fact = vn::FactorizationCache::global().get(pdn().netlist,
                                                         1e-9);
        benchmark::DoNotOptimize(fact.get());
    }
}
BENCHMARK(BM_FactorizationCacheHit);

void
BM_ChipCosimMicrosecond(benchmark::State &state)
{
    // One microsecond of full chip co-simulation (1000 steps) with six
    // square-wave workloads.
    vn::ChipModel chip;
    std::vector<vn::ActivityPhase> loop{{3.4, 200e-9}, {1.9, 200e-9}};
    vn::CoreActivity wave(loop);
    std::array<vn::CoreActivity, vn::kNumCores> w = {wave, wave, wave,
                                                     wave, wave, wave};
    for (auto _ : state) {
        auto r = chip.run(w, 1e-6);
        benchmark::DoNotOptimize(r.maxP2p());
    }
}
BENCHMARK(BM_ChipCosimMicrosecond)->Unit(benchmark::kMillisecond);

void
BM_ChipCosimMicrosecondBatched(benchmark::State &state)
{
    // Eight one-microsecond co-simulations advanced as lanes of one
    // batched solve; items/sec counts lane-runs for comparability with
    // BM_ChipCosimMicrosecond.
    const size_t lanes = 8;
    vn::ChipModel chip;
    std::vector<vn::ActivityPhase> loop{{3.4, 200e-9}, {1.9, 200e-9}};
    vn::CoreActivity wave(loop);
    std::array<vn::CoreActivity, vn::kNumCores> w = {wave, wave, wave,
                                                     wave, wave, wave};
    std::vector<std::array<vn::CoreActivity, vn::kNumCores>> workloads(
        lanes, w);
    for (auto _ : state) {
        auto r = chip.runBatch(workloads, 1e-6);
        benchmark::DoNotOptimize(r[lanes - 1].maxP2p());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(lanes));
}
BENCHMARK(BM_ChipCosimMicrosecondBatched)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// --table mode: fixed comparison + JSON artifact for the CI gate.
// ---------------------------------------------------------------------

double
elapsedNs(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Wall time of a fixed dependent-FMA kernel (8192 multiply-adds x
 * 16384 sweeps). Solver stepping is dominated by exactly this kind of
 * dependent double-precision chain, so ns_per_step / calibration_ns is
 * stable across runner generations where raw ns is not.
 */
double
calibrationNs()
{
    constexpr int sweeps = 16384;
    constexpr int chain = 8192;
    double acc = 1.0;
    auto t0 = std::chrono::steady_clock::now();
    for (int s = 0; s < sweeps; ++s) {
        for (int i = 0; i < chain; ++i)
            acc = acc * 0.999999999 + 1e-12;
        benchmark::DoNotOptimize(acc);
    }
    return elapsedNs(t0);
}

/** ns per step of the one-lane TransientSolver over `steps` steps. */
double
oneLaneNsPerStep(uint64_t steps)
{
    vn::TransientSolver sim(pdn().netlist, 1e-9);
    std::vector<double> load(pdn().portCount(), 0.0);
    sim.initDcOperatingPoint(load);
    load[0] = 20.0;
    for (uint64_t i = 0; i < steps / 10; ++i) // warmup
        sim.step(load);
    auto t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < steps; ++i)
        sim.step(load);
    double ns = elapsedNs(t0);
    benchmark::DoNotOptimize(sim.nodeVoltage(pdn().core_node[0]));
    return ns / static_cast<double>(steps);
}

/** ns per lane-step of the batched solver at K = `lanes`. */
double
batchedNsPerLaneStep(size_t lanes, uint64_t steps)
{
    vn::BatchedTransientSolver sim(pdn().netlist, 1e-9, lanes);
    std::vector<double> load(pdn().portCount() * lanes, 0.0);
    sim.initDcOperatingPoint(load);
    for (size_t k = 0; k < lanes; ++k)
        load[k * pdn().portCount()] = 20.0;
    for (uint64_t i = 0; i < steps / 10; ++i) // warmup
        sim.step(load);
    auto t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < steps; ++i)
        sim.step(load);
    double ns = elapsedNs(t0);
    benchmark::DoNotOptimize(
        sim.nodeVoltage(lanes - 1, pdn().core_node[0]));
    return ns / static_cast<double>(steps * lanes);
}

/**
 * Every lane of a 16-lane batch must match a one-lane solver fed the
 * same stimulus bit-for-bit after 2000 steps. Returns false (and
 * complains) on any divergence — the gate must not bless timings from
 * a solver that broke determinism.
 */
bool
verifyBitIdentity()
{
    constexpr size_t lanes = 16;
    constexpr uint64_t steps = 2000;
    const size_t ports = pdn().portCount();

    vn::TransientSolver one_lane(pdn().netlist, 1e-9);
    vn::BatchedTransientSolver batched(pdn().netlist, 1e-9, lanes);

    std::vector<double> load(ports, 0.0);
    load[0] = 20.0;
    load[ports - 1] = 5.0;
    std::vector<double> lane_load(ports * lanes);
    for (size_t k = 0; k < lanes; ++k)
        std::memcpy(&lane_load[k * ports], load.data(),
                    ports * sizeof(double));

    one_lane.initDcOperatingPoint(load);
    batched.initDcOperatingPoint(lane_load);
    for (uint64_t i = 0; i < steps; ++i) {
        one_lane.step(load);
        batched.step(lane_load);
    }

    for (size_t k = 0; k < lanes; ++k) {
        for (int c = 0; c < vn::kNumCores; ++c) {
            double vs = one_lane.nodeVoltage(pdn().core_node[c]);
            double vb = batched.nodeVoltage(k, pdn().core_node[c]);
            if (std::memcmp(&vs, &vb, sizeof(double)) != 0) {
                std::fprintf(stderr,
                             "BIT-IDENTITY FAILURE: lane %zu core %d: "
                             "one-lane %.17g != batched %.17g\n",
                             k, c, vs, vb);
                return false;
            }
        }
    }
    return true;
}

int
runTable(const char *json_path, uint64_t steps)
{
    std::printf("perf_solver --table: %llu steps/config, zEC12 PDN, "
                "dt=1ns\n\n",
                static_cast<unsigned long long>(steps));

    if (!verifyBitIdentity())
        return 1;
    std::printf("bit-identity: 16 batched lanes == one lane over 2000 "
                "steps ... OK\n\n");

    double calib = calibrationNs();
    double one_lane_ns = oneLaneNsPerStep(steps);

    const size_t ks[] = {1, 4, 8, 16};
    double batched_ns[4];
    std::printf("%-28s %14s %10s\n", "config", "ns/step/lane", "speedup");
    std::printf("%-28s %14.1f %10s\n", "one-lane TransientSolver",
                one_lane_ns, "1.00x");
    for (int i = 0; i < 4; ++i) {
        batched_ns[i] = batchedNsPerLaneStep(ks[i], steps);
        char name[40];
        std::snprintf(name, sizeof(name), "batched K=%zu", ks[i]);
        std::printf("%-28s %14.1f %9.2fx\n", name, batched_ns[i],
                    one_lane_ns / batched_ns[i]);
    }
    double speedup_k8 = one_lane_ns / batched_ns[2];
    std::printf("\ncalibration: %.3e ns (reference FMA kernel)\n", calib);

    if (json_path != nullptr) {
        std::FILE *f = std::fopen(json_path, "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n", json_path);
            return 1;
        }
        std::fprintf(f, "{\n");
        std::fprintf(f, "  \"schema\": \"vnoise-bench-solver-v1\",\n");
        std::fprintf(f, "  \"steps\": %llu,\n",
                     static_cast<unsigned long long>(steps));
        std::fprintf(f, "  \"calibration_ns\": %.17g,\n", calib);
        std::fprintf(f, "  \"scalar_ns_per_step\": %.17g,\n", one_lane_ns);
        std::fprintf(f, "  \"batched\": [\n");
        for (int i = 0; i < 4; ++i) {
            std::fprintf(f,
                         "    {\"lanes\": %zu, \"ns_per_step_lane\": "
                         "%.17g, \"speedup_vs_scalar\": %.17g}%s\n",
                         ks[i], batched_ns[i],
                         one_lane_ns / batched_ns[i], i < 3 ? "," : "");
        }
        std::fprintf(f, "  ],\n");
        std::fprintf(f, "  \"speedup_k8\": %.17g\n", speedup_k8);
        std::fprintf(f, "}\n");
        std::fclose(f);
        std::printf("wrote %s\n", json_path);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *json_path = nullptr;
    bool table_mode = false;
    uint64_t steps = 100000;

    std::vector<char *> passthrough;
    passthrough.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--table") == 0) {
            table_mode = true;
        } else if (std::strncmp(argv[i], "--table=", 8) == 0) {
            table_mode = true;
            json_path = argv[i] + 8;
        } else if (std::strcmp(argv[i], "--steps") == 0 &&
                   i + 1 < argc) {
            steps = std::strtoull(argv[++i], nullptr, 10);
        } else {
            passthrough.push_back(argv[i]);
        }
    }
    if (table_mode) {
        if (steps < 100) {
            std::fprintf(stderr, "--steps must be >= 100\n");
            return 1;
        }
        return runTable(json_path, steps);
    }

    int pass_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&pass_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(pass_argc,
                                               passthrough.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
