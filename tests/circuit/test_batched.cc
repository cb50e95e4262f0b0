/**
 * @file
 * Lane-invariance, golden-digest and sharing tests of the one
 * (lane-batched) solver path.
 *
 * The whole campaign-batching design rests on one claim: a lane of
 * BatchedTransientSolver performs the same operation sequence whatever
 * the batch width or its position in the batch, so K lanes are
 * byte-identical to K one-lane TransientSolvers (and ChipModel::runBatch
 * to K ChipModel::run calls) and every batch width can share cache
 * entries. These tests enforce the claim byte-for-byte (memcmp on
 * doubles, never EXPECT_NEAR) over long transients, on every netlist
 * the chip model builds, and at the ChipModel::runBatch level
 * including traces and stop_on_failure.
 *
 * Invariance cannot show that the path still computes what it did, so
 * every observation is also folded into an FNV-1a digest of its double
 * bit patterns and compared against a golden constant below. Only an
 * intended model change may re-record them.
 *
 * FactorizationCacheTest.ConcurrentGetInternsOnePointer doubles as the
 * ThreadSanitizer target for the cache's locking (scripts/check.sh
 * runs it under the tsan preset).
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "chip/chip.hh"
#include "circuit/batched.hh"
#include "circuit/factorization.hh"
#include "circuit/netlist.hh"
#include "circuit/transient.hh"
#include "runtime/hash.hh"
#include "util/logging.hh"

namespace
{

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** Fold the bit pattern of `v` into a running FNV-1a digest. */
uint64_t
foldBits(uint64_t digest, double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return vn::runtime::fnv1aAppend(digest, bits);
}

uint64_t
foldInt(uint64_t digest, int64_t v)
{
    return vn::runtime::fnv1aAppend(digest, static_cast<uint64_t>(v));
}

/** Fold every observable field of a run, traces included. */
uint64_t
foldChipResult(uint64_t digest, const vn::ChipRunResult &r)
{
    auto fold_core = [&](const vn::CoreRunResult &c) {
        digest = foldBits(digest, c.p2p);
        digest = foldInt(digest, c.min_latch);
        digest = foldInt(digest, c.max_latch);
        digest = foldBits(digest, c.v_min);
        digest = foldBits(digest, c.v_max);
        digest = foldBits(digest, c.v_mean);
    };
    for (const auto &c : r.core)
        fold_core(c);
    for (const auto &u : r.shared)
        fold_core(u);
    digest = foldInt(digest, r.failed ? 1 : 0);
    digest = foldBits(digest, r.failure_time);
    digest = foldInt(digest, r.failing_core);
    digest = foldBits(digest, r.v_floor);
    digest = foldBits(digest, r.avg_power_watts);
    digest = foldBits(digest, r.duration);
    digest = foldInt(digest, static_cast<int64_t>(r.traces.size()));
    for (const auto &w : r.traces) {
        digest = foldBits(digest, w.dt());
        digest = foldInt(digest, static_cast<int64_t>(w.size()));
        for (size_t i = 0; i < w.size(); ++i)
            digest = foldBits(digest, w[i]);
    }
    return digest;
}

// Golden digests of the observations of each test below.
constexpr uint64_t kLadderFiveLanesDigest = 0xcce2702c011aea97ull;
constexpr uint64_t kLadderOneLaneDigest = 0xdf92a0dd7f00c918ull;
constexpr std::array<uint64_t, 4> kChipNetlistDigests = {
    0x08ba5d1969e2de5eull, 0xd846f721d6f19fc2ull, 0x572150dc1d03c54bull,
    0x203daa7c2c920b94ull};
constexpr uint64_t kRunBatchDigest = 0x5472ae850f7dd10eull;
constexpr uint64_t kStopOnFailureDigest = 0xb3060c850d6b6f0full;

/** Deterministic per-lane stimulus, different for every (lane, port, step). */
double
stimulus(size_t lane, size_t port, uint64_t step)
{
    double base = 1.0 + 0.37 * static_cast<double>(lane) +
                  0.11 * static_cast<double>(port);
    // A square-ish wave with lane-dependent period keeps every lane on
    // a different trajectory.
    uint64_t period = 7 + 3 * lane + port;
    return (step / period) % 2 == 0 ? base : 0.25 * base;
}

/** RLC ladder with two ports, a vsource, and reactive state. */
vn::Netlist
makeLadder()
{
    vn::Netlist net;
    vn::NodeId n1 = net.addNode("n1");
    vn::NodeId n2 = net.addNode("n2");
    vn::NodeId n3 = net.addNode("n3");
    net.addVoltageSource(n1, vn::Netlist::ground, 1.1);
    net.addResistor(n1, n2, 0.01);
    net.addInductor(n2, n3, 5e-9);
    net.addCapacitor(n2, vn::Netlist::ground, 1e-6);
    net.addCapacitor(n3, vn::Netlist::ground, 4e-6);
    net.addResistor(n3, vn::Netlist::ground, 50.0);
    net.addCurrentPort(n2, vn::Netlist::ground, "p2");
    net.addCurrentPort(n3, vn::Netlist::ground, "p3");
    return net;
}

/**
 * Drive `lanes` one-lane solvers and one batched solver with identical
 * per-lane stimuli for `steps` steps and require byte-identical state
 * at every observation point. `digest` receives the FNV-1a digest of
 * every observed value.
 */
void
expectLanesMatchOneLane(const vn::Netlist &net, double dt, size_t lanes,
                        uint64_t steps, uint64_t *digest)
{
    *digest = vn::runtime::kFnvOffset;
    const size_t ports = net.ports().size();

    std::vector<vn::TransientSolver> one_lane;
    one_lane.reserve(lanes);
    for (size_t k = 0; k < lanes; ++k)
        one_lane.emplace_back(net, dt);
    vn::BatchedTransientSolver batched(net, dt, lanes);

    // All solvers share one interned factorization.
    for (size_t k = 0; k < lanes; ++k)
        ASSERT_EQ(one_lane[k].factorization().get(),
                  batched.factorization().get());

    std::vector<double> lane_load(ports * lanes);
    std::vector<std::vector<double>> loads(lanes,
                                           std::vector<double>(ports));
    auto fill = [&](uint64_t step) {
        for (size_t k = 0; k < lanes; ++k) {
            for (size_t p = 0; p < ports; ++p) {
                loads[k][p] = stimulus(k, p, step);
                lane_load[k * ports + p] = loads[k][p];
            }
        }
    };

    fill(0);
    for (size_t k = 0; k < lanes; ++k)
        one_lane[k].initDcOperatingPoint(loads[k]);
    batched.initDcOperatingPoint(lane_load);

    auto check = [&](uint64_t step) {
        for (size_t k = 0; k < lanes; ++k) {
            for (vn::NodeId n = 1;
                 n < static_cast<vn::NodeId>(net.nodeCount()); ++n) {
                ASSERT_TRUE(sameBits(one_lane[k].nodeVoltage(n),
                                     batched.nodeVoltage(k, n)))
                    << "lane " << k << " node " << n << " step " << step;
                *digest = foldBits(*digest, batched.nodeVoltage(k, n));
            }
            for (size_t i = 0; i < net.inductors().size(); ++i) {
                ASSERT_TRUE(sameBits(one_lane[k].inductorCurrent(i),
                                     batched.inductorCurrent(k, i)))
                    << "lane " << k << " inductor " << i << " step "
                    << step;
                *digest = foldBits(*digest, batched.inductorCurrent(k, i));
            }
            for (size_t i = 0; i < net.voltageSources().size(); ++i) {
                ASSERT_TRUE(sameBits(one_lane[k].sourceCurrent(i),
                                     batched.sourceCurrent(k, i)))
                    << "lane " << k << " vsource " << i << " step "
                    << step;
                *digest = foldBits(*digest, batched.sourceCurrent(k, i));
            }
        }
    };

    check(0);
    for (uint64_t s = 1; s <= steps; ++s) {
        fill(s);
        for (size_t k = 0; k < lanes; ++k)
            one_lane[k].step(loads[k]);
        batched.step(lane_load);
        if (s % 97 == 0 || s == steps)
            check(s);
    }
}

TEST(BatchedBitIdentityTest, LadderLanesMatchScalarLongTransient)
{
    uint64_t digest = 0;
    expectLanesMatchOneLane(makeLadder(), 1e-9, 5, 5000, &digest);
    EXPECT_EQ(digest, kLadderFiveLanesDigest);
}

TEST(BatchedBitIdentityTest, SingleLaneDegeneratesToScalar)
{
    uint64_t digest = 0;
    expectLanesMatchOneLane(makeLadder(), 2e-9, 1, 1500, &digest);
    EXPECT_EQ(digest, kLadderOneLaneDigest);
}

TEST(BatchedBitIdentityTest, EveryChipModelNetlistMatches)
{
    // Every netlist the chip model builds: default config, scaled PDN,
    // process variation, undervolt bias, and a coarser step.
    std::vector<vn::ChipConfig> configs(4);
    configs[1].pdn.rail_res_scale.fill(1.35);
    configs[1].pdn.decap_scale.fill(0.8);
    configs[2].variation =
        vn::VariationProfile::randomCorner(1234, 0.05);
    configs[2].bias = 0.04;
    configs[3].dt = 2e-9;

    for (size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i));
        vn::ChipModel chip(configs[i]);
        uint64_t digest = 0;
        expectLanesMatchOneLane(chip.pdn().netlist, chip.config().dt, 4,
                                1200, &digest);
        EXPECT_EQ(digest, kChipNetlistDigests[i]);
    }
}

std::array<vn::CoreActivity, vn::kNumCores>
waveWorkloads(const vn::ChipModel &chip, int variant)
{
    std::array<vn::CoreActivity, vn::kNumCores> w = {
        chip.idleActivity(), chip.idleActivity(), chip.idleActivity(),
        chip.idleActivity(), chip.idleActivity(), chip.idleActivity()};
    for (int c = 0; c < vn::kNumCores; ++c) {
        if ((c + variant) % 2 == 0) {
            double hi = 3.0 + 0.2 * variant + 0.1 * c;
            std::vector<vn::ActivityPhase> loop{
                {hi, 150e-9 + 10e-9 * static_cast<double>(variant)},
                {1.2, 250e-9}};
            w[c] = vn::CoreActivity(loop);
        }
    }
    return w;
}

void
expectSameChipResult(const vn::ChipRunResult &a,
                     const vn::ChipRunResult &b)
{
    auto same_core = [](const vn::CoreRunResult &x,
                        const vn::CoreRunResult &y) {
        return sameBits(x.p2p, y.p2p) && x.min_latch == y.min_latch &&
               x.max_latch == y.max_latch && sameBits(x.v_min, y.v_min) &&
               sameBits(x.v_max, y.v_max) && sameBits(x.v_mean, y.v_mean);
    };
    for (int c = 0; c < vn::kNumCores; ++c)
        ASSERT_TRUE(same_core(a.core[c], b.core[c])) << "core " << c;
    for (int u = 0; u < vn::kNumSharedUnits; ++u)
        ASSERT_TRUE(same_core(a.shared[u], b.shared[u])) << "unit " << u;
    ASSERT_EQ(a.failed, b.failed);
    ASSERT_TRUE(sameBits(a.failure_time, b.failure_time));
    ASSERT_EQ(a.failing_core, b.failing_core);
    ASSERT_TRUE(sameBits(a.v_floor, b.v_floor));
    ASSERT_TRUE(sameBits(a.avg_power_watts, b.avg_power_watts));
    ASSERT_TRUE(sameBits(a.duration, b.duration));
    ASSERT_EQ(a.traces.size(), b.traces.size());
    for (size_t t = 0; t < a.traces.size(); ++t) {
        ASSERT_EQ(a.traces[t].size(), b.traces[t].size()) << "trace " << t;
        for (size_t i = 0; i < a.traces[t].size(); ++i)
            ASSERT_TRUE(sameBits(a.traces[t][i], b.traces[t][i]))
                << "trace " << t << " sample " << i;
    }
}

TEST(BatchedBitIdentityTest, ChipRunBatchMatchesScalarRuns)
{
    vn::ChipModel chip;
    std::vector<std::array<vn::CoreActivity, vn::kNumCores>> workloads;
    for (int variant = 0; variant < 4; ++variant)
        workloads.push_back(waveWorkloads(chip, variant));

    vn::RunOptions options;
    options.capture_traces = true;
    options.trace_decimation = 3;

    auto batched = chip.runBatch(workloads, 2e-6, options);
    ASSERT_EQ(batched.size(), workloads.size());
    uint64_t digest = vn::runtime::kFnvOffset;
    for (const auto &r : batched)
        digest = foldChipResult(digest, r);
    EXPECT_EQ(digest, kRunBatchDigest);
    for (size_t i = 0; i < workloads.size(); ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        auto one_lane = chip.run(workloads[i], 2e-6, options);
        expectSameChipResult(one_lane, batched[i]);
        // v_floor also covers the warm-up, so it bounds every core's
        // post-warm-up v_min from below.
        for (const auto &core : one_lane.core)
            EXPECT_LE(one_lane.v_floor, core.v_min);
    }
}

TEST(BatchedBitIdentityTest, RunBatchStopOnFailureFreezesPerLane)
{
    // Deep undervolt makes heavy lanes fail early while light lanes
    // survive; every lane must still match its one-lane run
    // bit-for-bit.
    vn::ChipConfig config;
    config.bias = 0.12;
    vn::ChipModel chip(config);

    std::vector<std::array<vn::CoreActivity, vn::kNumCores>> workloads;
    for (int variant = 0; variant < 3; ++variant)
        workloads.push_back(waveWorkloads(chip, variant));
    // One all-idle lane that must not fail.
    workloads.push_back({chip.idleActivity(), chip.idleActivity(),
                         chip.idleActivity(), chip.idleActivity(),
                         chip.idleActivity(), chip.idleActivity()});

    vn::RunOptions options;
    options.stop_on_failure = true;

    auto batched = chip.runBatch(workloads, 3e-6, options);
    ASSERT_EQ(batched.size(), workloads.size());
    uint64_t digest = vn::runtime::kFnvOffset;
    for (const auto &r : batched)
        digest = foldChipResult(digest, r);
    EXPECT_EQ(digest, kStopOnFailureDigest);
    bool any_failed = false;
    for (size_t i = 0; i < workloads.size(); ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        auto one_lane = chip.run(workloads[i], 3e-6, options);
        expectSameChipResult(one_lane, batched[i]);
        any_failed = any_failed || one_lane.failed;
        // A lane frozen at its first violation keeps the floor it had
        // at that step, which is already below v_crit.
        if (one_lane.failed)
            EXPECT_LT(batched[i].v_floor, chip.criticalVoltage());
        else
            EXPECT_GE(batched[i].v_floor, chip.criticalVoltage());
    }
    EXPECT_TRUE(any_failed);
    EXPECT_FALSE(batched.back().failed);
}

TEST(BatchedBitIdentityTest, EmptyBatchReturnsNothing)
{
    vn::ChipModel chip;
    EXPECT_TRUE(chip.runBatch({}, 1e-6).empty());
}

TEST(FactorizationCacheTest, SolversShareOneFactorization)
{
    vn::Netlist net = makeLadder();
    vn::TransientSolver a(net, 1e-9);
    vn::TransientSolver b(net, 1e-9);
    EXPECT_EQ(a.factorization().get(), b.factorization().get());

    vn::TransientSolver c(net, 2e-9); // different dt, different LU
    EXPECT_NE(a.factorization().get(), c.factorization().get());
}

TEST(FactorizationCacheTest, ContentHashIgnoresNames)
{
    vn::Netlist a = makeLadder();

    vn::Netlist b;
    vn::NodeId n1 = b.addNode("renamed1");
    vn::NodeId n2 = b.addNode("renamed2");
    vn::NodeId n3 = b.addNode("renamed3");
    b.addVoltageSource(n1, vn::Netlist::ground, 1.1, "vrm");
    b.addResistor(n1, n2, 0.01, "rpkg");
    b.addInductor(n2, n3, 5e-9, "lpkg");
    b.addCapacitor(n2, vn::Netlist::ground, 1e-6, "cbulk");
    b.addCapacitor(n3, vn::Netlist::ground, 4e-6, "cdie");
    b.addResistor(n3, vn::Netlist::ground, 50.0, "rleak");
    b.addCurrentPort(n2, vn::Netlist::ground, "load_a");
    b.addCurrentPort(n3, vn::Netlist::ground, "load_b");

    EXPECT_EQ(vn::netlistContentHash(a), vn::netlistContentHash(b));
    EXPECT_TRUE(vn::netlistContentEquals(a, b));

    // Same electrical content interns to the same factorization.
    vn::TransientSolver sa(a, 1e-9);
    vn::TransientSolver sb(b, 1e-9);
    EXPECT_EQ(sa.factorization().get(), sb.factorization().get());
}

TEST(FactorizationCacheTest, ContentHashSeesValueChanges)
{
    vn::Netlist a = makeLadder();
    vn::Netlist b = makeLadder();
    b.addCapacitor(b.node("n2"), vn::Netlist::ground, 2e-6);
    EXPECT_NE(vn::netlistContentHash(a), vn::netlistContentHash(b));
    EXPECT_FALSE(vn::netlistContentEquals(a, b));
}

TEST(FactorizationCacheTest, HitAndMissCountersTrack)
{
    auto &cache = vn::FactorizationCache::global();

    // A netlist no other test uses, so the first get must miss.
    vn::Netlist net;
    vn::NodeId n1 = net.addNode("counter_probe");
    net.addVoltageSource(n1, vn::Netlist::ground, 0.77125);
    net.addResistor(n1, vn::Netlist::ground, 3.25);
    net.addCapacitor(n1, vn::Netlist::ground, 7.5e-7);
    net.addCurrentPort(n1, vn::Netlist::ground);

    size_t hits = cache.hits();
    size_t misses = cache.misses();
    auto f1 = cache.get(net, 1e-9);
    EXPECT_EQ(cache.misses(), misses + 1);
    auto f2 = cache.get(net, 1e-9);
    EXPECT_EQ(cache.hits(), hits + 1);
    EXPECT_EQ(f1.get(), f2.get());
}

TEST(FactorizationCacheTest, ConcurrentGetInternsOnePointer)
{
    // tsan target: many threads race the first get() of a fresh
    // netlist; everyone must end up with one shared factorization and
    // no data race inside the cache.
    vn::Netlist net = makeLadder();
    net.addResistor(net.node("n2"), vn::Netlist::ground, 123.456);

    constexpr int kThreads = 8;
    std::array<std::shared_ptr<const vn::Factorization>, kThreads> got;
    {
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                auto f =
                    vn::FactorizationCache::global().get(net, 1e-9);
                // Exercise the shared read-only state from every
                // thread, including the lazily built DC LU.
                vn::TransientSolver sim(f);
                std::vector<double> load(net.ports().size(), 0.1 * t);
                sim.initDcOperatingPoint(load);
                for (int s = 0; s < 50; ++s)
                    sim.step(load);
                got[static_cast<size_t>(t)] = std::move(f);
            });
        }
        for (auto &th : threads)
            th.join();
    }
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(got[0].get(), got[static_cast<size_t>(t)].get());
}

TEST(FactorizationTest, DcSingularFailsOnFirstDcUseNotConstruction)
{
    // A node reachable only through a capacitor has a singular DC
    // matrix but a fine transient one. The factorization is usable for
    // stepping; only the (lazy) DC LU must fail — the same timing the
    // eager per-run solver had.
    vn::Netlist net;
    vn::NodeId n1 = net.addNode("driven");
    vn::NodeId n2 = net.addNode("floating");
    net.addVoltageSource(n1, vn::Netlist::ground, 1.0);
    net.addCapacitor(n1, n2, 1e-6);
    net.addCurrentPort(n2, vn::Netlist::ground);

    bool prev = vn::setThrowOnError(true);
    vn::TransientSolver sim(net, 1e-9); // must not throw
    std::vector<double> load(1, 0.0);
    EXPECT_THROW(sim.initDcOperatingPoint(load), vn::FatalError);
    vn::setThrowOnError(prev);
}

TEST(BatchedTransientSolverTest, RejectsBadArguments)
{
    bool prev = vn::setThrowOnError(true);
    vn::Netlist net = makeLadder();
    EXPECT_THROW(vn::BatchedTransientSolver(net, 1e-9, 0),
                 vn::FatalError);

    vn::BatchedTransientSolver sim(net, 1e-9, 2);
    std::vector<double> wrong(net.ports().size(), 0.0); // 1 lane only
    EXPECT_THROW(sim.step(wrong), vn::FatalError);
    EXPECT_THROW(sim.nodeVoltage(2, 1), vn::FatalError);
    vn::setThrowOnError(prev);
}

} // namespace
