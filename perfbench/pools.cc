#include "pools.hh"

#include <cmath>
#include <cstdio>

namespace vnbench
{

namespace
{

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

std::vector<vn::SweepPointSpec>
sweepPool()
{
    std::vector<vn::SweepPointSpec> pool;
    const int n = 48;
    for (int i = 0; i < n; ++i) {
        double f = 0.5e6 * std::pow(16.0, static_cast<double>(i) / (n - 1));
        pool.push_back({f, true});
        pool.push_back({f, false});
    }
    return pool;
}

std::vector<vn::SweepPointSpec>
writePool()
{
    // A linear 12.5 kHz grid; none of its points lies on the log grid
    // of sweepPool().
    std::vector<vn::SweepPointSpec> pool;
    for (int k = 0; k < 256; ++k)
        pool.push_back({1.05e6 + 12.5e3 * k, k % 2 == 0});
    return pool;
}

std::vector<vn::Mapping>
mappingPool()
{
    std::vector<vn::Mapping> pool;
    for (int code = 0; code < 729; ++code) {
        vn::Mapping m{};
        int rest = code;
        for (int c = 0; c < vn::kNumCores; ++c) {
            m[c] = static_cast<vn::WorkloadClass>(rest % 3);
            rest /= 3;
        }
        pool.push_back(m);
    }
    return pool;
}

std::vector<vn::MarginSpec>
marginPool()
{
    std::vector<vn::MarginSpec> pool;
    for (double f : {0.3e6, 0.5e6, 0.8e6, 1.2e6, 1.8e6, 2.4e6, 3.2e6, 4.5e6})
        for (int events : {1, 10, 100, 1000, 0})
            pool.push_back({f, events});
    return pool;
}

std::vector<vn::DroopTraceSpec>
tracePool()
{
    return {
        {2.4e6, 60e-6, 0, 1},
        {2.0e6, 60e-6, 3, 1},
        {1.5e6, 60e-6, 5, 1},
    };
}

std::string
keyOf(const vn::SweepPointSpec &s)
{
    return std::string("sweep sync=") + (s.synchronized ? "1" : "0") +
           " f=" + num(s.freq_hz);
}

std::string
keyOf(const vn::Mapping &m)
{
    std::string key = "map f=" + num(kMapFreqHz) + " m=";
    for (vn::WorkloadClass c : m)
        key += static_cast<char>('0' + static_cast<int>(c));
    return key;
}

std::string
keyOf(const vn::MarginSpec &s)
{
    return "margin f=" + num(s.freq_hz) + " n=" + std::to_string(s.events) +
           " step=" + num(kBiasStep);
}

std::string
keyOf(const vn::DroopTraceSpec &s)
{
    return "trace f=" + num(s.freq_hz) + " w=" + num(s.window) +
           " core=" + std::to_string(s.core) +
           " dec=" + std::to_string(s.decimation);
}

const vn::CoreModel &
coreModel()
{
    static vn::CoreModel core;
    return core;
}

vn::AnalysisContext
analysisContext(const vn::StressmarkKit &kit)
{
    vn::AnalysisContext ctx;
    ctx.kit = &kit;
    ctx.window = 24e-6;
    ctx.unsync_draws = 4;
    ctx.consecutive_events = 1000;
    ctx.campaign.cache_dir.clear();
    return ctx;
}

} // namespace vnbench
