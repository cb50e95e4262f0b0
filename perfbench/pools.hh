/**
 * @file
 * The finite input pools every workload draws from, and the analysis
 * context they run under. Pools are finite so that every item has a
 * golden digest (golden.json): a seed only chooses among items, it
 * never invents inputs the golden file does not cover.
 */

#ifndef VNBENCH_POOLS_HH
#define VNBENCH_POOLS_HH

#include <algorithm>
#include <iterator>
#include <numeric>
#include <string>
#include <vector>

#include "analysis/context.hh"
#include "analysis/mapping.hh"
#include "analysis/margins.hh"
#include "analysis/serving.hh"
#include "analysis/sweeps.hh"
#include "uarch/core.hh"
#include "util/rng.hh"

namespace vnbench
{

/** Stimulus frequency of every mapping score (the paper's 2 MHz). */
inline constexpr double kMapFreqHz = 2e6;
/** Undervolt step of every Vmin cell (the service element's 0.5%). */
inline constexpr double kBiasStep = 0.005;

/** Sweep points read hot by the serving workloads and run cold by
 *  sweep_cold: 48 log-spaced frequencies, synchronized and free. */
std::vector<vn::SweepPointSpec> sweepPool();
/** Distinct sweep points the serving workloads write cold; disjoint
 *  from sweepPool() so a write never hits a warmed entry. */
std::vector<vn::SweepPointSpec> writePool();
/** All 3^6 workload-to-core mappings. */
std::vector<vn::Mapping> mappingPool();
/** (frequency, consecutive events) Vmin cells. */
std::vector<vn::MarginSpec> marginPool();
/** 60k-sample droop traces (undecimated 60 us captures). */
std::vector<vn::DroopTraceSpec> tracePool();

std::string keyOf(const vn::SweepPointSpec &s);
std::string keyOf(const vn::Mapping &m);
std::string keyOf(const vn::MarginSpec &s);
std::string keyOf(const vn::DroopTraceSpec &s);

/** The shared core model (the kit keeps a reference to it). */
const vn::CoreModel &coreModel();

/** Harness configuration of every workload (the figure benches'
 *  defaults: 24 us window, 4 free-running draws, seed 42). */
vn::AnalysisContext analysisContext(const vn::StressmarkKit &kit);

/**
 * Seeded draws without replacement from a pool, reshuffled each time it
 * is used up. A run of whole cycles covers every item equally often,
 * so a run's cost barely depends on its seed while its inputs do.
 */
template <typename T>
class Deck
{
  public:
    explicit Deck(std::vector<T> pool) : pool_(std::move(pool)) {}

    /** `n` distinct items (n <= pool size). */
    std::vector<T>
    draw(size_t n, vn::Rng &rng)
    {
        std::vector<size_t> picked;
        while (picked.size() < n) {
            if (next_ == order_.size()) {
                order_.resize(pool_.size());
                std::iota(order_.begin(), order_.end(), 0);
                for (size_t i = order_.size(); i > 1; --i)
                    std::swap(order_[i - 1], order_[rng.next() % i]);
                next_ = 0;
            }
            size_t item = order_[next_++];
            // Across a reshuffle an item can come up twice in one draw;
            // it moves to the end of the new cycle instead.
            if (std::find(picked.begin(), picked.end(), item) != picked.end())
                order_.push_back(item);
            else
                picked.push_back(item);
        }
        std::vector<T> out;
        for (size_t i : picked)
            out.push_back(pool_[i]);
        return out;
    }

  private:
    std::vector<T> pool_;
    std::vector<size_t> order_;
    size_t next_ = 0;
};

template <typename T, typename Pred>
std::vector<T>
filtered(const std::vector<T> &pool, Pred keep)
{
    std::vector<T> out;
    std::copy_if(pool.begin(), pool.end(), std::back_inserter(out), keep);
    return out;
}

} // namespace vnbench

#endif // VNBENCH_POOLS_HH
