/**
 * @file
 * Typed experiment-campaign engine.
 *
 * A *campaign* is a batch of independent jobs (one per sweep point,
 * mapping, Vmin step, process corner, ...) producing results of one
 * type. The engine runs them over a work-stealing pool (pool.hh) with
 * three guarantees:
 *
 *  1. Determinism: each job's RNG seed is derived from the campaign
 *     seed and the job key (hash.hh), and collect() returns results
 *     in submission order — a run with N workers is bit-identical to
 *     a serial run.
 *  2. Caching: with a cache directory configured and a codec set, a
 *     finished job's result is persisted content-addressed (cache.hh)
 *     and replayed on the next campaign with an unchanged (scope,
 *     key, code version).
 *  3. Fault containment: a throwing job is retried (same seed) up to
 *     `max_attempts` total tries, then recorded as a structured
 *     failure without sinking the rest of the campaign.
 *
 * Jobs can also be queued as *lane batches* (submitBatch): one worker
 * advances K same-topology runs through a shared LU factorization at
 * once (circuit/batched.hh). Every lane keeps its own key, derived
 * seed and cache entry, so batching changes throughput only — results
 * and cache identity are bit-identical to scalar submission.
 *
 * Counters (cache hits/misses, steals, retries, failures) accumulate
 * into a CampaignStats that harnesses print alongside their tables.
 */

#ifndef VN_RUNTIME_CAMPAIGN_HH
#define VN_RUNTIME_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runtime/cache.hh"
#include "runtime/hash.hh"
#include "runtime/journal.hh"
#include "runtime/pool.hh"
#include "util/kvfile.hh"
#include "util/logging.hh"

namespace vn::runtime
{

/** Execution knobs shared by every campaign of a harness run. */
struct CampaignOptions
{
    /** Worker threads; 1 = serial (the reference behaviour). */
    int jobs = 1;

    /** Result-cache directory; empty disables caching. */
    std::string cache_dir;

    /**
     * Completion-journal directory; empty disables journaling. With a
     * journal, every finished job key is recorded append-only
     * (journal.hh) so a crashed run leaves a durable record of its
     * progress alongside the cached results.
     */
    std::string journal_dir;

    /**
     * Replay an existing journal at collect() instead of starting a
     * fresh one: journaled jobs whose cache entries verify are served
     * from the cache (counted as journal_skips), and only the genuine
     * gap — jobs never finished, or finished but torn on disk — is
     * recomputed. Requires journal_dir; results are bit-identical to
     * an uninterrupted run either way.
     */
    bool resume = false;

    /** Total tries per job (first attempt + retries). */
    int max_attempts = 2;

    /**
     * Stimulus lanes per batch job for harnesses that use
     * submitBatch() — how many same-topology runs a worker advances
     * through one shared LU factorization at a time. 1 disables
     * batching (one lane per job). Results are bit-identical for every
     * value; this is purely a throughput knob.
     */
    int lanes = 8;

    /**
     * Borrowed long-lived pool to run on instead of constructing a
     * private one (`jobs` is then ignored). Campaigns sharing a pool
     * must be serialized by the caller — Pool::wait() waits for
     * *every* task in the pool, so two interleaved campaigns would
     * wait on each other's jobs. The serving dispatcher owns exactly
     * this discipline: one batch at a time onto the daemon's pool.
     */
    Pool *pool = nullptr;

    /**
     * When set, every campaign running under these options adds its
     * counters here so the harness can print one aggregate summary.
     */
    struct CampaignStats *stats_sink = nullptr;
};

/** One contained job failure. */
struct JobFailure
{
    size_t index = 0;  //!< submission index within the campaign
    std::string key;   //!< the job key
    std::string error; //!< what() of the last attempt
    int attempts = 0;  //!< tries consumed
};

/** Aggregated campaign counters. */
struct CampaignStats
{
    size_t jobs = 0;
    size_t cache_hits = 0;
    size_t executed = 0; //!< jobs actually run (cache misses)
    size_t retries = 0;
    size_t failures = 0;
    size_t lane_batches = 0; //!< multi-lane batch jobs executed
    size_t journal_skips = 0; //!< journaled jobs replayed on resume
    size_t cache_corrupt = 0; //!< corrupt cache entries (recomputed)
    uint64_t steals = 0;
    int threads = 1; //!< largest pool that contributed

    void add(const CampaignStats &other);

    /** One-line human-readable summary for bench output. */
    std::string summary() const;
};

/**
 * A campaign producing `Result` values.
 *
 * Usage:
 *   Campaign<Point> c(options, seed, scope);
 *   c.setCodec(encodePoint, decodePoint);          // enables caching
 *   for (...) c.submit(key, [&](uint64_t seed) { return ...; });
 *   std::vector<Point> points = c.collectOrFatal();
 */
template <typename Result>
class Campaign
{
  public:
    /** Compute one result; `seed` is the job's derived RNG seed. */
    using JobFn = std::function<Result(uint64_t seed)>;
    /**
     * Compute several results in one call. `seeds[i]` is the derived
     * RNG seed of batch lane `lanes[i]` (an index into the keys passed
     * to submitBatch); the function must return seeds.size() results
     * in the same order. Only cache-miss lanes are passed in, so a
     * partially cached batch recomputes exactly the missing lanes.
     */
    using BatchFn = std::function<std::vector<Result>(
        std::span<const uint64_t> seeds, std::span<const size_t> lanes)>;
    /** Serialize a result into numeric key/value pairs. */
    using EncodeFn = std::function<void(const Result &, KeyValueFile &)>;
    /** Rebuild a result from its serialized form. */
    using DecodeFn = std::function<Result(const KeyValueFile &)>;

    /**
     * @param options execution knobs
     * @param seed    campaign seed; per-job seeds derive from it
     * @param scope   serialized shared configuration — everything the
     *                results depend on that is not in the job keys
     */
    Campaign(CampaignOptions options, uint64_t seed, std::string scope)
        : options_(std::move(options)), seed_(seed),
          scope_(std::move(scope))
    {
        if (options_.jobs < 1)
            fatal("Campaign: jobs must be >= 1");
        if (options_.max_attempts < 1)
            fatal("Campaign: max_attempts must be >= 1");
        if (options_.lanes < 1)
            fatal("Campaign: lanes must be >= 1");
    }

    /** Install the result codec; required for caching. */
    void
    setCodec(EncodeFn encode, DecodeFn decode)
    {
        encode_ = std::move(encode);
        decode_ = std::move(decode);
    }

    /** Queue a job. Keys must be unique within the campaign. */
    void
    submit(std::string key, JobFn fn)
    {
        // A scalar job is a one-lane batch; both paths share the
        // cache/retry/failure machinery in runJob().
        std::vector<std::string> keys;
        keys.push_back(std::move(key));
        submitBatch(std::move(keys),
                    [fn = std::move(fn)](std::span<const uint64_t> seeds,
                                         std::span<const size_t>) {
                        std::vector<Result> out;
                        out.reserve(seeds.size());
                        for (uint64_t s : seeds)
                            out.push_back(fn(s));
                        return out;
                    });
    }

    /**
     * Queue one batch job covering keys.size() lanes. Each lane keeps
     * its own key, derived seed, cache entry and failure slot —
     * batching changes scheduling granularity, never results or cache
     * identity. A throwing batch is retried whole (cache-miss lanes
     * only) and, once attempts are exhausted, fails every lane it was
     * computing.
     */
    void
    submitBatch(std::vector<std::string> keys, BatchFn fn)
    {
        if (keys.empty())
            fatal("Campaign::submitBatch(): empty key list");
        size_t base = next_index_;
        next_index_ += keys.size();
        pending_.push_back({std::move(keys), std::move(fn), base});
    }

    /**
     * Run every submitted job and return the results in submission
     * order; a failed job yields nullopt at its slot. Callable once
     * per batch of submissions.
     */
    std::vector<std::optional<Result>>
    collect()
    {
        std::vector<Job> jobs = std::move(pending_);
        pending_.clear();
        const size_t total = next_index_;
        next_index_ = 0;

        std::vector<std::optional<Result>> results(total);
        stats_ = CampaignStats{};
        stats_.jobs = total;
        failures_.clear();

        std::optional<ResultCache> cache;
        if (!options_.cache_dir.empty() && encode_ && decode_)
            cache.emplace(options_.cache_dir);

        std::optional<Journal> journal;
        if (!options_.journal_dir.empty())
            journal.emplace(options_.journal_dir, scope_, seed_,
                            options_.resume);

        {
            std::optional<Pool> own;
            Pool *pool = options_.pool;
            if (pool == nullptr) {
                own.emplace(options_.jobs);
                pool = &*own;
            }
            uint64_t steals_before = pool->steals();
            for (size_t i = 0; i < jobs.size(); ++i) {
                pool->submit([this, &jobs, &results, &cache, &journal,
                              i] {
                    runJob(jobs[i], results, cache, journal);
                });
            }
            pool->wait();
            stats_.steals = pool->steals() - steals_before;
            stats_.threads = pool->threads();
        }

        if (cache) {
            // The cache was constructed fresh for this collect(), so
            // its instance counters are exactly this campaign's
            // corruption encounters.
            stats_.cache_corrupt = cache->counters().corrupt;
        }
        if (journal)
            journal->sync();

        if (options_.stats_sink != nullptr)
            options_.stats_sink->add(stats_);
        return results;
    }

    /**
     * collect(), but any contained failure is re-raised as fatal()
     * with the per-job errors listed. For harnesses where a partial
     * campaign is useless.
     */
    std::vector<Result>
    collectOrFatal()
    {
        auto maybe = collect();
        if (!failures_.empty()) {
            std::string detail;
            for (const auto &f : failures_)
                detail += "\n  job '" + f.key + "' (" +
                          std::to_string(f.attempts) +
                          " attempts): " + f.error;
            fatal("Campaign: ", failures_.size(), "/", maybe.size(),
                  " jobs failed:", detail);
        }
        std::vector<Result> out;
        out.reserve(maybe.size());
        for (auto &r : maybe)
            out.push_back(std::move(*r));
        return out;
    }

    /** Counters of the last collect(). */
    const CampaignStats &stats() const { return stats_; }

    /** Contained failures of the last collect(). */
    const std::vector<JobFailure> &failures() const { return failures_; }

  private:
    struct Job
    {
        std::vector<std::string> keys;
        BatchFn fn;
        size_t base = 0; //!< submission index of keys[0]
    };

    void
    runJob(const Job &job, std::vector<std::optional<Result>> &results,
           std::optional<ResultCache> &cache,
           std::optional<Journal> &journal)
    {
        const size_t n = job.keys.size();

        // Per-lane cache probe; only the misses get computed. A lane
        // both journaled as completed and intact in the cache is a
        // resume skip; a journaled lane whose entry is gone or corrupt
        // falls through to recompute — the journal records progress,
        // the cache holds the data, and only their intersection is
        // trusted.
        std::vector<uint64_t> cache_keys(n, 0);
        std::vector<size_t> missing;
        missing.reserve(n);
        size_t hits = 0;
        size_t journal_skips = 0;
        for (size_t lane = 0; lane < n; ++lane) {
            if (cache) {
                cache_keys[lane] =
                    ResultCache::keyFor(scope_, job.keys[lane]);
                if (auto entry = cache->load(cache_keys[lane])) {
                    results[job.base + lane] = decode_(*entry);
                    ++hits;
                    if (journal && journal->contains(job.keys[lane]))
                        ++journal_skips;
                    continue;
                }
            }
            missing.push_back(lane);
        }
        if (hits > 0) {
            std::lock_guard<std::mutex> lock(mutex_);
            stats_.cache_hits += hits;
            stats_.journal_skips += journal_skips;
        }
        if (missing.empty())
            return;

        // Seeds derive from (campaign seed, lane key) exactly as for
        // scalar jobs, so a batched campaign is bit-identical to a
        // serial one job at a time.
        std::vector<uint64_t> seeds;
        seeds.reserve(missing.size());
        for (size_t lane : missing)
            seeds.push_back(deriveSeed(seed_, job.keys[lane]));

        std::string error;
        for (int attempt = 1; attempt <= options_.max_attempts;
             ++attempt) {
            try {
                std::vector<Result> out = job.fn(seeds, missing);
                if (out.size() != missing.size())
                    throw std::runtime_error(
                        "batch returned " + std::to_string(out.size()) +
                        " results for " + std::to_string(missing.size()) +
                        " lanes");
                for (size_t m = 0; m < missing.size(); ++m) {
                    if (cache) {
                        KeyValueFile entry;
                        encode_(out[m], entry);
                        cache->store(cache_keys[missing[m]], entry);
                    }
                    // Journal after the entry is published: a key is
                    // recorded completed only once its result is
                    // (durably) loadable, so resume never trusts a
                    // record ahead of its data.
                    if (journal)
                        journal->append(job.keys[missing[m]]);
                    results[job.base + missing[m]] = std::move(out[m]);
                }
                std::lock_guard<std::mutex> lock(mutex_);
                stats_.executed += missing.size();
                stats_.retries += static_cast<size_t>(attempt - 1);
                if (missing.size() > 1)
                    ++stats_.lane_batches;
                return;
            } catch (const std::exception &e) {
                error = e.what();
            } catch (...) {
                error = "unknown exception";
            }
        }

        std::lock_guard<std::mutex> lock(mutex_);
        stats_.executed += missing.size();
        stats_.retries +=
            static_cast<size_t>(options_.max_attempts - 1);
        stats_.failures += missing.size();
        for (size_t lane : missing) {
            failures_.push_back({job.base + lane, job.keys[lane], error,
                                 options_.max_attempts});
        }
    }

    CampaignOptions options_;
    uint64_t seed_;
    std::string scope_;
    EncodeFn encode_;
    DecodeFn decode_;

    std::vector<Job> pending_;
    size_t next_index_ = 0; //!< submission index of the next lane
    std::mutex mutex_; //!< guards stats_ and failures_ during collect
    CampaignStats stats_;
    std::vector<JobFailure> failures_;
};

} // namespace vn::runtime

#endif // VN_RUNTIME_CAMPAIGN_HH
