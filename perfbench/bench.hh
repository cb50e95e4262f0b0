/**
 * @file
 * Shared pieces of the vnoise benchmark: wall clock, the
 * in-memory span recorder, result digests, percentiles, and the metric
 * report every workload fills in.
 *
 * The benchmark only calls the library through its public headers. Spans
 * are recorded around those calls (never inside src/), kept in memory,
 * and written out when the process ends.
 */

#ifndef VNBENCH_BENCH_HH
#define VNBENCH_BENCH_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/mapping.hh"
#include "analysis/margins.hh"
#include "analysis/serving.hh"
#include "analysis/sweeps.hh"

namespace vnbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------- spans

/** One recorded span; times are ns since the tracer's epoch. */
struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0; //!< 0 = root
    uint64_t request = 0; //!< 0 = not tied to a served request
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
};

/**
 * Process-wide span recorder. Disabled (the untraced runs) it costs one
 * relaxed load per scope. Spans nest per thread: a scope opened while
 * another is open on the same thread becomes its child.
 */
class Tracer
{
  public:
    static Tracer &instance();

    void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /** Spans recorded so far (copy). */
    std::vector<Span> spans() const;

    /** Write every span as one JSON object per line. */
    void writeJsonl(const std::string &path) const;

    /** Sum of durations (ms) of spans named `name`. */
    double totalMs(const std::string &name) const;

    /** Per span name: count, total ms and self ms, where a span's self
     *  time is its duration minus the union of its children's
     *  intervals. */
    struct Summary
    {
        size_t count = 0;
        double total_ms = 0.0;
        double self_ms = 0.0;
    };
    std::map<std::string, Summary> summarize() const;

  private:
    friend class Scope;
    uint64_t open(int64_t *start_ns);
    void close(uint64_t id, uint64_t parent, uint64_t request,
               const std::string &name, int64_t start_ns);
    int64_t nowNs() const;

    std::atomic<bool> enabled_{false};
    std::atomic<uint64_t> next_id_{1};
    Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_; //!< guarded by mutex_
};

/** RAII span around one call into a layer. */
class Scope
{
  public:
    explicit Scope(const char *name, uint64_t request = 0);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    std::string name_;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    uint64_t request_ = 0;
    int64_t start_ns_ = 0;
};

// -------------------------------------------------------------- digests

/**
 * FNV-1a over the bit patterns of a result's decoded values (not any
 * text form), so a wire or cache format change that keeps every value
 * keeps the digest, and any change to a simulated statistic breaks it.
 */
uint64_t digestOf(const vn::FreqSweepPoint &p);
uint64_t digestOf(const vn::MappingResult &r);
uint64_t digestOf(const vn::MarginPoint &p);
uint64_t digestOf(const vn::DroopTrace &t);

std::string hex64(uint64_t v);

// ------------------------------------------------------------ statistics

/** Linear-interpolated percentile (p in [0, 100]); 0 when empty. */
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

// ---------------------------------------------------------------- report

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    size_t samples = 0; //!< observations behind the value
    std::string note;   //!< e.g. "derived", "base=..."
};

/** Everything a run reports; printed as a table plus the JSON line. */
struct Report
{
    std::map<std::string, Metric> metrics;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool correct = true;
    std::vector<std::string> problems; //!< why `correct` is false

    void set(const std::string &name, double value, const std::string &unit,
             size_t samples = 1, const std::string &note = "");
    void fail(const std::string &why);
};

// --------------------------------------------------------------- context

/** Settings shared by every workload of one invocation. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string run_dir;     //!< fresh per run; caches live under it
    std::string golden_path; //!< golden digests kept with the benchmark
    std::string kit_memo;    //!< stressmark-kit memo built this invocation
};

/** Golden digests, keyed by pool item ("sweep sync=1 f=..."). */
class Golden
{
  public:
    bool load(const std::string &path);
    /** Digest for `key`, or empty when the item has none. */
    std::string find(const std::string &key) const;
    void put(const std::string &key, uint64_t digest);
    void save(const std::string &path) const;
    size_t size() const { return digests_.size(); }

  private:
    std::map<std::string, std::string> digests_;
};

/**
 * Check one result digest against its golden entry. A missing golden
 * entry is itself a failure: every pool item has one.
 */
bool checkGolden(const Golden &golden, const std::string &key,
                 uint64_t digest, Report &report);

} // namespace vnbench

#endif // VNBENCH_BENCH_HH
