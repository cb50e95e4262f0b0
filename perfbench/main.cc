/**
 * @file
 * vnbench: one run of one benchmark workload.
 *
 *   vnbench --workload W --seed N --seconds S --trace 0|1
 *           --run-dir DIR --golden FILE [--commit C --src-digest D]
 *   vnbench --regen-golden FILE --run-dir DIR
 *
 * perfbench/run.py builds this binary and is the command to use. A run
 * builds the stressmark-kit memo first (stressmark.kit_build_s), then
 * hands over to the workload, prints one line per metric (name, value,
 * unit, sample count) and, last, the JSON result line.
 */

#include <cpuid.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "pools.hh"
#include "service/json.hh"
#include "util/logging.hh"
#include "workloads.hh"

#ifndef VNBENCH_BUILD_TYPE
#define VNBENCH_BUILD_TYPE "unknown"
#endif
#ifndef VNBENCH_CXX_FLAGS
#define VNBENCH_CXX_FLAGS "unknown"
#endif

namespace
{

using vnbench::Clock;

std::string
cpuModel()
{
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004)
        return "unknown";
    for (unsigned i = 0; i < 3; ++i)
        __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    size_t a = s.find_first_not_of(' ');
    return a == std::string::npos ? "unknown" : s.substr(a);
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

/**
 * The kit memo, built once per invocation before any run. The search
 * budget is reduced from StressmarkKit::standard() (fewer instructions
 * per IPC evaluation, four search threads); it discovers the same
 * sequences, which golden.json pins.
 */
double
buildKitMemo(const std::string &path)
{
    Clock::time_point t0 = Clock::now();
    vn::StressmarkKitParams params;
    params.epi_reps = 600;
    params.search.ipc_filter_keep = 64;
    params.search.ipc_eval_instrs = 60;
    params.search.power_eval_instrs = 1200;
    params.search.jobs = vnbench::kColdJobs;
    vn::StressmarkKit kit(vnbench::coreModel(), params);
    kit.saveCache(path);
    return vnbench::secondsSince(t0);
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: vnbench --workload W --seed N --seconds S "
                 "--trace 0|1 --run-dir DIR --golden FILE\n"
                 "       vnbench --regen-golden FILE --run-dir DIR\n");
}

bool
knownWorkload(const std::string &w)
{
    return w == "sweep_cold" || w == "margin_cold" || w == "serve_mixed" ||
           w == "fleet_mixed";
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    vnbench::Options options;
    std::string regen, commit = "unknown", src_digest = "unknown";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        std::string value = argv[++i];
        if (arg == "--workload")
            options.workload = value;
        else if (arg == "--seed")
            options.seed = std::stoull(value);
        else if (arg == "--seconds")
            options.seconds = std::stod(value);
        else if (arg == "--trace")
            options.trace = value == "1";
        else if (arg == "--run-dir")
            options.run_dir = value;
        else if (arg == "--golden")
            options.golden_path = value;
        else if (arg == "--regen-golden")
            regen = value;
        else if (arg == "--commit")
            commit = value;
        else if (arg == "--src-digest")
            src_digest = value;
        else {
            usage();
            return 2;
        }
    }
    if (options.run_dir.empty() ||
        (regen.empty() && (!knownWorkload(options.workload) ||
                           options.golden_path.empty() ||
                           !(options.seconds > 0.0)))) {
        usage();
        return 2;
    }

    // Library errors become exceptions the workloads count as failures.
    vn::setThrowOnError(true);
    vn::setQuiet(true);
    std::filesystem::create_directories(options.run_dir);
    options.kit_memo =
        (std::filesystem::path(options.run_dir) / "kit.memo").string();

    try {
        double kit_build_s = buildKitMemo(options.kit_memo);
        if (!regen.empty())
            return vnbench::regenerateGolden(options, regen);

        vnbench::Golden golden;
        if (!golden.load(options.golden_path)) {
            std::fprintf(stderr, "vnbench: cannot read %s\n",
                         options.golden_path.c_str());
            return 1;
        }

        vnbench::Report report;
        if (options.workload == "sweep_cold" ||
            options.workload == "margin_cold")
            vnbench::runCold(options, golden, report);
        else
            vnbench::runServe(options, golden, report);

        double error_rate =
            report.attempted == 0
                ? 1.0
                : static_cast<double>(report.failed) /
                      static_cast<double>(report.attempted);
        if (options.trace) {
            report.set("stressmark.kit_build_s", kit_build_s, "s");
            report.set("bench.error_rate", error_rate, "ratio",
                       report.attempted);
            report.set("bench.peak_rss_mb", peakRssMb(), "MB", 1,
                       "traced run, spans included");
            vnbench::Tracer::instance().writeJsonl(
                (std::filesystem::path(options.run_dir) / "spans.jsonl")
                    .string());
        }
        if (report.failed > 0)
            report.fail(std::to_string(report.failed) + " of " +
                        std::to_string(report.attempted) +
                        " operations failed or mismatched");

        // Run metadata: numbers from different build types or machines
        // must never be compared.
        using vn::service::Json;
        Json meta = Json::object();
        meta.set("workload", Json::str(options.workload));
        meta.set("seed", Json::number(static_cast<double>(options.seed)));
        meta.set("seconds", Json::number(options.seconds));
        meta.set("trace", Json::boolean(options.trace));
        meta.set("build_type", Json::str(VNBENCH_BUILD_TYPE));
        meta.set("cxx_flags", Json::str(VNBENCH_CXX_FLAGS));
        meta.set("cpu", Json::str(cpuModel()));
        meta.set("nproc", Json::number(static_cast<double>(
                              std::thread::hardware_concurrency())));
        meta.set("commit", Json::str(commit));
        meta.set("src_digest", Json::str(src_digest));
        // The repository holds no silicon measurements to compare with.
        meta.set("model", Json::str("unvalidated: no hardware reference data, "
                                    "no error figure"));
        std::printf("meta %s\n", meta.dump().c_str());
        for (const std::string &p : report.problems)
            std::printf("problem %s\n", p.c_str());
        for (const auto &[name, sum] : vnbench::Tracer::instance().summarize())
            std::printf("span   %-36s n=%-6zu total %12.3f ms  self %12.3f ms\n",
                        name.c_str(), sum.count, sum.total_ms, sum.self_ms);

        std::string metrics;
        for (const auto &[name, m] : report.metrics) {
            if (!std::isfinite(m.value)) {
                report.fail("metric " + name + " is not finite");
                continue;
            }
            std::printf("metric %-36s %16.6f %-6s n=%-8zu %s\n", name.c_str(),
                        m.value, m.unit.c_str(), m.samples, m.note.c_str());
            metrics += (metrics.empty() ? "" : ", ") +
                       Json::str(name).dump() + ": {\"value\": " +
                       number(m.value) + ", \"unit\": " +
                       Json::str(m.unit).dump() + "}";
        }
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                    "\"metrics\": {%s}}\n",
                    report.correct ? "true" : "false",
                    static_cast<unsigned long long>(report.attempted),
                    static_cast<unsigned long long>(report.failed),
                    metrics.c_str());
        std::fflush(stdout);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "vnbench: %s\n", e.what());
        return 1;
    }
}
