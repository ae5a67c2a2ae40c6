/**
 * @file
 * Host-time benchmark driver for the RiF simulator. One process runs
 * one workload at a fixed thread budget of 2: it sets up (several
 * times, reporting the median), times a fixed, seed-derived list of
 * units, checks every unit's outputs, re-runs a few units at a budget
 * of 1 to compare output digests, and prints the end-to-end metrics.
 * With --trace 1 it runs half the units, each once untraced and once
 * with a span around every module call, and prints the per-layer
 * metrics it measured instead; perfbench/run.py completes that set with
 * the layers the workload does not run. The last line of standard
 * output is one JSON object: {"correct", "attempted", "failed",
 * "metrics"}.
 *
 *   perfbench --workload drive_read_retry --seed 1 --seconds 20 --trace 0
 */

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "spans.h"
#include "workload.h"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using namespace perfbench;

constexpr int kThreads = 2;
/** Set-ups per untraced run; setup_s is their median. */
constexpr std::size_t kSetupReps = 15;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string spansDir = ".bench_out";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans-dir DIR]\n"
                 "workloads: drive_read_retry fleet_mixed_open "
                 "ldpc_montecarlo\n";
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                o.workload = v;
            else if (a == "--seed")
                o.seed = std::stoull(v);
            else if (a == "--seconds")
                o.seconds = std::stod(v);
            else if (a == "--trace")
                o.trace = std::stoi(v) != 0;
            else if (a == "--spans-dir")
                o.spansDir = v;
            else
                usage("unknown option " + a);
        } catch (const std::exception &) {
            usage("bad value for " + a + ": " + v);
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The highest standard percentile that has at least ten samples beyond
 * it (nearest rank); 0 when even p75 has fewer.
 */
double
tailPercentile(std::size_t n)
{
    for (double p : {99.9, 99.0, 95.0, 90.0, 80.0, 75.0}) {
        const auto rank =
            static_cast<std::size_t>(std::ceil(p / 100.0 * double(n)));
        if (n - rank >= 10)
            return p;
    }
    return 0.0;
}

std::size_t
beyond(std::size_t n, double p)
{
    return n - static_cast<std::size_t>(std::ceil(p / 100.0 * double(n)));
}

void
printMetric(const std::string &name, const LayerMetric &m)
{
    std::printf("  %-30s %.6g %s", name.c_str(), m.value, m.unit.c_str());
    if (!m.base.empty())
        std::printf("   (%s)", m.base.c_str());
    std::printf("\n");
}

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<std::pair<std::string, LayerMetric>> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].first.c_str(),
                    metrics[i].second.value, metrics[i].second.unit.c_str());
    std::printf("}}\n");
}

int
run(const Options &o)
{
    std::unique_ptr<Workload> wl;
    if (o.workload == "drive_read_retry")
        wl = makeDriveReadRetry(o.seed, o.seconds);
    else if (o.workload == "fleet_mixed_open")
        wl = makeFleetMixedOpen(o.seed, o.seconds);
    else if (o.workload == "ldpc_montecarlo")
        wl = makeLdpcMonteCarlo(o.seed, o.seconds);
    else
        usage("unknown workload " + o.workload);

    const std::size_t units = wl->units();
    const double tailP = tailPercentile(units);
    if (tailP == 0.0) {
        std::cerr << "perfbench: refusing " << units << " units: unit_ms_tail "
                  << "needs at least 10 samples beyond p75\n";
        return 3;
    }
    // The traced run runs the first half of the list twice.
    const std::size_t timed = o.trace ? (units + 1) / 2 : units;

    std::printf("host: cores=%u cpu=\"%s\" compiler=\"%s\" flags=\"%s\" "
                "thread_budget=%d\n",
                std::thread::hardware_concurrency(), cpuModel().c_str(),
                __VERSION__, PERFBENCH_CXX_FLAGS, kThreads);
    std::printf("workload %s seed %llu: %zu units (%zu timed), operation = "
                "%s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                units, timed, wl->operation());

    // ---- set-up, repeated; the median is setup_s. The first set-up
    // precedes the first timed unit. The others are spread evenly
    // between the timed units, outside their timing, so the median
    // samples the same stretches of host speed as the units do. -------
    std::vector<double> total, code, calib, fill;
    const std::size_t reps = o.trace ? 1 : kSetupReps;
    auto setUp = [&] {
        const SetupTimes t = wl->setup();
        std::printf("setup %zu: %.4f s (code %.4f, calibrate %.4f, snapshot "
                    "fill %.4f, warm-up unit %.4f)\n",
                    total.size(), t.total(), t.code, t.calibrate,
                    t.snapshotFill, t.warmup);
        total.push_back(t.total());
        code.push_back(t.code);
        calib.push_back(t.calibrate);
        fill.push_back(t.snapshotFill);
    };

    // ---- timed units; with --trace 1 each is followed by its traced
    // twin, so the tracing overhead compares neighbouring runs ---------
    Tracer tracer;
    std::vector<UnitResult> results, traced;
    std::vector<double> unitMs;
    double wall = 0.0, cpu = 0.0;
    for (std::size_t i = 0; i < timed; ++i) {
        // Set-up k runs before unit ceil(k * timed / reps).
        while (total.size() < reps && total.size() * timed <= i * reps)
            setUp();
        const double c0 = cpuSeconds();
        const std::int64_t t0 = nowNs();
        results.push_back(wl->run(i, nullptr, -1));
        const std::int64_t t1 = nowNs();
        cpu += cpuSeconds() - c0;
        wall += static_cast<double>(t1 - t0) * 1e-9;
        unitMs.push_back(static_cast<double>(t1 - t0) * 1e-6);
        if (!o.trace)
            continue;
        {
            Span unit(&tracer, "bench", "unit", -1,
                      static_cast<std::int64_t>(i));
            traced.push_back(wl->run(i, &tracer, unit.id()));
        }
        wl->probe(i, tracer);
    }
    const double rss = peakRssMb();

    std::uint64_t attempted = 0, failed = 0;
    bool correct = true;
    rif::Hasher all;
    for (std::size_t i = 0; i < results.size(); ++i) {
        attempted += results[i].ops;
        failed += results[i].failed;
        all.add(results[i].digest);
        for (const std::string &p : results[i].problems) {
            correct = false;
            std::printf("CHECK FAILED unit %zu: %s\n", i, p.c_str());
        }
    }
    std::printf("checks: %zu units, %llu of %llu operations passed\n",
                results.size(),
                static_cast<unsigned long long>(attempted - failed),
                static_cast<unsigned long long>(attempted));
    std::printf("digest %s seed %llu units %zu: %s\n", o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), timed,
                all.finish().hex().c_str());

    // ---- thread-invariance spot check, outside the timed units --------
    rif::setGlobalThreadCount(1);
    for (std::size_t i : wl->spotUnits()) {
        if (i >= timed)
            continue;
        const bool same = wl->run(i, nullptr, -1).digest == results[i].digest;
        correct = correct && same;
        std::printf("spot check unit %zu at 1 thread: digest %s\n", i,
                    same ? "matches" : "DIFFERS");
    }
    rif::setGlobalThreadCount(kThreads);

    if (!o.trace) {
        std::sort(unitMs.begin(), unitMs.end());
        std::vector<double> tailV = unitMs;
        const double tail = percentile(tailV, tailP);
        const std::vector<std::pair<std::string, LayerMetric>> e2e = {
            {"setup_s", {median(total), "s", ""}},
            {"wall_s", {wall, "s", ""}},
            {"ops_per_s",
             {static_cast<double>(attempted - failed) / wall, "1/s", ""}},
            {"unit_ms_p50", {median(unitMs), "ms", ""}},
            {"unit_ms_tail", {tail, "ms", ""}},
            {"cpu_s", {cpu, "s", ""}},
            {"peak_rss_mb", {rss, "MiB", ""}},
            {"ops_ok_ratio",
             ratio(static_cast<double>(attempted - failed),
                   static_cast<double>(attempted), "ratio")},
        };
        std::printf("unit_ms_tail is p%g over %zu units (%zu samples beyond "
                    "it); ops_per_s counts %llu completed operations\n",
                    tailP, unitMs.size(), beyond(unitMs.size(), tailP),
                    static_cast<unsigned long long>(attempted - failed));
        std::printf("end-to-end metrics (%s):\n", o.workload.c_str());
        for (const auto &[name, m] : e2e)
            printMetric(name, m);
        std::fflush(stdout);
        printJson(correct, attempted, failed, e2e);
        return 0;
    }

    std::size_t matched = 0;
    for (std::size_t i = 0; i < timed; ++i)
        matched += traced[i].digest == results[i].digest;
    correct = correct && matched == timed;
    std::printf("traced pass: %zu of %zu units reproduce the untraced "
                "digest\n",
                matched, timed);

    LayerMetrics layers;
    wl->layerMetrics(results, traced, tracer, layers);
    layers["parallel.cpu_per_wall"] = ratio(cpu, wall, "ratio");
    layers["core.setup.code_ms"] = {1e3 * median(code), "ms", ""};
    layers["core.setup.calibrate_ms"] = {1e3 * median(calib), "ms", ""};
    layers["core.setup.snapshot_fill_ms"] = {1e3 * median(fill), "ms", ""};
    for (const auto &[layer, s] : tracer.selfSeconds())
        layers["self_s." + layer] = {s, "s", ""};
    layers["tracing.overhead_s"] = {tracer.totalSeconds("unit") - wall, "s",
                                    "traced minus untraced wall, same units"};

    const std::string path = o.spansDir + "/spans-" + o.workload + "-" +
                             std::to_string(o.seed) + ".jsonl";
    mkdir(o.spansDir.c_str(), 0755);
    std::printf("spans: %zu written to %s%s\n", tracer.spans().size(),
                path.c_str(), tracer.write(path) ? "" : " (FAILED)");
    std::printf("per-layer metrics (%s, traced):\n", o.workload.c_str());
    std::vector<std::pair<std::string, LayerMetric>> out(layers.begin(),
                                                         layers.end());
    for (const auto &[name, m] : out)
        printMetric(name, m);
    std::fflush(stdout);
    printJson(correct, attempted, failed, out);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    // A fixed budget: RIF_THREADS in the environment is ignored.
    rif::setGlobalThreadCount(kThreads);
    return run(o);
}
