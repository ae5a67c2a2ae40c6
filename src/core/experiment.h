/**
 * @file
 * High-level experiment facade — the public API most users of the
 * library interact with. An Experiment binds an SSD configuration
 * (policy + wear state) to a workload and produces the statistics the
 * paper's figures report; parallelRuns() runs independent points of a
 * sweep (policies, P/E cycles, workloads) in parallel the way the
 * evaluation section's figures need.
 */

#ifndef RIF_CORE_EXPERIMENT_H
#define RIF_CORE_EXPERIMENT_H

#include <functional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "ssd/ssd.h"
#include "trace/trace.h"

namespace rif {

/** Workload scale knobs shared by benches, examples and tests. */
struct RunScale
{
    std::uint64_t requests = 20000; ///< trace length per run
    std::uint64_t seed = 99;
};

/** One (policy, P/E, workload) simulation outcome. */
struct RunResult
{
    std::string workload;
    ssd::PolicyKind policy = ssd::PolicyKind::Rif;
    double peCycles = 0.0;
    ssd::SsdStats stats;
    /**
     * The run's metrics registry snapshot (channel ticks, latency
     * distributions, retry/prediction counters, ...); the figure
     * scenarios read their numbers from here. Also folded into any
     * enclosing MetricsScope (e.g. the scenario's --metrics scope).
     */
    metrics::Snapshot metrics;

    double bandwidthMBps() const { return stats.ioBandwidthMBps(); }
};

/** Facade for configuring and running simulations. */
class Experiment
{
  public:
    /** Start from the paper's Table I defaults. */
    Experiment();

    /** Access and adjust the underlying configuration. */
    ssd::SsdConfig &config() { return config_; }
    const ssd::SsdConfig &config() const { return config_; }

    /** Select the read-retry policy. */
    Experiment &withPolicy(ssd::PolicyKind policy);

    /** Set the wear operating point. */
    Experiment &withPeCycles(double pe);

    /** Run a named paper workload (Table II). */
    RunResult run(const std::string &workload_name,
                  const RunScale &scale = RunScale{}) const;

    /** Run any trace source. */
    RunResult run(trace::TraceSource &source,
                  const std::string &label = "custom") const;

  private:
    ssd::SsdConfig config_;
};

/**
 * Run `n` independent simulation points in parallel and collect their
 * results in index order. `job(i)` must be self-contained — build its
 * own Experiment / Ssd / trace from `i` alone — so the output is
 * bit-identical for any RIF_THREADS setting. This is the harness behind
 * the threaded figure and ablation sweeps.
 */
std::vector<RunResult> parallelRuns(
    std::size_t n, const std::function<RunResult(std::size_t)> &job);

/** Library version string. */
const char *versionString();

} // namespace rif

#endif // RIF_CORE_EXPERIMENT_H
