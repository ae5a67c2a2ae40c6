#include "core/experiment.h"

#include "common/parallel.h"
#include "core/tracing.h"

namespace rif {

namespace {

/** Label the current trace track after the run it carries. */
void
labelTrack(const ssd::SsdConfig &config, const std::string &workload)
{
    tracing::setTrackLabel(tracing::currentTrack(),
                           workload + " " +
                               ssd::policyName(config.policy));
}

} // namespace

Experiment::Experiment() = default;

Experiment &
Experiment::withPolicy(ssd::PolicyKind policy)
{
    config_.policy = policy;
    return *this;
}

Experiment &
Experiment::withPeCycles(double pe)
{
    config_.peCycles = pe;
    return *this;
}

RunResult
Experiment::run(const std::string &workload_name,
                const RunScale &scale) const
{
    trace::SyntheticWorkload source(trace::workloadByName(workload_name),
                                    scale.requests, scale.seed);
    ssd::Ssd drive(config_);
    RunResult out;
    out.workload = workload_name;
    out.policy = config_.policy;
    out.peCycles = config_.peCycles;
    labelTrack(config_, workload_name);
    metrics::MetricsScope scope;
    out.stats = drive.run(source);
    out.metrics = scope.finish();
    return out;
}

RunResult
Experiment::run(trace::TraceSource &source, const std::string &label) const
{
    ssd::Ssd drive(config_);
    RunResult out;
    out.workload = label;
    out.policy = config_.policy;
    out.peCycles = config_.peCycles;
    labelTrack(config_, label);
    metrics::MetricsScope scope;
    out.stats = drive.run(source);
    out.metrics = scope.finish();
    return out;
}

std::vector<RunResult>
parallelRuns(std::size_t n,
             const std::function<RunResult(std::size_t)> &job)
{
    std::vector<RunResult> out(n);
    parallelFor(n, [&](std::size_t i) {
        // Give each point its own trace track so events from concurrent
        // runs never interleave (and drops stay per-track deterministic).
        tracing::TrackScope track(static_cast<std::uint32_t>(i));
        out[i] = job(i);
    });
    return out;
}

const char *
versionString()
{
    return "rif 1.0.0";
}

} // namespace rif
