/**
 * @file
 * The benchmark's workload interface and the helpers the three
 * workloads share: seed derivation, registry sums over the metric
 * names a bare drive and a fleet drive publish, and output digests.
 */

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/metrics.h"
#include "spans.h"

namespace perfbench {

/** Outcome of one unit. */
struct UnitResult
{
    std::uint64_t ops = 0;    ///< operations attempted
    std::uint64_t failed = 0; ///< operations whose outputs failed a check
    /** Digest of every simulated output of the unit. */
    std::string digest;
    /** The unit's metrics-registry snapshot (the layer counts). */
    rif::metrics::Snapshot metrics;
    /** Workload-specific values the registry does not carry. */
    std::map<std::string, double> extra;
    /** One line per failed check. */
    std::vector<std::string> problems;
};

/** Host time of each part of one set-up, in seconds. */
struct SetupTimes
{
    double code = 0.0;
    double calibrate = 0.0;
    double snapshotFill = 0.0;
    double warmup = 0.0;
    double total() const { return code + calibrate + snapshotFill + warmup; }
};

/** A per-layer metric: its value, unit and the base of any ratio. */
struct LayerMetric
{
    double value = 0.0;
    std::string unit;
    std::string base; ///< e.g. "1234 / 5678"; empty for plain values
};
using LayerMetrics = std::map<std::string, LayerMetric>;

/** One benchmark workload: a fixed, seed-derived list of units. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Redo every piece of one-time work from scratch (drop caches,
     * rebuild, refill) and run one untimed warm-up unit.
     */
    virtual SetupTimes setup() = 0;

    virtual std::size_t units() const = 0;

    /** What one operation of this workload is, for the report. */
    virtual const char *operation() const = 0;

    /**
     * Run unit `i`. Without a tracer the unit goes through the public
     * entry point the paper sweeps use; with one it goes through the
     * module calls beneath it, each inside a span whose parent is
     * `unitSpan`, and must produce the same digest.
     */
    virtual UnitResult run(std::size_t i, Tracer *tracer,
                           std::int64_t unitSpan) = 0;

    /** Traced pass only: standalone layer probes for unit `i`, outside
     *  the unit's span. */
    virtual void probe(std::size_t, Tracer &) {}

    /** Units re-run at a thread budget of 1 by the spot check. */
    virtual std::vector<std::size_t> spotUnits() const { return {0, 1}; }

    /** Fill the per-layer metrics this workload exercises. */
    virtual void layerMetrics(const std::vector<UnitResult> &untraced,
                              const std::vector<UnitResult> &traced,
                              const Tracer &tracer,
                              LayerMetrics &out) const = 0;
};

std::unique_ptr<Workload> makeDriveReadRetry(std::uint64_t seed,
                                             double seconds);
std::unique_ptr<Workload> makeFleetMixedOpen(std::uint64_t seed,
                                             double seconds);
std::unique_ptr<Workload> makeLdpcMonteCarlo(std::uint64_t seed,
                                             double seconds);

/** Independent 64-bit seed for (seed, salt): splitmix64 finalizer. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/** Units for a run of `seconds` at `unitSeconds` each. */
std::size_t unitCount(double seconds, double unitSeconds);

/**
 * Sum of a counter over a bare drive ("ssd.nand.page_reads") and over
 * every fleet drive ("ssd3.nand.page_reads"); `name` is the bare-drive
 * catalog name. Names without the "ssd." prefix ("sim.events",
 * "odear.rp.predictions") gain "ssdN." inside a fleet.
 */
std::uint64_t driveCounter(const rif::metrics::Snapshot &s,
                           const std::string &name);

/** Every sample of a distribution, bare drive and fleet drives alike. */
void driveSamples(const rif::metrics::Snapshot &s, const std::string &name,
                  std::vector<double> &out);

/** Sum of a counter over the units' snapshots. */
std::uint64_t sumCounter(const std::vector<UnitResult> &units,
                         const std::string &name);

/** Nearest-rank percentile of `v` (sorted in place); 0 when empty. */
double percentile(std::vector<double> &v, double p);

/** Fold a snapshot's simulated outputs (all but cache.*) into `h`. */
void hashSnapshot(rif::Hasher &h, const rif::metrics::Snapshot &s);

/** `num / den` with its base spelled out; 0 when den is 0. */
LayerMetric ratio(double num, double den, const std::string &unit);

/** The shared per-layer metrics every drive-based workload reports:
 *  NAND/GC/retry counts, read tail, ECC wait and snapshot hits. */
void driveLayerMetrics(const std::vector<UnitResult> &units,
                       LayerMetrics &out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
