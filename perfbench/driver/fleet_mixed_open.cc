/**
 * @file
 * fleet_mixed_open: an 8-drive fleet with 2-way replicated placement
 * replaying the Sys0 mix (70 % reads, so writes program two drives and
 * trigger GC) under Poisson arrivals, open loop in simulated time, at
 * one fixed offered rate below the knee. Units alternate RiF and CONV.
 */

#include <memory>

#include "fabric/fleet.h"
#include "ssd/arrival.h"
#include "ssd/snapshot_cache.h"
#include "trace/workload.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace rif;

constexpr std::uint64_t kRequests = 20000;
constexpr double kPeCycles = 2000.0;
constexpr double kRateKiops = 50.0;
constexpr int kHostQueue = 256;
/** Host seconds per unit at a thread budget of 2 (sets the unit count). */
constexpr double kUnitSeconds = 0.33;

class FleetMixedOpen final : public Workload
{
  public:
    FleetMixedOpen(std::uint64_t seed, double seconds)
        : seed_(seed), units_(unitCount(seconds, kUnitSeconds))
    {
        fc_.drives = 8;
        fc_.placement = fabric::PlacementKind::Replicated;
        fc_.replicas = 2;
        fc_.qd = 64;
        wc_.arrival = "poisson";
        wc_.rateKiops = kRateKiops;
        wc_.queueCap = kHostQueue;
    }

    std::size_t units() const override { return units_; }
    const char *operation() const override
    {
        return "host command completed (a dropped command fails)";
    }

    SetupTimes
    setup() override
    {
        SetupTimes t;
        ssd::FtlSnapshotCache::instance().clear();
        // A short replay on the unit configuration preconditions all
        // eight drives, which fills one snapshot per drive.
        std::int64_t t0 = nowNs();
        {
            const auto source = openSource(0, 64);
            const auto arrival = ssd::makeArrivalPolicy(workload(0), fc_.qd);
            fabric::Fleet fleet(config(0), fc_);
            fleet.run(*source, *arrival);
        }
        t.snapshotFill = static_cast<double>(nowNs() - t0) * 1e-9;
        t0 = nowNs();
        run(0, nullptr, -1);
        t.warmup = static_cast<double>(nowNs() - t0) * 1e-9;
        return t;
    }

    UnitResult
    run(std::size_t i, Tracer *tracer, std::int64_t unitSpan) override
    {
        std::unique_ptr<trace::TraceSource> source;
        {
            Span s(tracer, "trace", "trace.openWorkload", unitSpan, i);
            source = openSource(i, kRequests);
        }
        std::unique_ptr<ssd::ArrivalPolicy> arrival;
        {
            Span s(tracer, "ssd", "ssd.makeArrivalPolicy", unitSpan, i);
            arrival = ssd::makeArrivalPolicy(workload(i), fc_.qd);
        }
        std::unique_ptr<fabric::Fleet> fleet;
        {
            Span s(tracer, "fabric", "fabric.Fleet", unitSpan, i);
            fleet = std::make_unique<fabric::Fleet>(config(i), fc_);
        }
        metrics::MetricsScope scope;
        fabric::FleetStats fs;
        {
            Span s(tracer, "fabric", "fabric.Fleet::run", unitSpan, i);
            fs = fleet->run(*source, *arrival);
        }
        metrics::Snapshot snap = scope.finish();
        {
            Span s(tracer, "fabric", "fabric.~Fleet", unitSpan, i);
            fleet.reset();
        }

        UnitResult r;
        const ssd::ArrivalStats &as = arrival->stats();
        r.ops = as.offered;
        r.failed = as.dropped;
        if (as.offered != kRequests)
            r.problems.push_back("offered " + std::to_string(as.offered) +
                                 " of " + std::to_string(kRequests));
        if (fs.commands + as.dropped != as.offered) {
            r.problems.push_back("completed + dropped != offered");
            r.failed = r.ops;
        }
        r.extra["drive_events"] = static_cast<double>(fs.driveEvents);
        r.extra["host_events"] = static_cast<double>(fs.hostEvents);

        Hasher h;
        hashSnapshot(h, snap);
        h.add(fs.makespan);
        h.add(fs.commands);
        h.add(fs.syncRounds);
        h.add(fs.driveEvents);
        h.add(fs.hostEvents);
        h.add(as.offered);
        h.add(as.dropped);
        h.add(as.enqueued);
        r.digest = h.finish().hex();
        r.metrics = std::move(snap);
        return r;
    }

    void
    probe(std::size_t i, Tracer &tracer) override
    {
        const auto source = openSource(i, kRequests);
        Span s(&tracer, "trace", "trace.drain", -1, -1);
        trace::IoRecord rec;
        while (source->next(rec))
            ++drained_;
    }

    void
    layerMetrics(const std::vector<UnitResult> &untraced,
                 const std::vector<UnitResult> &, const Tracer &tracer,
                 LayerMetrics &out) const override
    {
        driveLayerMetrics(untraced, out);
        const double run = tracer.totalSeconds("fabric.Fleet::run");
        double driveEv = 0, hostEv = 0;
        for (const UnitResult &u : untraced) {
            driveEv += u.extra.at("drive_events");
            hostEv += u.extra.at("host_events");
        }
        const auto rounds =
            static_cast<double>(sumCounter(untraced, "fabric.sync_rounds"));
        const auto offered = static_cast<double>(
            sumCounter(untraced, "host.arrival.offered"));
        std::vector<double> reads;
        for (const UnitResult &u : untraced)
            if (const auto *e = u.metrics.find("fabric.read_latency_us"))
                reads.insert(reads.end(), e->samples.begin(),
                             e->samples.end());

        out["trace.records_per_s"] =
            ratio(static_cast<double>(drained_),
                  tracer.totalSeconds("trace.drain"), "1/s");
        out["ssd.events"] = {driveEv, "count", ""};
        out["ssd.events_per_s"] = ratio(driveEv, run, "1/s");
        out["fabric.construct_ms"] =
            ratio(1e3 * tracer.totalSeconds("fabric.Fleet"),
                  static_cast<double>(tracer.count("fabric.Fleet")), "ms");
        out["fabric.run_s"] = {run, "s", ""};
        out["fabric.sync_rounds"] = {rounds, "count", ""};
        out["fabric.round.coalesced_share"] = ratio(
            static_cast<double>(sumCounter(untraced, "fabric.round.coalesced")),
            rounds, "ratio");
        out["fabric.round_us"] = ratio(1e6 * run, rounds, "us");
        out["fabric.events_per_s"] = ratio(driveEv + hostEv, run, "1/s");
        out["host.arrival.drop_ratio"] = ratio(
            static_cast<double>(sumCounter(untraced, "host.arrival.dropped")),
            offered, "ratio");
        out["fabric.sim_read_p99_us"] = {
            percentile(reads, 99.0), "us",
            std::to_string(reads.size()) + " reads"};
    }

  private:
    ssd::SsdConfig
    config(std::size_t i) const
    {
        ssd::SsdConfig cfg;
        cfg.policy = i % 2 ? ssd::PolicyKind::FixedSequence
                           : ssd::PolicyKind::Rif;
        cfg.peCycles = kPeCycles;
        cfg.seed = mixSeed(seed_, 0xf1ee7);
        return cfg;
    }

    trace::WorkloadConfig
    workload(std::size_t i) const
    {
        trace::WorkloadConfig wc = wc_;
        wc.arrivalSeed = mixSeed(seed_, 0xa000 + i);
        return wc;
    }

    std::unique_ptr<trace::TraceSource>
    openSource(std::size_t i, std::uint64_t requests) const
    {
        return trace::openWorkload(workload(i), trace::workloadByName("Sys0"),
                                   requests, mixSeed(seed_, i));
    }

    std::uint64_t seed_;
    std::size_t units_;
    fabric::FleetConfig fc_;
    trace::WorkloadConfig wc_;
    std::uint64_t drained_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeFleetMixedOpen(std::uint64_t seed, double seconds)
{
    return std::make_unique<FleetMixedOpen>(seed, seconds);
}

} // namespace perfbench
