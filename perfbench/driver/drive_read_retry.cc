/**
 * @file
 * drive_read_retry: one SSD, closed loop at QD 64, at the Fig. 17 point
 * with the most retries (2K P/E). Units cycle through CONV, SENC, SWR+
 * and RiF on the Ali124 and Ali121 mixes; each unit replays a fresh
 * 5 000-request trace drawn from the benchmark seed.
 */

#include <cmath>
#include <memory>
#include <string>

#include "core/experiment.h"
#include "ssd/snapshot_cache.h"
#include "ssd/ssd.h"
#include "trace/trace.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace rif;

constexpr std::uint64_t kRequests = 5000;
constexpr double kPeCycles = 2000.0;
/** Host seconds per unit at a thread budget of 2 (sets the unit count). */
constexpr double kUnitSeconds = 0.125;

const ssd::PolicyKind kPolicies[] = {
    ssd::PolicyKind::FixedSequence, ssd::PolicyKind::Sentinel,
    ssd::PolicyKind::SwiftReadPlus, ssd::PolicyKind::Rif};
const char *const kMixes[] = {"Ali124", "Ali121"};
constexpr std::size_t kConfigs = 8;

/**
 * Pass-through source that tallies what the drive pulled, so the unit
 * can check the host byte totals against the trace it was fed. The
 * precondition digest is the inner source's: counting does not change
 * the cold layout, so the snapshot cache key is unchanged.
 */
class CountingTrace final : public trace::TraceSource
{
  public:
    explicit CountingTrace(trace::TraceSource &inner) : inner_(inner) {}

    bool
    next(trace::IoRecord &out) override
    {
        if (!inner_.next(out))
            return false;
        ++records;
        (out.isRead ? readPages : writePages) += out.pages;
        return true;
    }
    std::uint64_t footprintPages() const override
    {
        return inner_.footprintPages();
    }
    std::uint64_t coldRegionStart() const override
    {
        return inner_.coldRegionStart();
    }
    bool isCold(std::uint64_t lpn) const override
    {
        return inner_.isCold(lpn);
    }
    bool preconditionDigest(Hasher &h) const override
    {
        return inner_.preconditionDigest(h);
    }

    std::uint64_t records = 0;
    std::uint64_t readPages = 0;
    std::uint64_t writePages = 0;

  private:
    trace::TraceSource &inner_;
};

class DriveReadRetry final : public Workload
{
  public:
    DriveReadRetry(std::uint64_t seed, double seconds)
        : seed_(seed), units_(unitCount(seconds, kUnitSeconds))
    {
    }

    std::size_t units() const override { return units_; }
    const char *operation() const override
    {
        return "simulated host request retired";
    }
    std::vector<std::size_t> spotUnits() const override
    {
        return {0, 3}; // CONV and RiF on Ali124
    }

    SetupTimes
    setup() override
    {
        SetupTimes t;
        ssd::FtlSnapshotCache::instance().clear();
        std::int64_t t0 = nowNs();
        for (std::size_t m = 0; m < 2; ++m) {
            trace::SyntheticWorkload gen(trace::workloadByName(kMixes[m]),
                                         kRequests, traceSeed(m * 4));
            ssd::Ssd drive(config(m * 4));
            drive.prepareOpen({&gen});
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
        const ssd::SsdConfig cfg = config(i);
        const std::string mix = kMixes[(i / 4) % 2];
        std::unique_ptr<trace::SyntheticWorkload> gen;
        {
            Span s(tracer, "trace", "trace.SyntheticWorkload", unitSpan, i);
            gen = std::make_unique<trace::SyntheticWorkload>(
                trace::workloadByName(mix), kRequests, traceSeed(i));
        }
        CountingTrace source(*gen);

        ssd::SsdStats stats;
        metrics::Snapshot snap;
        if (!tracer) {
            Experiment e;
            e.config() = cfg;
            RunResult r = e.run(source, mix);
            stats = std::move(r.stats);
            snap = std::move(r.metrics);
        } else {
            std::unique_ptr<ssd::Ssd> drive;
            {
                Span s(tracer, "ssd", "ssd.Ssd", unitSpan, i);
                drive = std::make_unique<ssd::Ssd>(cfg);
            }
            metrics::MetricsScope scope;
            {
                Span s(tracer, "ssd", "ssd.Ssd::run", unitSpan, i);
                stats = drive->run(source);
            }
            snap = scope.finish();
            Span s(tracer, "ssd", "ssd.~Ssd", unitSpan, i);
            drive.reset();
        }
        return check(cfg, source, stats, std::move(snap));
    }

    void
    probe(std::size_t i, Tracer &tracer) override
    {
        // Drain an identical trace: the trace layer's own rate.
        trace::SyntheticWorkload gen(
            trace::workloadByName(kMixes[(i / 4) % 2]), kRequests,
            traceSeed(i));
        {
            Span s(&tracer, "trace", "trace.drain", -1, -1);
            trace::IoRecord rec;
            while (gen.next(rec))
                ++drained_;
        }
        // Snapshot restore on a fresh drive, once per configuration.
        if (i < kConfigs) {
            ssd::Ssd drive(config(i));
            Span s(&tracer, "ssd", "ssd.prepareOpen", -1, -1);
            drive.prepareOpen({&gen});
        }
    }

    void
    layerMetrics(const std::vector<UnitResult> &untraced,
                 const std::vector<UnitResult> &, const Tracer &tracer,
                 LayerMetrics &out) const override
    {
        driveLayerMetrics(untraced, out);
        const double replay = tracer.totalSeconds("ssd.Ssd::run");
        double events = 0;
        for (const UnitResult &u : untraced)
            events += static_cast<double>(u.metrics.value("sim.events"));
        out["trace.records_per_s"] =
            ratio(static_cast<double>(drained_),
                  tracer.totalSeconds("trace.drain"), "1/s");
        out["ssd.construct_ms"] =
            ratio(1e3 * tracer.totalSeconds("ssd.Ssd"),
                  static_cast<double>(tracer.count("ssd.Ssd")), "ms");
        out["ssd.precondition_ms"] =
            ratio(1e3 * tracer.totalSeconds("ssd.prepareOpen"),
                  static_cast<double>(tracer.count("ssd.prepareOpen")),
                  "ms");
        out["ssd.replay_s"] = {replay, "s", ""};
        out["ssd.events"] = {events, "count", ""};
        out["ssd.events_per_s"] = ratio(events, replay, "1/s");
    }

  private:
    std::uint64_t traceSeed(std::size_t i) const { return mixSeed(seed_, i); }

    ssd::SsdConfig
    config(std::size_t i) const
    {
        ssd::SsdConfig cfg;
        cfg.policy = kPolicies[i % 4];
        cfg.peCycles = kPeCycles;
        cfg.seed = mixSeed(seed_, 0xd71e);
        return cfg;
    }

    static UnitResult
    check(const ssd::SsdConfig &cfg, const CountingTrace &source,
          const ssd::SsdStats &stats, metrics::Snapshot snap)
    {
        UnitResult r;
        r.ops = kRequests;
        const std::uint64_t page = cfg.geometry.pageBytes;
        if (source.records != kRequests || stats.hostRequests != kRequests)
            r.problems.push_back("retired " +
                                 std::to_string(stats.hostRequests) + " of " +
                                 std::to_string(source.records) + " issued");
        if (stats.hostReadBytes != source.readPages * page ||
            stats.hostWriteBytes != source.writePages * page)
            r.problems.push_back("host byte totals differ from the trace");
        for (std::size_t c = 0; c < stats.channels.size(); ++c) {
            double sum = 0.0;
            for (int s = 0; s < ssd::kChannelStates; ++s)
                sum += stats.channels[c].fraction(
                    static_cast<ssd::ChannelState>(s));
            if (stats.channels[c].total() != stats.makespan ||
                std::abs(sum - 1.0) > 1e-9)
                r.problems.push_back("channel " + std::to_string(c) +
                                     " state fractions do not sum to 1");
        }
        if (!r.problems.empty())
            r.failed = r.ops;

        Hasher h;
        hashSnapshot(h, snap);
        h.add(stats.makespan);
        h.add(stats.hostReadBytes);
        h.add(stats.hostWriteBytes);
        r.digest = h.finish().hex();
        r.metrics = std::move(snap);
        return r;
    }

    std::uint64_t seed_;
    std::size_t units_;
    std::uint64_t drained_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeDriveReadRetry(std::uint64_t seed, double seconds)
{
    return std::make_unique<DriveReadRetry>(seed, seconds);
}

} // namespace perfbench
