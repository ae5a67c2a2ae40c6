/**
 * @file
 * ldpc_montecarlo: Monte-Carlo on the paper code (n = 36 864). Even
 * units run odear::measureRpAccuracy at one point of the Fig. 11/14
 * RBER axis (3e-3 .. 33e-3), odd units run ldpc::measureCapability at
 * one point of the Fig. 3 axis (1e-3 .. 16e-3), 100 trials each. The
 * traced pass sends the same trials through the module calls beneath
 * those entry points and must reproduce their counts exactly.
 */

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/parallel.h"
#include "ldpc/batch.h"
#include "ldpc/capability.h"
#include "ldpc/channel.h"
#include "ldpc/code.h"
#include "ldpc/decoder.h"
#include "odear/accuracy.h"
#include "odear/rp_module.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace rif;

constexpr int kTrials = 100;
constexpr std::size_t kBatch = 8; ///< the harnesses' chunk width
constexpr std::size_t kAxis = 16; ///< points on each RBER axis
constexpr double kCapability = 0.0085;
constexpr int kDecoderIters = 20;
/** Host seconds per unit at a thread budget of 2 (sets the unit count). */
constexpr double kUnitSeconds = 0.29;

/** Integer outcome counts of one unit: what the digest covers. */
struct Counts
{
    std::uint64_t correct = 0, falseRetry = 0, miss = 0; ///< accuracy
    std::uint64_t failures = 0, iterations = 0;
    std::uint64_t weight = 0, pruned = 0; ///< capability
};

class LdpcMonteCarlo final : public Workload
{
  public:
    LdpcMonteCarlo(std::uint64_t seed, double seconds)
        : seed_(seed), units_(unitCount(seconds, kUnitSeconds))
    {
    }

    std::size_t units() const override { return units_; }
    const char *operation() const override
    {
        return "codeword trial (encode, inject, RP stage, decode)";
    }

    SetupTimes
    setup() override
    {
        SetupTimes t;
        rp_.reset();
        decoder_.reset();
        code_.reset();
        std::int64_t t0 = nowNs();
        code_ = std::make_unique<ldpc::QcLdpcCode>(ldpc::paperCode());
        t.code = static_cast<double>(nowNs() - t0) * 1e-9;

        t0 = nowNs();
        odear::RpConfig cfg; // chunk + pruning: the on-die datapath
        cfg.rhoS = odear::RpModule::calibrateThreshold(*code_, cfg,
                                                       kCapability, 40, 1002);
        rp_ = std::make_unique<odear::RpModule>(*code_, cfg);
        decoder_ = std::make_unique<ldpc::MinSumDecoder>(*code_, kDecoderIters);
        t.calibrate = static_cast<double>(nowNs() - t0) * 1e-9;

        t0 = nowNs();
        run(0, nullptr, -1);
        t.warmup = static_cast<double>(nowNs() - t0) * 1e-9;
        return t;
    }

    UnitResult
    run(std::size_t i, Tracer *tracer, std::int64_t unitSpan) override
    {
        const bool accuracy = i % 2 == 0;
        const double rber = rberOf(i);
        const std::uint64_t seed = mixSeed(seed_, i);

        UnitResult r;
        r.ops = kTrials;
        metrics::MetricsScope scope;
        Counts c;
        if (tracer) {
            c = split(accuracy, rber, seed, *tracer, unitSpan, i);
        } else if (accuracy) {
            odear::AccuracySweepConfig cfg;
            cfg.rbers = {rber};
            cfg.trials = kTrials;
            cfg.seed = seed;
            const auto pts =
                odear::measureRpAccuracy(*code_, *rp_, *decoder_, cfg);
            const metrics::Snapshot s = scope.collector().snapshot();
            c.correct = s.value("odear.rp.mc_correct");
            c.falseRetry = s.value("odear.rp.mc_false_retries");
            c.miss = s.value("odear.rp.mc_misses");
            c.failures = static_cast<std::uint64_t>(
                std::llround(pts.at(0).decodeFailureRate * kTrials));
            c.iterations = s.value("ldpc.decode.iterations");
            if (s.value("odear.rp.mc_trials") != kTrials ||
                c.correct + c.falseRetry + c.miss != kTrials)
                r.problems.push_back("RP confusion counts do not sum to "
                                     "the trial count");
            if (std::llround(pts.at(0).accuracy * kTrials) !=
                static_cast<long long>(c.correct))
                r.problems.push_back("accuracy differs from its counts");
        } else {
            ldpc::CapabilitySweepConfig cfg;
            cfg.rbers = {rber};
            cfg.trials = kTrials;
            cfg.seed = seed;
            const auto pts = ldpc::measureCapability(*code_, *decoder_, cfg);
            const metrics::Snapshot s = scope.collector().snapshot();
            const auto n = static_cast<double>(kTrials);
            c.failures = static_cast<std::uint64_t>(
                std::llround(pts.at(0).failureProbability * n));
            c.iterations = s.value("ldpc.decode.iterations");
            c.weight = static_cast<std::uint64_t>(
                std::llround(pts.at(0).avgSyndromeWeight * n));
            c.pruned = static_cast<std::uint64_t>(
                std::llround(pts.at(0).avgPrunedSyndromeWeight * n));
            if (s.value("ldpc.decode.attempts") != kTrials ||
                s.value("ldpc.decode.failures") != c.failures)
                r.problems.push_back("decode outcomes do not sum to the "
                                     "trial count");
        }
        r.metrics = scope.finish();
        if (!r.problems.empty())
            r.failed = r.ops;

        Hasher h;
        h.add(static_cast<std::uint64_t>(accuracy));
        h.bytes(&rber, sizeof(rber));
        for (std::uint64_t v : {c.correct, c.falseRetry, c.miss, c.failures,
                                c.iterations, c.weight, c.pruned})
            h.add(v);
        r.digest = h.finish().hex();
        r.extra["iterations"] = static_cast<double>(c.iterations);
        return r;
    }

    void
    layerMetrics(const std::vector<UnitResult> &untraced,
                 const std::vector<UnitResult> &traced, const Tracer &tracer,
                 LayerMetrics &out) const override
    {
        auto sum = [&](const char *name) {
            return static_cast<double>(sumCounter(untraced, name));
        };
        auto perCall = [&](const char *name, double scale,
                           const char *unit) {
            return ratio(scale * tracer.totalSeconds(name),
                         static_cast<double>(tracer.count(name)), unit);
        };
        double tracedIters = 0;
        for (const UnitResult &u : traced)
            tracedIters += u.extra.at("iterations");
        const double staged =
            static_cast<double>(tracer.count("odear.RpSyndromeStager::stage"));

        out["odear.rp.mc_accuracy"] = ratio(sum("odear.rp.mc_correct"),
                                            sum("odear.rp.mc_trials"), "ratio");
        const double batched = sum("odear.rp.stage.batched");
        out["odear.rp.stage.batched_share"] = ratio(
            batched, batched + sum("odear.rp.stage.tail"), "ratio");
        out["odear.rp.stage_us"] = ratio(
            1e6 * (tracer.totalSeconds("odear.RpSyndromeStager::stage") +
                   tracer.totalSeconds("odear.RpSyndromeStager::flush")),
            staged, "us");
        out["odear.rearrange_us"] =
            perCall("odear.CodewordRearranger::toFlashLayout", 1e6, "us");
        out["ldpc.encode_us"] = perCall("ldpc.QcLdpcCode::encode", 1e6, "us");
        out["ldpc.inject_us"] = perCall("ldpc.injectErrors", 1e6, "us");
        out["ldpc.decode_batch_ms"] =
            perCall("ldpc.MinSumDecoder::decodeBatch", 1e3, "ms");
        out["ldpc.decode.iterations"] = {sum("ldpc.decode.iterations"),
                                         "count", ""};
        out["ldpc.decode.failures"] = {sum("ldpc.decode.failures"), "count",
                                       ""};
        out["ldpc.iterations_per_s"] = ratio(
            tracedIters,
            tracer.totalSeconds("ldpc.MinSumDecoder::decodeBatch"), "1/s");
        const double full = sum("ldpc.batch.flush_reason.full");
        out["ldpc.batch.full_share"] =
            ratio(full, full + sum("ldpc.batch.flush_reason.tail"), "ratio");
    }

  private:
    static double
    rberOf(std::size_t i)
    {
        const auto p = static_cast<double>((i / 2) % kAxis);
        return i % 2 == 0 ? (3.0 + 2.0 * p) * 1e-3 : (1.0 + p) * 1e-3;
    }

    /**
     * The trials of one unit through the module calls beneath
     * measureRpAccuracy / measureCapability: the same per-trial RNG
     * streams, the same fixed 8-trial chunks on the same pool, one span
     * per call.
     */
    Counts
    split(bool accuracy, double rber, std::uint64_t seed, Tracer &tracer,
          std::int64_t unitSpan, std::size_t unit)
    {
        const auto trials = static_cast<std::size_t>(kTrials);
        const std::size_t chunks = (trials + kBatch - 1) / kBatch;
        struct Scratch
        {
            ldpc::BatchDecodeWorkspace ws;
            ldpc::CodewordBatch batch, synd;
            std::vector<ldpc::HardWord> words =
                std::vector<ldpc::HardWord>(kBatch);
            std::vector<const ldpc::HardWord *> ptrs =
                std::vector<const ldpc::HardWord *>(kBatch);
            std::vector<ldpc::DecodeResult> results =
                std::vector<ldpc::DecodeResult>(kBatch);
            std::size_t weights[kBatch] = {}, pruned[kBatch] = {};
        };
        std::vector<Scratch> scratch(globalThreadCount());
        std::vector<odear::RpSyndromeStager> stagers;
        stagers.reserve(scratch.size());
        for (std::size_t w = 0; w < scratch.size(); ++w)
            stagers.emplace_back(*rp_);
        struct Trial
        {
            bool retry = false, decodable = false;
            int iterations = 0;
            std::size_t weight = 0, pruned = 0;
        };
        std::vector<Trial> slots(trials);

        Rng master(seed);
        std::vector<Rng> streams = forkStreams(master, trials);
        const ldpc::QcLdpcCode &code = *code_;
        const odear::CodewordRearranger &rearranger = rp_->rearranger();
        parallelForWorker(chunks, [&](std::size_t ch, int worker) {
            auto span = [&](const char *layer, const char *name) {
                return Span(&tracer, layer, name, unitSpan, unit);
            };
            const std::size_t begin = ch * kBatch;
            const std::size_t lanes = std::min(kBatch, trials - begin);
            Scratch &s = scratch[worker];
            odear::RpSyndromeStager &stager = stagers[worker];
            if (accuracy) {
                auto sp = span("odear", "odear.RpSyndromeStager::reset");
                stager.reset();
            } else {
                auto sp = span("ldpc", "ldpc.CodewordBatch::reset");
                s.batch.reset(code.params().n(), lanes);
            }
            for (std::size_t l = 0; l < lanes; ++l) {
                Rng &rng = streams[begin + l];
                ldpc::HardWord data;
                {
                    auto sp = span("ldpc", "ldpc.randomData");
                    data = ldpc::randomData(code.params().k(), rng);
                }
                {
                    auto sp = span("ldpc", "ldpc.QcLdpcCode::encode");
                    s.words[l] = code.encode(data);
                }
                {
                    auto sp = span("ldpc", "ldpc.injectErrors");
                    ldpc::injectErrors(s.words[l], rber, rng);
                }
                s.ptrs[l] = &s.words[l];
                if (!accuracy) {
                    auto sp =
                        span("ldpc", "ldpc.CodewordBatch::setLaneFromBytes");
                    s.batch.setLaneFromBytes(l, s.words[l].data(),
                                             s.words[l].size());
                    continue;
                }
                BitVec word, flash;
                {
                    auto sp = span("ldpc", "ldpc.toBitVec");
                    word = ldpc::toBitVec(s.words[l]);
                }
                {
                    auto sp = span("odear",
                                   "odear.CodewordRearranger::toFlashLayout");
                    flash = rearranger.toFlashLayout(word);
                }
                auto sp = span("odear", "odear.RpSyndromeStager::stage");
                stager.stage(flash);
            }
            if (accuracy) {
                auto sp = span("odear", "odear.RpSyndromeStager::flush");
                stager.flush();
            } else {
                {
                    auto sp = span("ldpc", "ldpc.syndromeWeightBatch");
                    ldpc::syndromeWeightBatch(code, s.batch, s.synd,
                                              s.weights);
                }
                auto sp = span("ldpc", "ldpc.prunedSyndromeWeightBatch");
                ldpc::prunedSyndromeWeightBatch(code, s.batch, s.synd,
                                                s.pruned);
            }
            {
                auto sp = span("ldpc", "ldpc.MinSumDecoder::decodeBatch");
                decoder_->decodeBatch(s.ptrs.data(), lanes, rber, s.ws,
                                      s.results.data());
            }
            for (std::size_t l = 0; l < lanes; ++l) {
                Trial &t = slots[begin + l];
                t.retry = accuracy && stager.retry(l);
                t.decodable = s.results[l].success;
                t.iterations = s.results[l].iterations;
                t.weight = s.weights[l];
                t.pruned = s.pruned[l];
            }
            auto sp = span("ldpc", "ldpc.noteBatchFormed");
            ldpc::noteBatchFormed(lanes, kBatch);
        });

        Counts c;
        for (const Trial &t : slots) {
            c.failures += !t.decodable;
            c.iterations += static_cast<std::uint64_t>(t.iterations);
            if (accuracy) {
                if (t.retry != t.decodable)
                    ++c.correct;
                else if (t.retry)
                    ++c.falseRetry;
                else
                    ++c.miss;
            } else {
                c.weight += t.weight;
                c.pruned += t.pruned;
            }
        }
        return c;
    }

    std::uint64_t seed_;
    std::size_t units_;
    std::unique_ptr<ldpc::QcLdpcCode> code_;
    std::unique_ptr<odear::RpModule> rp_;
    std::unique_ptr<ldpc::MinSumDecoder> decoder_;
};

} // namespace

std::unique_ptr<Workload>
makeLdpcMonteCarlo(std::uint64_t seed, double seconds)
{
    return std::make_unique<LdpcMonteCarlo>(seed, seconds);
}

} // namespace perfbench
