#include "workload.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>

namespace perfbench {

namespace {

/**
 * The name a drive metric has in a bare drive's catalog with any
 * leading "ssd." or fleet "ssdN." stripped, so both spellings compare.
 */
std::string
driveKey(const std::string &name)
{
    if (name.rfind("ssd", 0) == 0) {
        std::size_t p = 3;
        while (p < name.size() &&
               std::isdigit(static_cast<unsigned char>(name[p])))
            ++p;
        if (p < name.size() && name[p] == '.')
            return name.substr(p + 1);
    }
    return name;
}

} // namespace

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::size_t
unitCount(double seconds, double unitSeconds)
{
    return static_cast<std::size_t>(std::llround(seconds / unitSeconds));
}

std::uint64_t
driveCounter(const rif::metrics::Snapshot &s, const std::string &name)
{
    const std::string key = driveKey(name);
    std::uint64_t sum = 0;
    for (const auto &e : s.entries())
        if (e.kind != rif::metrics::Kind::Distribution &&
            driveKey(e.name) == key)
            sum += e.value;
    return sum;
}

void
driveSamples(const rif::metrics::Snapshot &s, const std::string &name,
             std::vector<double> &out)
{
    const std::string key = driveKey(name);
    for (const auto &e : s.entries())
        if (e.kind == rif::metrics::Kind::Distribution &&
            driveKey(e.name) == key)
            out.insert(out.end(), e.samples.begin(), e.samples.end());
}

std::uint64_t
sumCounter(const std::vector<UnitResult> &units, const std::string &name)
{
    std::uint64_t sum = 0;
    for (const UnitResult &u : units)
        sum += u.metrics.value(name);
    return sum;
}

double
percentile(std::vector<double> &v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

void
hashSnapshot(rif::Hasher &h, const rif::metrics::Snapshot &s)
{
    for (const auto &e : s.entries()) {
        if (e.name.rfind("cache.", 0) == 0)
            continue;
        h.add(e.name);
        h.add(e.value);
        h.add(static_cast<std::uint64_t>(e.samples.size()));
        h.bytes(e.samples.data(), e.samples.size() * sizeof(double));
    }
}

LayerMetric
ratio(double num, double den, const std::string &unit)
{
    std::ostringstream base;
    base.precision(12);
    base << num << " / " << den;
    return {den != 0.0 ? num / den : 0.0, unit, base.str()};
}

void
driveLayerMetrics(const std::vector<UnitResult> &units, LayerMetrics &out)
{
    std::uint64_t ecc = 0, chanTotal = 0;
    std::vector<double> reads;
    auto count = [&](const char *name) {
        std::uint64_t sum = 0;
        for (const UnitResult &u : units)
            sum += driveCounter(u.metrics, name);
        return static_cast<double>(sum);
    };
    for (const UnitResult &u : units) {
        driveSamples(u.metrics, "ssd.read_latency_us", reads);
        for (const auto &e : u.metrics.entries()) {
            const std::string key = driveKey(e.name);
            if (key.rfind("chan", 0) != 0 || key.size() < 6 ||
                key.compare(key.size() - 6, 6, "_ticks") != 0)
                continue;
            chanTotal += e.value;
            if (key.find(".eccwait_ticks") != std::string::npos)
                ecc += e.value;
        }
    }
    out["ssd.page_reads"] = {count("ssd.nand.page_reads"), "count", ""};
    out["ssd.page_writes"] = {count("ssd.nand.page_writes"), "count", ""};
    out["ssd.gc_page_moves"] = {count("ssd.gc.page_moves"), "count", ""};
    out["ssd.retried_reads"] = {count("ssd.reads.retried"), "count", ""};
    out["ssd.uncor_transfers"] = {count("ssd.reads.uncor_transfers"),
                                  "count", ""};
    out["ssd.failed_decodes"] = {count("ssd.reads.failed_decodes"),
                                 "count", ""};
    out["ssd.sim_read_p99_us"] = {percentile(reads, 99.0), "us",
                                  std::to_string(reads.size()) + " reads"};
    out["ssd.sim_ecc_wait_frac"] =
        ratio(static_cast<double>(ecc), static_cast<double>(chanTotal),
              "ratio");
    out["odear.rp.avoided_ratio"] =
        ratio(count("odear.rp.true_positive"), count("odear.rp.predictions"),
              "ratio");
    const double hits = count("cache.snapshot.hits");
    out["cache.snapshot.hit_ratio"] =
        ratio(hits, hits + count("cache.snapshot.misses"), "ratio");
}

} // namespace perfbench
