#include "spans.h"

#include <algorithm>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::vector<SpanRecord>
Tracer::spans() const
{
    std::vector<SpanRecord> out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out = spans_;
    }
    std::sort(out.begin(), out.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  return a.id < b.id;
              });
    return out;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    const std::vector<SpanRecord> all = spans();
    std::unordered_map<std::int64_t, std::vector<std::pair<std::int64_t,
                                                           std::int64_t>>>
        children;
    for (const SpanRecord &s : all)
        if (s.parent >= 0)
            children[s.parent].emplace_back(s.startNs, s.endNs);

    std::map<std::string, double> out;
    for (const SpanRecord &s : all) {
        if (s.unit < 0)
            continue;
        std::int64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            std::int64_t runStart = 0, runEnd = -1;
            for (auto [a, b] : iv) {
                a = std::max(a, s.startNs);
                b = std::min(b, s.endNs);
                if (b <= a)
                    continue;
                if (a > runEnd) {
                    if (runEnd > runStart)
                        covered += runEnd - runStart;
                    runStart = a;
                    runEnd = b;
                } else {
                    runEnd = std::max(runEnd, b);
                }
            }
            if (runEnd > runStart)
                covered += runEnd - runStart;
        }
        out[s.layer] += static_cast<double>(s.endNs - s.startNs - covered) *
                        1e-9;
    }
    return out;
}

double
Tracer::totalSeconds(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::int64_t ns = 0;
    for (const SpanRecord &s : spans_)
        if (name == s.name)
            ns += s.endNs - s.startNs;
    return static_cast<double>(ns) * 1e-9;
}

std::uint64_t
Tracer::count(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<std::uint64_t>(
        std::count_if(spans_.begin(), spans_.end(),
                      [&](const SpanRecord &s) { return name == s.name; }));
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    for (const SpanRecord &s : spans())
        os << "{\"id\":" << s.id << ",\"parent\":" << s.parent
           << ",\"unit\":" << s.unit << ",\"layer\":\"" << s.layer
           << "\",\"name\":\"" << s.name << "\",\"start_ns\":" << s.startNs
           << ",\"end_ns\":" << s.endNs << "}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
