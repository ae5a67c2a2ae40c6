/**
 * @file
 * Plain reference implementations that the tests and the micro-
 * benchmarks compare the production kernels against. None of them is
 * used by the simulator:
 *
 *  - HeapSimulator: a std::function + binary-heap event kernel with the
 *    same contract as ssd::Simulator (time order, same-tick FIFO). The
 *    oracle for the calendar queue and the BM_ReferenceEventQueue rows.
 *  - encode / syndrome: per-edge QC-LDPC kernels over the public
 *    QcLdpcCode structure (shifts and check adjacency). The oracle for
 *    the word-parallel kernels and the BM_ReferenceEncode /
 *    BM_ReferenceSyndrome rows.
 */

#ifndef RIF_TESTS_REFERENCE_KERNELS_H
#define RIF_TESTS_REFERENCE_KERNELS_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/units.h"
#include "ldpc/code.h"

namespace rif {
namespace reference {

/** Heap-based event kernel: std::function actions in a binary heap. */
class HeapSimulator
{
  public:
    using Action = std::function<void()>;

    Tick now() const { return now_; }

    void
    schedule(Tick delay, Action action)
    {
        scheduleAt(now_ + delay, std::move(action));
    }

    void
    scheduleAt(Tick when, Action action)
    {
        RIF_ASSERT(when >= now_, "event scheduled in the past");
        queue_.push(Event{when, nextSeq_++, std::move(action)});
    }

    /** Run until no event is pending; returns the final time. */
    Tick
    run()
    {
        while (!queue_.empty()) {
            // Copy out before pop: the action may schedule more events.
            Event ev = queue_.top();
            queue_.pop();
            now_ = ev.when;
            ev.action();
        }
        return now_;
    }

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Action action;
    };
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

/**
 * Per-edge encoder: data first, then the r parity blocks by back-
 * substitution through the bidiagonal parity part (p0 = sd0,
 * pk = sdk ^ p(k-1), sd = per-row partial syndrome of the data).
 */
inline ldpc::HardWord
encode(const ldpc::QcLdpcCode &code, const ldpc::HardWord &data)
{
    const ldpc::CodeParams &params = code.params();
    RIF_ASSERT(data.size() == params.k());
    const int r = params.blockRows;
    const int d = params.dataBlocks();
    const int t = params.circulant;

    ldpc::HardWord word(params.n(), 0);
    std::copy(data.begin(), data.end(), word.begin());

    std::vector<ldpc::HardWord> sd(
        static_cast<std::size_t>(r),
        ldpc::HardWord(static_cast<std::size_t>(t), 0));
    for (int i = 0; i < r; ++i) {
        for (int j = 0; j < d; ++j) {
            const int c = code.shift(i, j);
            const std::size_t base = static_cast<std::size_t>(j) * t;
            for (int a = 0; a < t; ++a)
                sd[i][a] ^= data[base + (a + c) % t];
        }
    }

    const std::size_t k = params.k();
    ldpc::HardWord prev(static_cast<std::size_t>(t), 0);
    for (int i = 0; i < r; ++i) {
        for (int a = 0; a < t; ++a) {
            const std::uint8_t p = sd[i][a] ^ prev[a];
            word[k + static_cast<std::size_t>(i) * t + a] = p;
            prev[a] = p;
        }
    }
    return word;
}

/** Per-edge full syndrome (m bits): XOR over each check's variables. */
inline ldpc::HardWord
syndrome(const ldpc::QcLdpcCode &code, const ldpc::HardWord &word)
{
    const ldpc::CodeParams &params = code.params();
    RIF_ASSERT(word.size() == params.n());
    const auto &edge_var = code.checkAdjacency();
    const auto &chk_start = code.checkOffsets();
    ldpc::HardWord s(params.m(), 0);
    for (std::size_t m = 0; m < params.m(); ++m) {
        std::uint8_t acc = 0;
        for (std::uint32_t e = chk_start[m]; e < chk_start[m + 1]; ++e)
            acc ^= word[edge_var[e]];
        s[m] = acc;
    }
    return s;
}

} // namespace reference
} // namespace rif

#endif // RIF_TESTS_REFERENCE_KERNELS_H
