/**
 * @file
 * In-memory span recorder for the traced pass. Every public call the
 * benchmark makes into a `rif` module is wrapped in a Span; spans carry
 * the module ("layer") they time, the span that caused them and the
 * unit they belong to. Nothing inside the program is instrumented: a
 * layer's time is measured from outside, at the call boundary.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic host time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One completed span. Names and layers are string literals. */
struct SpanRecord
{
    std::int64_t id = 0;
    std::int64_t parent = -1; ///< -1: a root span
    std::int64_t unit = -1;   ///< -1: outside any unit (probes)
    const char *layer = "";
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/**
 * Thread-safe span store. Ids are handed out when a span opens, the
 * record is stored when it closes; parents are passed explicitly so
 * spans opened on pool workers can name the unit span that caused them.
 */
class Tracer
{
  public:
    std::int64_t open() { return nextId_.fetch_add(1); }

    void
    close(SpanRecord rec)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(rec);
    }

    /** Every closed span, ordered by id. */
    std::vector<SpanRecord> spans() const;

    /**
     * Self time per layer over the spans inside units, in seconds: each
     * span's duration minus the union of its children's intervals inside
     * it (children on parallel workers may overlap one another).
     */
    std::map<std::string, double> selfSeconds() const;

    /** Total duration and count of spans named `name`. */
    double totalSeconds(const std::string &name) const;
    std::uint64_t count(const std::string &name) const;

    /** Write the spans as JSON lines; false when the file can't open. */
    bool write(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
    std::atomic<std::int64_t> nextId_{0};
};

/**
 * RAII span. A null tracer makes it a no-op, so one code path serves
 * the untraced and the traced pass where the calls are the same.
 */
class Span
{
  public:
    Span(Tracer *tracer, const char *layer, const char *name,
         std::int64_t parent, std::int64_t unit)
        : tracer_(tracer)
    {
        if (!tracer_)
            return;
        rec_.id = tracer_->open();
        rec_.parent = parent;
        rec_.unit = unit;
        rec_.layer = layer;
        rec_.name = name;
        rec_.startNs = nowNs();
    }

    ~Span()
    {
        if (!tracer_)
            return;
        rec_.endNs = nowNs();
        tracer_->close(rec_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::int64_t id() const { return rec_.id; }

  private:
    Tracer *tracer_;
    SpanRecord rec_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
