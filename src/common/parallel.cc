#include "common/parallel.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common/logging.h"

namespace rif {

namespace {

/** True while this thread executes a parallelFor body. */
thread_local bool t_inParallel = false;

constexpr int kMaxContextHooks = 8;
TaskContextHooks g_ctx_hooks[kMaxContextHooks];
std::atomic<int> g_ctx_hook_count{0};
std::mutex g_ctx_hook_mutex;

/** Submitting-thread context values snapshotted at job publish. */
struct CapturedContexts
{
    void *vals[kMaxContextHooks];
    int count = 0;
};

CapturedContexts
captureTaskContexts()
{
    CapturedContexts c;
    c.count = g_ctx_hook_count.load(std::memory_order_acquire);
    for (int i = 0; i < c.count; ++i)
        c.vals[i] = g_ctx_hooks[i].capture();
    return c;
}

/** setGlobalThreadCount override; 0 means "use RIF_THREADS / hardware". */
int g_thread_override = 0;

int
defaultThreadCount()
{
    if (const char *env = std::getenv("RIF_THREADS")) {
        const int n = std::atoi(env);
        if (n > 0)
            return std::min(n, 256);
        warn("ignoring invalid RIF_THREADS value '", env, "'");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

/**
 * Persistent worker pool. A parallelFor publishes one job (function +
 * atomic index cursor); workers and the caller pull index chunks until
 * the range drains. The pool spawns threadCount - 1 threads: the caller
 * is always worker 0.
 */
class ThreadPool
{
  public:
    explicit ThreadPool(int threads)
        : threads_(threads)
    {
        RIF_ASSERT(threads >= 1);
        for (int w = 1; w < threads_; ++w)
            workers_.emplace_back([this, w] { workerLoop(w); });
    }

    ~ThreadPool()
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_.notify_all();
        for (auto &t : workers_)
            t.join();
    }

    int threadCount() const { return threads_; }

    void
    run(std::size_t n, const std::function<void(std::size_t, int)> &fn)
    {
        if (n == 0)
            return;
        // Nested parallelFor (a body that itself fans out) runs inline:
        // the pool publishes one job at a time.
        if (threads_ == 1 || n == 1 || t_inParallel) {
            for (std::size_t i = 0; i < n; ++i)
                fn(i, 0);
            return;
        }

        {
            std::unique_lock<std::mutex> lock(mutex_);
            job_ = &fn;
            ctx_ = captureTaskContexts();
            jobSize_ = n;
            // Chunked index handout amortizes the atomic for cheap
            // bodies while keeping tail imbalance small.
            chunk_ = std::max<std::size_t>(
                1, n / (static_cast<std::size_t>(threads_) * 8));
            cursor_.store(0, std::memory_order_relaxed);
            pending_ = threads_ - 1;
            error_ = nullptr;
            ++generation_;
        }
        wake_.notify_all();

        drain(0);

        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [this] { return pending_ == 0; });
        job_ = nullptr;
        if (error_)
            std::rethrow_exception(error_);
    }

  private:
    void
    drain(int worker)
    {
        // Worker 0 is the submitting thread and already carries the
        // ambient contexts; everyone else adopts the captured ones for
        // the duration of the job.
        void *prev[kMaxContextHooks];
        const bool foreign = worker != 0;
        if (foreign)
            for (int h = 0; h < ctx_.count; ++h)
                prev[h] = g_ctx_hooks[h].install(ctx_.vals[h]);
        t_inParallel = true;
        while (true) {
            const std::size_t begin =
                cursor_.fetch_add(chunk_, std::memory_order_relaxed);
            if (begin >= jobSize_)
                break;
            const std::size_t end = std::min(jobSize_, begin + chunk_);
            try {
                for (std::size_t i = begin; i < end; ++i)
                    (*job_)(i, worker);
            } catch (...) {
                std::unique_lock<std::mutex> lock(mutex_);
                if (!error_)
                    error_ = std::current_exception();
                // Swallow the rest of the chunk; the cursor keeps
                // advancing so the job still drains.
            }
        }
        t_inParallel = false;
        if (foreign)
            for (int h = ctx_.count - 1; h >= 0; --h)
                g_ctx_hooks[h].restore(prev[h]);
    }

    void
    workerLoop(int worker)
    {
        std::uint64_t seen = 0;
        while (true) {
            {
                std::unique_lock<std::mutex> lock(mutex_);
                wake_.wait(lock, [&] {
                    return stop_ || generation_ != seen;
                });
                if (stop_)
                    return;
                seen = generation_;
            }
            drain(worker);
            {
                std::unique_lock<std::mutex> lock(mutex_);
                if (--pending_ == 0)
                    done_.notify_all();
            }
        }
    }

    const int threads_;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    bool stop_ = false;
    std::uint64_t generation_ = 0;
    int pending_ = 0;
    const std::function<void(std::size_t, int)> *job_ = nullptr;
    CapturedContexts ctx_;
    std::size_t jobSize_ = 0;
    std::size_t chunk_ = 1;
    std::atomic<std::size_t> cursor_{0};
    std::exception_ptr error_;
};

std::unique_ptr<ThreadPool> g_pool;
std::mutex g_pool_mutex;

/** Arena pool installed on this thread, if any (see ThreadArena). */
thread_local ThreadPool *t_arena = nullptr;

ThreadPool &
pool()
{
    if (t_arena)
        return *t_arena;
    std::unique_lock<std::mutex> lock(g_pool_mutex);
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(
            g_thread_override > 0 ? g_thread_override
                                  : defaultThreadCount());
    return *g_pool;
}

} // namespace

void
registerTaskContext(const TaskContextHooks &hooks)
{
    std::unique_lock<std::mutex> lock(g_ctx_hook_mutex);
    const int n = g_ctx_hook_count.load(std::memory_order_relaxed);
    RIF_ASSERT(n < kMaxContextHooks, "too many task contexts");
    g_ctx_hooks[n] = hooks;
    g_ctx_hook_count.store(n + 1, std::memory_order_release);
}

int
globalThreadCount()
{
    return pool().threadCount();
}

int
configuredThreadCount()
{
    std::unique_lock<std::mutex> lock(g_pool_mutex);
    return g_thread_override > 0 ? g_thread_override
                                 : defaultThreadCount();
}

void
setGlobalThreadCount(int n)
{
    std::unique_lock<std::mutex> lock(g_pool_mutex);
    g_pool.reset();
    g_thread_override = n > 0 ? std::min(n, 256) : 0;
    if (g_thread_override > 0)
        g_pool = std::make_unique<ThreadPool>(g_thread_override);
}

struct ThreadArena::Impl
{
    explicit Impl(int threads)
        : pool(threads), prev(t_arena)
    {
        t_arena = &pool;
    }
    ~Impl() { t_arena = prev; }

    ThreadPool pool;
    ThreadPool *prev;
};

ThreadArena::ThreadArena(int threads)
    : impl_(std::make_unique<Impl>(std::max(1, std::min(threads, 256))))
{
}

ThreadArena::~ThreadArena() = default;

int
ThreadArena::threadCount() const
{
    return impl_->pool.threadCount();
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn)
{
    pool().run(n, [&fn](std::size_t i, int) { fn(i); });
}

void
parallelForWorker(std::size_t n,
                  const std::function<void(std::size_t, int)> &fn)
{
    pool().run(n, fn);
}

std::vector<Rng>
forkStreams(Rng &parent, std::size_t n)
{
    std::vector<Rng> streams;
    streams.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        streams.push_back(parent.fork());
    return streams;
}

std::vector<Rng>
forkStreams(std::uint64_t seed, std::size_t n)
{
    Rng parent(seed);
    return forkStreams(parent, n);
}

} // namespace rif
