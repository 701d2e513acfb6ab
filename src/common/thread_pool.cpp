#include "common/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "common/check.hpp"

namespace weipipe {

namespace {
// Set while a pool worker executes a chunk. A nested parallel_for from inside
// a chunk runs serially: claiming sub-chunks while every worker may be
// blocked waiting on its own sub-dispatch is a classic self-deadlock.
thread_local bool g_inside_pool_task = false;

// Claimed chunks per dispatch slot, beyond the caller-provided grain: small
// enough to amortize the claim fetch_add, large enough that uneven per-index
// cost still load-balances.
constexpr std::size_t kChunksPerThread = 4;

std::atomic<KernelObserver> g_kernel_observer{nullptr};

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Fires the observer on every exit path (including exceptions) of a dispatch.
struct KernelDispatchNotifier {
  KernelObserver observer;
  std::size_t items;
  std::int64_t start_ns;
  ~KernelDispatchNotifier() {
    if (observer != nullptr) {
      observer(items, start_ns, steady_ns());
    }
  }
};
}  // namespace

void set_kernel_observer(KernelObserver observer) {
  g_kernel_observer.store(observer, std::memory_order_relaxed);
}

// One per parallel_for_range call, on the dispatching thread's stack. The
// arena slot holds a pointer to it for the duration of the dispatch; workers
// may only dereference that pointer under the pool mutex (scan + join) or
// after registering themselves in `joined` (execution). A worker registers
// before it releases the pool mutex, so once the caller has cleared the slot
// under that mutex no new worker can join; the caller then waits for
// `joined` to drop back to zero before returning — so the frame outlives
// every access.
struct ThreadPool::Dispatch {
  RangeFn fn;
  void* ctx;
  std::size_t end;
  std::size_t chunk;
  std::atomic<std::size_t> next;  // next unclaimed index; >= end when drained

  std::mutex mu;
  std::condition_variable cv;
  int joined WEIPIPE_GUARDED_BY(mu) = 0;  // threads inside run_dispatch
  std::exception_ptr error WEIPIPE_GUARDED_BY(mu);
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::run_dispatch(Dispatch& d, bool is_worker) {
  std::uint64_t claimed = 0;
  for (;;) {
    const std::size_t lo = d.next.fetch_add(d.chunk);
    if (lo >= d.end) {
      break;
    }
    const std::size_t hi = std::min(d.end, lo + d.chunk);
    ++claimed;
    try {
      d.fn(d.ctx, lo, hi);
    } catch (...) {
      std::lock_guard<std::mutex> lk(d.mu);
      if (!d.error) {
        d.error = std::current_exception();
      }
      // Abandon the remaining range so other participants stop quickly.
      d.next.store(d.end);
    }
  }
  if (claimed > 0) {
    stat_chunks_.fetch_add(claimed, std::memory_order_relaxed);
    if (is_worker) {
      stat_steals_.fetch_add(claimed, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    Dispatch* d = nullptr;
    for (Dispatch* slot : slots_) {
      if (slot != nullptr &&
          slot->next.load(std::memory_order_relaxed) < slot->end) {
        d = slot;
        break;
      }
    }
    if (d == nullptr) {
      if (stop_) {
        return;
      }
      cv_.wait(lk);
      continue;
    }
    {
      // Registered while the pool mutex pins the slot (and so the frame);
      // from here the caller cannot return until we deregister.
      std::lock_guard<std::mutex> dlk(d->mu);
      ++d->joined;
    }
    lk.unlock();

    g_inside_pool_task = true;
    struct Reset {  // exception-safe: run_dispatch never throws, but keep the
      ~Reset() { g_inside_pool_task = false; }  // flag robust anyway
    } reset;
    run_dispatch(*d, /*is_worker=*/true);

    {
      std::lock_guard<std::mutex> dlk(d->mu);
      if (--d->joined == 0) {
        d->cv.notify_all();
      }
    }
    lk.lock();
  }
}

void ThreadPool::parallel_for_range(std::size_t begin, std::size_t end,
                                    RangeFn fn, void* ctx, std::size_t grain) {
  if (begin >= end) {
    return;
  }
  const KernelObserver observer =
      g_kernel_observer.load(std::memory_order_relaxed);
  KernelDispatchNotifier notifier{observer, end - begin,
                                  observer != nullptr ? steady_ns() : 0};
  const std::size_t n = end - begin;
  grain = std::max<std::size_t>(1, grain);
  // Chunk size honors the caller's grain as a floor, then widens so each
  // participant claims ~kChunksPerThread chunks (claim overhead amortizes,
  // uneven per-index cost still balances).
  const std::size_t participants = workers_.size() + 1;
  const std::size_t chunk =
      std::max(grain, n / (kChunksPerThread * participants));
  if (n <= chunk || workers_.empty() || g_inside_pool_task) {
    stat_serial_runs_.fetch_add(1, std::memory_order_relaxed);
    fn(ctx, begin, end);
    return;
  }

  Dispatch d;
  d.fn = fn;
  d.ctx = ctx;
  d.end = end;
  d.chunk = chunk;
  d.next.store(begin, std::memory_order_relaxed);

  std::size_t slot = kMaxDispatches;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t i = 0; i < kMaxDispatches; ++i) {
      if (slots_[i] == nullptr) {
        slots_[i] = &d;
        slot = i;
        break;
      }
    }
  }
  if (slot == kMaxDispatches) {
    // Arena full (more concurrent dispatchers than slots): run inline.
    stat_serial_runs_.fetch_add(1, std::memory_order_relaxed);
    fn(ctx, begin, end);
    return;
  }
  stat_dispatches_.fetch_add(1, std::memory_order_relaxed);
  stat_items_.fetch_add(n, std::memory_order_relaxed);
  cv_.notify_all();

  run_dispatch(d, /*is_worker=*/false);  // the caller participates

  {
    // Unpublish first: a worker that found the slot registered in `joined`
    // before releasing the pool mutex, so after this no worker can join.
    std::lock_guard<std::mutex> lk(mu_);
    slots_[slot] = nullptr;
  }
  std::exception_ptr error;
  {
    // Every registered worker is counted; when joined reaches 0 none of
    // them will touch `d` again.
    std::unique_lock<std::mutex> dlk(d.mu);
    d.cv.wait(dlk, [&] { return d.joined == 0; });
    error = d.error;
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain) {
  for_range(
      begin, end,
      [&fn](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          fn(i);
        }
      },
      grain);
}

ThreadPoolStats ThreadPool::stats() const {
  ThreadPoolStats s;
  s.dispatches = stat_dispatches_.load(std::memory_order_relaxed);
  s.serial_runs = stat_serial_runs_.load(std::memory_order_relaxed);
  s.items = stat_items_.load(std::memory_order_relaxed);
  s.chunks = stat_chunks_.load(std::memory_order_relaxed);
  s.steals = stat_steals_.load(std::memory_order_relaxed);
  return s;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  return pool;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain) {
  if (begin >= end) {
    return;
  }
  if (end - begin <= grain) {
    for (std::size_t i = begin; i < end; ++i) {
      fn(i);
    }
    return;
  }
  ThreadPool::global().parallel_for(begin, end, fn, grain);
}

}  // namespace weipipe
