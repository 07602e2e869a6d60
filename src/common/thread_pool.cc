#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

#if defined(__linux__)
#include <sched.h>
#endif

#include "audit/audit.h"
#include "common/check.h"

namespace tycos {

namespace {

// The pool and worker index of the calling thread; null outside a pool.
thread_local ThreadPool* tls_pool = nullptr;
thread_local int tls_worker = -1;

#if defined(__linux__)

int CurrentCpu() { return sched_getcpu(); }

// The CPUs the calling thread may run on, ascending.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

// Moves the calling thread onto `cpu`, then gives it back the affinity
// mask it had, so it runs there from now on and stays free to move. Best
// effort: on an error the thread stays where it is.
void MoveToCpu(int cpu) {
  cpu_set_t had;
  CPU_ZERO(&had);
  if (sched_getaffinity(0, sizeof(had), &had) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) return;
  sched_setaffinity(0, sizeof(had), &had);
}

#else  // no placement control: the kernel places every thread

int CurrentCpu() { return -1; }
std::vector<int> AllowedCpus() { return {}; }
void MoveToCpu(int) {}

#endif

}  // namespace

ThreadPool::ThreadPool(int num_workers) {
  TYCOS_CHECK_GE(num_workers, 0);
  if (num_workers > 0) cpus_ = AllowedCpus();
  if (cpus_.size() < 2) cpus_.clear();  // nothing to spread over
  worker_cpu_ = std::vector<std::atomic<int>>(static_cast<size_t>(num_workers));
  // Worker i starts on the i-th allowed CPU after the creator's, so the
  // workers and the creator (ParallelFor's extra executor) begin apart.
  size_t creator = 0;
  const int here = CurrentCpu();
  for (size_t k = 0; k < cpus_.size(); ++k) {
    if (cpus_[k] == here) creator = k;
  }
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    const int start =
        cpus_.empty()
            ? -1
            : cpus_[(creator + 1 + static_cast<size_t>(i)) % cpus_.size()];
    worker_cpu_[static_cast<size_t>(i)].store(start,
                                              std::memory_order_relaxed);
    workers_.emplace_back([this, i, start] {
      tls_pool = this;
      tls_worker = i;
      if (start >= 0) MoveToCpu(start);
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    SpreadWorker();
    task();
  }
}

void ThreadPool::SpreadWorker() {
  ThreadPool* pool = tls_pool;
  if (pool == nullptr || pool->cpus_.empty()) return;
  const int here = CurrentCpu();
  if (here < 0) return;
  const size_t self = static_cast<size_t>(tls_worker);
  std::vector<std::atomic<int>>& cpu_of = pool->worker_cpu_;
  const size_t n = cpu_of.size();
  cpu_of[self].store(here, std::memory_order_relaxed);
  // Of two workers on one CPU the higher-numbered one moves, so the pair
  // never both leave.
  bool shared = false;
  for (size_t j = 0; j < self && !shared; ++j) {
    shared = cpu_of[j].load(std::memory_order_relaxed) == here;
  }
  if (!shared) return;
  for (const int cpu : pool->cpus_) {
    bool taken = false;
    for (size_t j = 0; j < n && !taken; ++j) {
      taken = j != self && cpu_of[j].load(std::memory_order_relaxed) == cpu;
    }
    if (taken) continue;
    MoveToCpu(cpu);
    cpu_of[self].store(CurrentCpu(), std::memory_order_relaxed);
    return;
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  TYCOS_CHECK_GT(num_workers(), 0);
  {
    MutexLock lock(&mu_);
    queue_.push_back(std::move(task));
  }
  cv_.NotifyOne();
}

int ThreadPool::ResolveThreadCount(int requested) {
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int ThreadPool::ResolveNestedThreadCount(int requested, int outer_executors) {
  const int resolved = ResolveThreadCount(requested);
  const unsigned hw = std::thread::hardware_concurrency();
  const int hardware = hw > 0 ? static_cast<int>(hw) : 1;
  const int cap = std::max(1, hardware / std::max(1, outer_executors));
  return std::min(resolved, cap);
}

ThreadPool::ForStatus ThreadPool::ParallelFor(
    int64_t n, const RunContext& ctx,
    const std::function<std::optional<StopReason>(int64_t)>& body) {
  struct LoopState {
    std::atomic<int64_t> next{0};
    std::atomic<bool> stopped{false};
    std::atomic<int> reason{-1};  // first StopReason recorded, -1 = none
    Mutex mu;
    CondVar cv;
    int pending TYCOS_GUARDED_BY(mu) = 0;  // helper tasks still running
  } state;

  auto record_stop = [&state](StopReason r) {
    int expected = -1;
    state.reason.compare_exchange_strong(expected, static_cast<int>(r),
                                         std::memory_order_relaxed);
    state.stopped.store(true, std::memory_order_release);
  };

#if TYCOS_AUDIT_ENABLED
  // Prefix-claim audit: every executed index is marked by the executor that
  // claimed it; after the join the marks must form exactly [0, claimed).
  // std::atomic value-initializes in C++20, so the vector starts all-zero.
  std::vector<std::atomic<char>> executed(static_cast<size_t>(n));
#endif

  // Every executor claims indices in order from the shared counter. A claim
  // below n is always executed, so the executed set stays a prefix even when
  // a stop lands mid-loop.
  auto drain = [&] {
    while (!state.stopped.load(std::memory_order_acquire)) {
      if (const std::optional<StopReason> s = ctx.ShouldStop()) {
        record_stop(*s);
        break;
      }
      const int64_t i = state.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
#if TYCOS_AUDIT_ENABLED
      executed[static_cast<size_t>(i)].store(1, std::memory_order_relaxed);
#endif
      if (const std::optional<StopReason> s = body(i)) record_stop(*s);
    }
  };

  // No point waking more helpers than there are indices beyond the caller's
  // own share.
  const int helpers = static_cast<int>(
      std::min<int64_t>(num_workers(), std::max<int64_t>(n - 1, 0)));
  {
    MutexLock lock(&state.mu);
    state.pending = helpers;
  }
  for (int h = 0; h < helpers; ++h) {
    Submit([&state, &drain] {
      drain();
      // Notify under the lock: `state` lives on the caller's stack and is
      // destroyed as soon as the waiter observes pending == 0, so the signal
      // must complete before this task releases the mutex.
      MutexLock lock(&state.mu);
      --state.pending;
      state.cv.NotifyOne();
    });
  }

  drain();

  {
    MutexLock lock(&state.mu);
    while (state.pending != 0) state.cv.Wait(state.mu);
  }

  ForStatus status;
  status.claimed = std::min<int64_t>(n, state.next.load());
  const int reason = state.reason.load();
  if (reason >= 0) status.stop = static_cast<StopReason>(reason);

#if TYCOS_AUDIT_ENABLED
  {
    // The determinism contract of the parallel engine: the executed index
    // set is exactly the prefix [0, claimed), regardless of thread count
    // and stop timing. Holes or overshoot here mean torn result slots.
    static audit::Auditor* prefix_audit =
        audit::Get("thread_pool_prefix_claim");
    int64_t first_bad = -1;
    for (int64_t i = 0; i < n; ++i) {
      const bool ran = executed[static_cast<size_t>(i)].load(
                           std::memory_order_relaxed) != 0;
      if (ran != (i < status.claimed)) {
        first_bad = i;
        break;
      }
    }
    TYCOS_AUDIT_CHECK(
        prefix_audit, first_bad < 0,
        "ParallelFor executed set is not the prefix [0, " +
            std::to_string(status.claimed) + "): index " +
            std::to_string(first_bad) + " of n=" + std::to_string(n) +
            (first_bad < status.claimed ? " was skipped" : " was executed"));
  }
#endif
  return status;
}

}  // namespace tycos
