//===- support/ThreadPool.h - Shared fixed-size worker pool -----*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size worker pool shared by the persistence pipeline: async
/// prime payload validation and the parallel maintenance scans
/// (pcc-dbcheck, findCompatible, stats).
///
/// Host threads here are an implementation vehicle, never part of the
/// simulation: the cost model charges modeled cycles on the engine
/// thread at the same logical points regardless of the worker count, so
/// guest-visible results are bit-identical from zero workers up.
///
/// A pool with zero workers degenerates to inline execution at submit()
/// — callers need no separate synchronous code path, and tests can
/// force deterministic single-threaded execution through the exact same
/// plumbing.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_SUPPORT_THREADPOOL_H
#define PCC_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pcc {
namespace support {

/// Fixed worker threads draining a FIFO task queue.
class ThreadPool {
public:
  /// Spawns \p Workers threads. Zero workers is valid: submit() then
  /// runs the task inline on the calling thread.
  ///
  /// With \p Background set, workers try to drop to the lowest
  /// scheduling priority (nice +19 on Linux, SCHED_OTHER minimum via
  /// pthreads elsewhere on POSIX). The demotion is best-effort: where
  /// the platform refuses — or offers no per-thread priority at all —
  /// workers run at normal priority and still drain every task; see
  /// backgroundWorkerCount(). The persistence pipeline wants this:
  /// its tasks are pure latency hiding, so they should soak up idle
  /// CPU without ever preempting the engine thread — which matters
  /// most when cores are scarce, exactly when preemption would erase
  /// the pipeline's benefit. parallelFor's calling thread keeps its
  /// own priority either way.
  explicit ThreadPool(size_t Workers, bool Background = false);

  /// Drains the queue, joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  size_t workerCount() const { return Threads.size(); }

  /// Workers whose background-priority demotion actually took effect.
  /// 0 for non-background pools and on platforms without per-thread
  /// priority control; such pools still execute tasks normally.
  size_t backgroundWorkerCount() const {
    return BackgroundWorkers.load(std::memory_order_relaxed);
  }

  /// Enqueues \p Task. With zero workers, runs it before returning.
  void submit(std::function<void()> Task);

  /// Blocks until the queue is empty and no worker is mid-task. Tasks
  /// submitted by other threads while waiting extend the wait.
  void waitAll();

  /// Runs Fn(0..N-1) across the workers, the calling thread included,
  /// and returns when every index has completed. Indices are claimed
  /// dynamically, so callers must not depend on assignment order.
  /// Nested parallelFor from inside a task would deadlock-wait on its
  /// parent and is unsupported.
  void parallelFor(size_t N, const std::function<void(size_t)> &Fn);

  /// Worker count to use when the user does not specify one.
  static size_t defaultWorkerCount();

private:
  void workerMain();

  std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::condition_variable Idle;
  std::deque<std::function<void()>> Queue;
  std::vector<std::thread> Threads;
  size_t Running = 0; ///< Tasks currently executing on workers.
  bool ShuttingDown = false;
  std::atomic<size_t> BackgroundWorkers{0}; ///< Demotions that stuck.
};

} // namespace support
} // namespace pcc

#endif // PCC_SUPPORT_THREADPOOL_H
