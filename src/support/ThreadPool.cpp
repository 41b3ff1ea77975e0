//===- support/ThreadPool.cpp ---------------------------------------------===//

#include "support/ThreadPool.h"

#include <atomic>
#include <memory>

#ifdef __linux__
#include <cerrno>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#elif defined(__unix__) || defined(__APPLE__)
#include <pthread.h>
#include <sched.h>
#endif

using namespace pcc;
using namespace pcc::support;

namespace {

/// Drops the calling thread to the lowest scheduling priority. Returns
/// whether the demotion actually took effect — background mode is a
/// hint, and a pool whose platform cannot honor it must still run its
/// tasks at normal priority rather than fail.
bool enterBackgroundPriority() {
#ifdef __linux__
  // Raising one's own nice value needs no privilege, and on Linux
  // setpriority() with a tid affects just this thread. setpriority()
  // can legitimately return -1 as a prior nice value, so success is
  // errno staying clear, not the return value.
  errno = 0;
  if (setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)),
                  19) == -1 &&
      errno != 0)
    return false;
  return true;
#elif defined(__unix__) || defined(__APPLE__)
  // Portable POSIX fallback: pin this thread to the bottom of the
  // default scheduling class.
  sched_param Param{};
  Param.sched_priority = sched_get_priority_min(SCHED_OTHER);
  return pthread_setschedparam(pthread_self(), SCHED_OTHER, &Param) == 0;
#else
  return false; // No per-thread priority control on this platform.
#endif
}

} // namespace

ThreadPool::ThreadPool(size_t Workers, bool Background) {
  Threads.reserve(Workers);
  for (size_t I = 0; I != Workers; ++I)
    Threads.emplace_back([this, Background] {
      if (Background && enterBackgroundPriority())
        BackgroundWorkers.fetch_add(1, std::memory_order_relaxed);
      workerMain();
    });
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    ShuttingDown = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

void ThreadPool::workerMain() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkAvailable.wait(
          Lock, [this] { return ShuttingDown || !Queue.empty(); });
      if (Queue.empty())
        return; // Shutting down with nothing left to drain.
      Task = std::move(Queue.front());
      Queue.pop_front();
      ++Running;
    }
    Task();
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      --Running;
      if (Queue.empty() && Running == 0)
        Idle.notify_all();
    }
  }
}

void ThreadPool::submit(std::function<void()> Task) {
  if (Threads.empty()) {
    Task(); // Inline degenerate mode: same API, synchronous execution.
    return;
  }
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    Queue.push_back(std::move(Task));
  }
  WorkAvailable.notify_one();
}

void ThreadPool::waitAll() {
  std::unique_lock<std::mutex> Lock(Mutex);
  Idle.wait(Lock, [this] { return Queue.empty() && Running == 0; });
}

void ThreadPool::parallelFor(size_t N,
                             const std::function<void(size_t)> &Fn) {
  if (N == 0)
    return;
  if (Threads.empty() || N == 1) {
    for (size_t I = 0; I != N; ++I)
      Fn(I);
    return;
  }
  // Per-call completion state: waitAll() would also wait on unrelated
  // tasks sharing the pool (e.g. async-prime payload jobs in flight).
  struct LoopState {
    std::atomic<size_t> Next{0};
    std::atomic<size_t> Done{0};
    std::mutex Mutex;
    std::condition_variable AllDone;
  };
  auto State = std::make_shared<LoopState>();
  auto Drain = [State, N, &Fn] {
    size_t Completed = 0;
    for (;;) {
      size_t I = State->Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= N)
        break;
      Fn(I);
      ++Completed;
    }
    if (Completed == 0)
      return;
    size_t Total =
        State->Done.fetch_add(Completed, std::memory_order_acq_rel) +
        Completed;
    if (Total == N) {
      std::unique_lock<std::mutex> Lock(State->Mutex);
      State->AllDone.notify_all();
    }
  };
  size_t Helpers = std::min(Threads.size(), N - 1);
  for (size_t I = 0; I != Helpers; ++I)
    submit(Drain);
  // The calling thread participates, so progress never depends on the
  // pool being free of longer-running tasks.
  Drain();
  std::unique_lock<std::mutex> Lock(State->Mutex);
  State->AllDone.wait(Lock, [&] {
    return State->Done.load(std::memory_order_acquire) == N;
  });
}

size_t ThreadPool::defaultWorkerCount() {
  unsigned Hw = std::thread::hardware_concurrency();
  return Hw > 1 ? Hw - 1 : 1;
}
