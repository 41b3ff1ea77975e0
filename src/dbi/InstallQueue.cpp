//===- dbi/InstallQueue.cpp -----------------------------------------------===//

#include "dbi/InstallQueue.h"

#include "dbi/Compiler.h"
#include "support/Hashing.h"

using namespace pcc;
using namespace pcc::dbi;

ReadyTrace pcc::dbi::validatePersistedPayload(uint32_t Slot,
                                              uint32_t InstCount,
                                              const uint8_t *Raw,
                                              uint32_t RawBytes,
                                              const PersistedPayload &P) {
  ReadyTrace R;
  R.Slot = Slot;
  R.CrcOk = crc32(Raw, RawBytes) == P.ExpectedCodeCrc;
  if (!R.CrcOk)
    return R;
  // The stored bytes stay raw (a worker reads a shared cache view); a
  // rebase works on a private copy of the image.
  std::vector<uint8_t> Rebased;
  if (P.RebaseDelta != 0) {
    Rebased.assign(Raw, Raw + RawBytes);
    rebaseTranslatedImage(Rebased.data(), RawBytes, InstCount, P.RelocMask,
                          P.RebaseDelta);
    Raw = Rebased.data();
  }
  auto Body = isa::decodeAll(Raw + TracePrologueBytes, InstCount);
  if (!Body)
    R.DecodeError = Body.status();
  else
    R.Body = Body.take();
  return R;
}

void TraceInstallQueue::addJob(JobFn Fn) {
  std::unique_lock<std::mutex> Lock(Mutex);
  Jobs.push_back(Job{std::move(Fn), JobState::Unclaimed, {}});
}

bool TraceInstallQueue::runNextJob() {
  size_t Index;
  JobFn Fn;
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    while (NextScan != Jobs.size() &&
           Jobs[NextScan].State != JobState::Unclaimed)
      ++NextScan;
    if (NextScan == Jobs.size())
      return false;
    Index = NextScan++;
    Jobs[Index].State = JobState::Claimed;
    ++InFlight;
    ++Sched.ChunksClaimed;
    Fn = std::move(Jobs[Index].Fn);
  }
  std::vector<ReadyTrace> Results = Fn(); // Outside the lock.
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    Jobs[Index].Results = std::move(Results);
    Jobs[Index].State = JobState::Published;
    ++Sched.ChunksPublished;
    --InFlight;
  }
  Advanced.notify_all();
  return true;
}

std::vector<ReadyTrace> TraceInstallQueue::takeFor(uint32_t Slot) {
  std::unique_lock<std::mutex> Lock(Mutex);
  const size_t Index = Slot / PayloadChunkSlots;
  if (Index >= Jobs.size())
    return {};
  Job &J = Jobs[Index];
  switch (J.State) {
  case JobState::Unclaimed:
    // Withdraw: the engine needs the trace *now*; validating just that
    // one inline is exactly the synchronous path, and consuming the job
    // keeps a worker from repeating the work. The chunk-mates fall back
    // to the same inline path at their own first executions.
    J.State = JobState::Consumed;
    J.Fn = nullptr;
    ++Sched.ChunksWithdrawn;
    return {};
  case JobState::Claimed:
    // A worker is mid-validation. Do not wait for it: the workers may
    // run at background priority, so blocking here would invert
    // priorities and stall the run behind arbitrary external load. The
    // caller validates its one trace inline — duplicate host-side work
    // on immutable bytes, invisible to the cost model — and the
    // worker's result is simply never consumed for that trace.
    ++Sched.ChunksInFlightSkipped;
    return {};
  case JobState::Published:
    break;
  case JobState::Consumed:
    return {};
  }
  J.State = JobState::Consumed;
  return std::move(J.Results);
}

void TraceInstallQueue::cancelPending() {
  std::unique_lock<std::mutex> Lock(Mutex);
  for (Job &J : Jobs) {
    if (J.State != JobState::Unclaimed)
      continue;
    J.State = JobState::Consumed;
    J.Fn = nullptr;
  }
}

void TraceInstallQueue::waitInFlight() {
  std::unique_lock<std::mutex> Lock(Mutex);
  Advanced.wait(Lock, [this] { return InFlight == 0; });
}

ScheduleStats TraceInstallQueue::scheduleStats() const {
  std::unique_lock<std::mutex> Lock(Mutex);
  return Sched;
}
