#ifndef RAPID_NN_ARENA_H_
#define RAPID_NN_ARENA_H_

#include <cstddef>
#include <cstdint>

/// Thread-local scratch arenas for the inference hot path.
///
/// While an `ArenaScope` is live on a thread, every `operator new` on that
/// thread — `Matrix` buffers, autograd `Node`s, closure captures, container
/// rehashes — bump-allocates out of thread-local chunks instead of the
/// heap, and the matching `operator delete` is a no-op; the scope
/// destructor reclaims everything at once by rewinding the bump pointer.
/// Chunks are retained across scopes, so a *warm* scope (one whose peak
/// footprint fits chunks already reserved by an earlier scope on the same
/// thread) performs **zero heap allocations**: no `malloc`, no chunk
/// growth. `tests/arena_test.cc` pins that property for a steady-state
/// `RerankBatchInto` micro-batch using the per-thread counters below.
///
/// ## Lifetime rules (the contract)
///
///   1. Nothing allocated inside a scope may outlive it. Outputs must be
///      sized *before* the scope opens (see `ScoreBatch`) and only written
///      to inside; graph temporaries must be destroyed before the scope
///      closes (declare them after the `ArenaScope` so they unwind first).
///   2. Scopes nest: an inner scope rewinds to its own entry watermark and
///      leaves the outer scope's allocations intact.
///   3. A scope is thread-local state: do not hand arena-backed objects to
///      another thread, and do not hold one open across a blocking wait.
///   4. Deleting an arena pointer after its scope rewound is
///      use-after-reclaim, exactly like a heap use-after-free. Each block
///      carries a magic tag; `operator delete` aborts loudly on a tag it
///      does not recognize rather than corrupting the heap.
///
/// The switch `RAPID_ARENA=0|off` disables arenas process-wide (every
/// scope becomes a no-op and all allocation falls through to the heap);
/// under AddressSanitizer they default off so ASan keeps byte-accurate
/// redzones, and `RAPID_ARENA=1` forces them back on.
namespace rapid::nn::arena {

/// True when arenas are enabled for this process (env + sanitizer gate).
/// Decided once on first use.
bool Enabled();

/// RAII scope: from construction to destruction, this thread's `new`
/// routes into the thread-local arena. Destruction rewinds to the
/// construction-time watermark. No-op when `Enabled()` is false.
class ArenaScope {
 public:
  ArenaScope();
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  /// True when this scope actually activated the arena (false when the
  /// process gate is off).
  bool active() const { return active_; }

 private:
  void* chunk_ = nullptr;   // Chunk* watermark (opaque to callers).
  size_t used_ = 0;         // bytes used in `chunk_` at entry
  size_t total_used_ = 0;   // arena-wide bytes in use at entry
  bool active_ = false;
};

/// Monotonic per-thread allocation counters. Deltas across a region give
/// an exact allocation profile of that region on this thread.
struct ThreadCounters {
  uint64_t heap_allocs = 0;   // operator-new calls served by malloc
  uint64_t heap_frees = 0;    // operator-delete calls that hit free
  uint64_t arena_allocs = 0;  // operator-new calls served by the arena
  uint64_t chunk_mallocs = 0; // arena chunk growth events (cold scopes)
};

/// This thread's counters (cheap: reads thread-local integers).
ThreadCounters CountersThisThread();

/// This thread's arena footprint.
size_t ThreadBytesInUse();
size_t ThreadHighWaterBytes();
size_t ThreadReservedBytes();

/// Process-wide aggregates for `serve::ProcessStats` export.
struct GlobalStats {
  uint64_t heap_allocs = 0;
  uint64_t heap_frees = 0;
  uint64_t arena_allocs = 0;
  uint64_t chunk_mallocs = 0;
  uint64_t reserved_bytes = 0;    // chunk capacity of live threads' arenas
  uint64_t high_water_bytes = 0;  // max bytes-in-use seen by any one thread
};

GlobalStats GlobalArenaStats();

}  // namespace rapid::nn::arena

#endif  // RAPID_NN_ARENA_H_
