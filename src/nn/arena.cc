// Thread-local bump arenas plus the program-wide operator new/delete
// replacement that routes into them.
//
// The replacement operators live in THIS translation unit on purpose:
// matrix.cc (and through it every binary in the repo) references arena
// symbols, so the archive member is always pulled in and the whole program
// — tests, benches, servers — gets one consistent allocator. A partial
// link (some TUs seeing the replacement, some not) would be an ODR
// disaster; anchoring the operators next to the arena state makes that
// impossible.
//
// Layout: every block we hand out is preceded by a 16-byte header
// `{magic, offset}` where `offset` is the distance back to the malloc base
// (heap blocks) or 0 (arena blocks). Delete reads the tag to decide
// between `free(ptr - offset)` and doing nothing. Sixteen bytes matches
// __STDCPP_DEFAULT_NEW_ALIGNMENT__, so the default-aligned fast path pays
// no extra padding.

#include "nn/arena.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

namespace rapid::nn::arena {
namespace {

constexpr size_t kHeaderSize = 16;
constexpr uint64_t kHeapMagic = 0x4841'5250'4944'2101ull;
constexpr uint64_t kArenaMagic = 0x4152'4150'4944'2102ull;
constexpr size_t kChunkPayload = 1u << 20;  // 1 MiB default chunk

struct BlockHeader {
  uint64_t magic;
  uint64_t offset;  // returned-pointer minus malloc base; 0 for arena
};
static_assert(sizeof(BlockHeader) == kHeaderSize);

// Chunk header lives at the front of its own malloc'd block; payload
// follows immediately.
struct Chunk {
  Chunk* next;
  Chunk* prev;
  size_t cap;   // payload capacity
  size_t used;  // payload bytes consumed
};

std::atomic<uint64_t> g_heap_allocs{0};
std::atomic<uint64_t> g_heap_frees{0};
std::atomic<uint64_t> g_arena_allocs{0};
std::atomic<uint64_t> g_chunk_mallocs{0};
std::atomic<uint64_t> g_reserved_bytes{0};
std::atomic<uint64_t> g_high_water{0};

// Constant-initialized (all initializers are constants) so operator new
// can consult it at any point of static initialization without ordering
// hazards. The destructor releases this thread's chunks at thread exit and
// takes them out of the process-wide reserved gauge.
struct ThreadArena {
  Chunk* head = nullptr;
  Chunk* cur = nullptr;
  int depth = 0;  // live ArenaScope nesting; 0 = route to heap
  size_t total_used = 0;
  size_t high_water = 0;
  size_t reserved = 0;
  uint64_t heap_allocs = 0;
  uint64_t heap_frees = 0;
  uint64_t arena_allocs = 0;
  uint64_t chunk_mallocs = 0;

  ~ThreadArena() {
    depth = 0;
    Chunk* c = head;
    head = cur = nullptr;
    while (c != nullptr) {
      Chunk* next = c->next;
      std::free(c);
      c = next;
    }
    g_reserved_bytes.fetch_sub(reserved, std::memory_order_relaxed);
    reserved = 0;
  }
};

thread_local ThreadArena tl_arena;

inline uintptr_t AlignUp(uintptr_t p, size_t align) {
  return (p + align - 1) & ~static_cast<uintptr_t>(align - 1);
}

void RaiseGlobalHighWater(uint64_t candidate) {
  uint64_t cur = g_high_water.load(std::memory_order_relaxed);
  while (candidate > cur &&
         !g_high_water.compare_exchange_weak(cur, candidate,
                                             std::memory_order_relaxed)) {
  }
}

// Appends a chunk able to hold `need` payload bytes after `after`
// (nullptr = empty arena).
Chunk* NewChunk(ThreadArena& ta, Chunk* after, size_t need) {
  size_t cap = need > kChunkPayload ? need : kChunkPayload;
  void* raw = std::malloc(sizeof(Chunk) + cap);
  if (raw == nullptr) return nullptr;
  Chunk* c = static_cast<Chunk*>(raw);
  c->cap = cap;
  c->used = 0;
  c->prev = after;
  c->next = after != nullptr ? after->next : nullptr;
  if (c->next != nullptr) c->next->prev = c;
  if (after != nullptr) {
    after->next = c;
  } else {
    ta.head = c;
  }
  ta.reserved += cap;
  ta.chunk_mallocs += 1;
  g_chunk_mallocs.fetch_add(1, std::memory_order_relaxed);
  g_reserved_bytes.fetch_add(cap, std::memory_order_relaxed);
  return c;
}

// Bump-allocates `size` bytes at `align` out of the thread arena, growing
// it if necessary. Returns the user pointer (header already written), or
// nullptr if chunk growth failed.
void* ArenaAlloc(ThreadArena& ta, size_t size, size_t align) {
  if (align < kHeaderSize) align = kHeaderSize;
  Chunk* c = ta.cur != nullptr ? ta.cur : ta.head;
  for (;;) {
    if (c != nullptr) {
      const uintptr_t base = reinterpret_cast<uintptr_t>(c + 1);
      const uintptr_t ptr = AlignUp(base + c->used + kHeaderSize, align);
      if (ptr + size <= base + c->cap) {
        const size_t new_used = (ptr + size) - base;
        ta.total_used += new_used - c->used;
        c->used = new_used;
        ta.cur = c;
        if (ta.total_used > ta.high_water) {
          ta.high_water = ta.total_used;
          RaiseGlobalHighWater(ta.high_water);
        }
        ta.arena_allocs += 1;
        g_arena_allocs.fetch_add(1, std::memory_order_relaxed);
        BlockHeader* h = reinterpret_cast<BlockHeader*>(ptr - kHeaderSize);
        h->magic = kArenaMagic;
        h->offset = 0;
        return reinterpret_cast<void*>(ptr);
      }
      if (c->next != nullptr) {
        // Retained chunks past `cur` are always rewound (used == 0) —
        // advance into them before growing.
        c = c->next;
        ta.cur = c;
        continue;
      }
    }
    Chunk* grown = NewChunk(ta, c, size + align + kHeaderSize);
    if (grown == nullptr) return nullptr;
    c = grown;
    ta.cur = c;
  }
}

bool EnabledFromEnv() {
  bool def = true;
#if defined(__SANITIZE_ADDRESS__)
  def = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  def = false;
#endif
#endif
  const char* env = std::getenv("RAPID_ARENA");
  if (env == nullptr || *env == '\0') return def;
  return !(std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0);
}

}  // namespace

// TU-internal seam between the arena state above and the global operator
// new/delete definitions at the bottom of this file.
namespace detail {

void* AllocImpl(size_t size, size_t align) {
  if (size == 0) size = 1;
  ThreadArena& ta = tl_arena;
  if (ta.depth > 0) {
    void* p = ArenaAlloc(ta, size, align);
    if (p != nullptr) return p;
    // Chunk growth failed (OOM): fall through to the heap path, which
    // reports failure through the usual new-handler protocol.
  }
  if (align < kHeaderSize) align = kHeaderSize;
  const size_t total = size + kHeaderSize + align;
  void* raw = std::malloc(total);
  if (raw == nullptr) return nullptr;
  const uintptr_t ptr =
      AlignUp(reinterpret_cast<uintptr_t>(raw) + kHeaderSize, align);
  BlockHeader* h = reinterpret_cast<BlockHeader*>(ptr - kHeaderSize);
  h->magic = kHeapMagic;
  h->offset = ptr - reinterpret_cast<uintptr_t>(raw);
  ta.heap_allocs += 1;
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return reinterpret_cast<void*>(ptr);
}

void FreeImpl(void* p) {
  if (p == nullptr) return;
  BlockHeader* h = reinterpret_cast<BlockHeader*>(
      reinterpret_cast<uintptr_t>(p) - kHeaderSize);
  if (h->magic == kArenaMagic) {
    // Bulk-reclaimed by the owning ArenaScope's rewind.
    return;
  }
  if (h->magic == kHeapMagic) {
    ThreadArena& ta = tl_arena;
    ta.heap_frees += 1;
    g_heap_frees.fetch_add(1, std::memory_order_relaxed);
    std::free(reinterpret_cast<char*>(p) - h->offset);
    return;
  }
  // Unknown tag: either a delete of an arena pointer after its scope
  // rewound (lifetime-rule violation) or heap corruption. Freeing a guess
  // would corrupt the allocator — fail fast instead.
  std::fprintf(stderr,
               "[rapid.nn.arena] operator delete on untagged pointer %p "
               "(arena lifetime violation or heap corruption)\n",
               p);
  std::abort();
}

void* ThrowingAlloc(size_t size, size_t align) {
  for (;;) {
    void* p = AllocImpl(size, align);
    if (p != nullptr) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace detail

bool Enabled() {
  static const bool enabled = EnabledFromEnv();
  return enabled;
}

ArenaScope::ArenaScope() {
  if (!Enabled()) return;
  ThreadArena& ta = tl_arena;
  chunk_ = ta.cur;
  used_ = ta.cur != nullptr ? ta.cur->used : 0;
  total_used_ = ta.total_used;
  ta.depth += 1;
  active_ = true;
}

ArenaScope::~ArenaScope() {
  if (!active_) return;
  ThreadArena& ta = tl_arena;
  Chunk* mark = static_cast<Chunk*>(chunk_);
  Chunk* c = ta.cur;
  while (c != nullptr && c != mark) {
    c->used = 0;
    c = c->prev;
  }
  if (c != nullptr) {
    c->used = used_;
    ta.cur = c;
  } else {
    // Scope opened on an empty arena: keep the chunks, rewind to start.
    ta.cur = ta.head;
  }
  ta.total_used = total_used_;
  ta.depth -= 1;
}

ThreadCounters CountersThisThread() {
  const ThreadArena& ta = tl_arena;
  return ThreadCounters{ta.heap_allocs, ta.heap_frees, ta.arena_allocs,
                        ta.chunk_mallocs};
}

size_t ThreadBytesInUse() { return tl_arena.total_used; }
size_t ThreadHighWaterBytes() { return tl_arena.high_water; }
size_t ThreadReservedBytes() { return tl_arena.reserved; }

GlobalStats GlobalArenaStats() {
  GlobalStats s;
  s.heap_allocs = g_heap_allocs.load(std::memory_order_relaxed);
  s.heap_frees = g_heap_frees.load(std::memory_order_relaxed);
  s.arena_allocs = g_arena_allocs.load(std::memory_order_relaxed);
  s.chunk_mallocs = g_chunk_mallocs.load(std::memory_order_relaxed);
  s.reserved_bytes = g_reserved_bytes.load(std::memory_order_relaxed);
  s.high_water_bytes = g_high_water.load(std::memory_order_relaxed);
  return s;
}

}  // namespace rapid::nn::arena

// ---------------------------------------------------------------------------
// Program-wide operator new/delete replacement. Throwing, nothrow, array,
// sized, and aligned forms all funnel into the seam above.
// ---------------------------------------------------------------------------

namespace arena_detail = rapid::nn::arena::detail;

void* operator new(std::size_t size) {
  return arena_detail::ThrowingAlloc(size, __STDCPP_DEFAULT_NEW_ALIGNMENT__);
}

void* operator new[](std::size_t size) {
  return arena_detail::ThrowingAlloc(size, __STDCPP_DEFAULT_NEW_ALIGNMENT__);
}

void* operator new(std::size_t size, std::align_val_t align) {
  return arena_detail::ThrowingAlloc(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return arena_detail::ThrowingAlloc(size, static_cast<std::size_t>(align));
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return arena_detail::AllocImpl(size, __STDCPP_DEFAULT_NEW_ALIGNMENT__);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return arena_detail::AllocImpl(size, __STDCPP_DEFAULT_NEW_ALIGNMENT__);
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return arena_detail::AllocImpl(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return arena_detail::AllocImpl(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { arena_detail::FreeImpl(p); }
void operator delete[](void* p) noexcept { arena_detail::FreeImpl(p); }
void operator delete(void* p, std::size_t) noexcept {
  arena_detail::FreeImpl(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  arena_detail::FreeImpl(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  arena_detail::FreeImpl(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  arena_detail::FreeImpl(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  arena_detail::FreeImpl(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  arena_detail::FreeImpl(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  arena_detail::FreeImpl(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  arena_detail::FreeImpl(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  arena_detail::FreeImpl(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  arena_detail::FreeImpl(p);
}
