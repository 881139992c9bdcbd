#pragma once
// Compile-time thread-safety capabilities + runtime lock ranks
// (DESIGN.md §13).
//
// Two enforcement layers share this header:
//
//  1. Clang Thread Safety Analysis (the Capability/GUARDED_BY model from
//     Hutchins et al., enabled by -Wthread-safety). The LSCATTER_*
//     macros below expand to the __attribute__((...)) spellings under
//     clang and to nothing elsewhere, so annotations cost nothing on gcc
//     and become build errors on the clang `-DLSCATTER_THREAD_SAFETY=ON`
//     lane (-Werror=thread-safety-analysis). Which mutex guards which
//     field, and which functions require which locks, is stated in the
//     types and checked on every build instead of sampled by TSan.
//
//  2. Static lock ranks checked at runtime inside the lscatter::Mutex /
//     SharedMutex wrappers. Every mutex is constructed with a LockRank
//     from the one enum below, which lists the tree's locks in the order
//     they may nest. Each thread keeps a held-lock stack, and a blocking
//     acquisition must carry a rank strictly greater than the rank on
//     top of that stack — an O(1) compare. An inverted nesting (the
//     AB/BA order a deadlock needs) fails the first time it runs, with
//     no history of the opposite order needed; so does a same-thread
//     re-acquisition (self-deadlock on a non-recursive mutex), whose
//     rank is equal, not greater. The check is active whenever contracts
//     are (default build) and compiles out entirely under
//     -DLSCATTER_CHECKS=OFF; failures route through core/contracts.hpp,
//     so LSCATTER_CONTRACTS=throw turns an inversion into a catchable
//     lscatter::core::ContractViolation for tests.
//
// Migration is mechanical: std::mutex -> lscatter::Mutex,
// std::shared_mutex -> lscatter::SharedMutex,
// std::lock_guard<std::mutex> -> lscatter::LockGuard,
// std::shared_lock -> lscatter::SharedLockGuard,
// std::unique_lock + std::condition_variable ->
// lscatter::UniqueLock + lscatter::CondVar. The lscatter-lint
// `raw-mutex` rule bans the std spellings in src/ outside this header
// so the whole tree stays on the checked wrappers.
//
// Like core/contracts.hpp this header is deliberately header-only and
// dependency-free so every layer (dsp upward) may include it without
// creating a link edge.

// The std primitives below are the implementation substrate of the
// wrappers; lscatter-lint's raw-mutex rule exempts this file (and only
// this file) from the std::mutex/std::lock_guard ban.
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <shared_mutex>

#include "core/contracts.hpp"

// ---- Clang Thread Safety Analysis attribute macros ----------------------
// Spellings follow the canonical mutex.h from the Clang TSA docs; the
// LSCATTER_ prefix keeps them greppable and avoids colliding with other
// libraries' THREAD_ANNOTATION macros. Only the attributes the tree uses
// are defined.

#if defined(__clang__) && !defined(SWIG)
#define LSCATTER_TSA_(x) __attribute__((x))
#else
#define LSCATTER_TSA_(x)  // no-op: gcc/msvc do not implement the analysis
#endif

/// A type whose instances can be held: `class LSCATTER_CAPABILITY("mutex")
/// Mutex { ... };`.
#define LSCATTER_CAPABILITY(x) LSCATTER_TSA_(capability(x))

/// RAII types that acquire in the constructor and release in the
/// destructor (LockGuard & friends below).
#define LSCATTER_SCOPED_CAPABILITY LSCATTER_TSA_(scoped_lockable)

/// Data member readable/writable only while the given capability is held.
#define LSCATTER_GUARDED_BY(x) LSCATTER_TSA_(guarded_by(x))

/// Function may only be called while the caller holds the capability
/// exclusively.
#define LSCATTER_REQUIRES(...) \
  LSCATTER_TSA_(requires_capability(__VA_ARGS__))

/// Function acquires/releases the capability (on `this` when no
/// argument is given — the wrapper-method form).
#define LSCATTER_ACQUIRE(...) \
  LSCATTER_TSA_(acquire_capability(__VA_ARGS__))
#define LSCATTER_ACQUIRE_SHARED(...) \
  LSCATTER_TSA_(acquire_shared_capability(__VA_ARGS__))
#define LSCATTER_RELEASE(...) \
  LSCATTER_TSA_(release_capability(__VA_ARGS__))
#define LSCATTER_RELEASE_SHARED(...) \
  LSCATTER_TSA_(release_shared_capability(__VA_ARGS__))

/// Function must NOT be called with the capability held (it acquires it
/// itself — calling it while held is a self-deadlock, caught at compile
/// time).
#define LSCATTER_EXCLUDES(...) LSCATTER_TSA_(locks_excluded(__VA_ARGS__))

/// Escape hatch. Every use must carry a comment justifying why the
/// analysis cannot model the function (the acceptance bar for this
/// repo: condition-variable wait is the only known-legitimate case).
#define LSCATTER_NO_THREAD_SAFETY_ANALYSIS \
  LSCATTER_TSA_(no_thread_safety_analysis)

namespace lscatter {

// ---- lock ranks ---------------------------------------------------------

/// Every mutex in the tree, in the order locks may nest: a thread may
/// block on a mutex only while every lock it holds has a strictly lower
/// rank. The order follows the nestings the code performs (DESIGN.md
/// §13): the pool worker closes its enqueue span and registers first-use
/// metrics under core.pool.state (-> obs.span_sink, -> obs.registry), and
/// a family registers a new cell under obs.family (-> obs.registry).
/// dsp.fft.plan_cache and obs.run_registry.append are leaves. A new
/// mutex gets a new entry here; two mutexes of one rank never nest.
enum class LockRank : std::uint8_t {
  kCorePoolState = 1,
  kObsFamily,
  kDspFftPlanCache,
  kObsRunRegistryAppend,
  kObsSpanSink,
  kObsRegistry,
};

constexpr const char* to_string(LockRank rank) {
  switch (rank) {
    case LockRank::kCorePoolState: return "core.pool.state";
    case LockRank::kObsFamily: return "obs.family";
    case LockRank::kDspFftPlanCache: return "dsp.fft.plan_cache";
    case LockRank::kObsRunRegistryAppend: return "obs.run_registry.append";
    case LockRank::kObsSpanSink: return "obs.span_sink";
    case LockRank::kObsRegistry: return "obs.registry";
  }
  return "<invalid lock rank>";
}

// ---- runtime rank check -------------------------------------------------

namespace lock_order {

#if LSCATTER_CHECKS_ENABLED

inline constexpr bool kEnabled = true;

namespace detail {

/// The calling thread's held locks, innermost last.
struct HeldStack {
  static constexpr std::size_t kMax = 32;
  struct Entry {
    const void* mutex = nullptr;
    LockRank rank{};
  } locks[kMax];
  std::size_t depth = 0;
};

inline HeldStack& held_stack() {
  thread_local HeldStack stack;
  return stack;
}

}  // namespace detail

/// Pre-acquisition check: `rank` must exceed the rank on top of the
/// held stack. Every push was checked, so ranks on the stack strictly
/// increase and the top is the held maximum. Runs BEFORE the real lock
/// call so the bug reports instead of wedging.
inline void check_acquire(const void* m, LockRank rank) {
  const detail::HeldStack& st = detail::held_stack();
  if (st.depth == 0 || rank > st.locks[st.depth - 1].rank) return;
  const auto& top = st.locks[st.depth - 1];
  char msg[192];
  std::snprintf(msg, sizeof(msg),
                "acquiring mutex '%s' (rank %d) while holding '%s' (rank %d)"
                " — %s",
                to_string(rank), static_cast<int>(rank), to_string(top.rank),
                static_cast<int>(top.rank),
                top.mutex == m ? "same-thread re-acquisition, a self-deadlock"
                               : "potential deadlock");
  core::contracts::fail("lock-order", "lock ranks strictly increase",
                        __FILE__, __LINE__, msg);
}

/// Post-acquisition bookkeeping: push onto the thread's held stack.
inline void acquired(const void* m, LockRank rank) {
  detail::HeldStack& st = detail::held_stack();
  LSCATTER_ASSERT(st.depth < detail::HeldStack::kMax,
                  "lock nesting exceeds the held-stack bound");
  if (st.depth < detail::HeldStack::kMax) st.locks[st.depth++] = {m, rank};
}

/// Release bookkeeping: drop `m` from the held stack (out-of-order
/// release of hand-over-hand patterns is legal, so search, don't pop;
/// removing any entry keeps the stack's ranks increasing).
inline void released(const void* m) {
  detail::HeldStack& st = detail::held_stack();
  for (std::size_t i = st.depth; i-- > 0;) {
    if (st.locks[i].mutex == m) {
      for (std::size_t j = i; j + 1 < st.depth; ++j) {
        st.locks[j] = st.locks[j + 1];
      }
      --st.depth;
      return;
    }
  }
  LSCATTER_ASSERT(false, "released a lock the rank check never saw acquired");
}

/// Locks the calling thread currently holds (test introspection).
inline std::size_t held_count() { return detail::held_stack().depth; }

#else  // !LSCATTER_CHECKS_ENABLED — everything compiles to nothing.

inline constexpr bool kEnabled = false;

inline void check_acquire(const void*, LockRank) {}
inline void acquired(const void*, LockRank) {}
inline void released(const void*) {}
inline std::size_t held_count() { return 0; }

#endif  // LSCATTER_CHECKS_ENABLED

}  // namespace lock_order

// ---- annotated drop-in lock wrappers -------------------------------------

/// std::mutex with a TSA capability and a lock rank.
class LSCATTER_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank) noexcept : rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() LSCATTER_ACQUIRE() {
    lock_order::check_acquire(this, rank_);
    m_.lock();
    lock_order::acquired(this, rank_);
  }

  void unlock() LSCATTER_RELEASE() {
    lock_order::released(this);
    m_.unlock();
  }

 private:
  std::mutex m_;
  const LockRank rank_;
};

/// std::shared_mutex with a TSA capability and a lock rank. Shared
/// acquisitions are ranked too: a reader-held lock still deadlocks
/// against a writer in a cycle.
class LSCATTER_CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(LockRank rank) noexcept : rank_(rank) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() LSCATTER_ACQUIRE() {
    lock_order::check_acquire(this, rank_);
    m_.lock();
    lock_order::acquired(this, rank_);
  }

  void unlock() LSCATTER_RELEASE() {
    lock_order::released(this);
    m_.unlock();
  }

  void lock_shared() LSCATTER_ACQUIRE_SHARED() {
    lock_order::check_acquire(this, rank_);
    m_.lock_shared();
    lock_order::acquired(this, rank_);
  }

  void unlock_shared() LSCATTER_RELEASE_SHARED() {
    lock_order::released(this);
    m_.unlock_shared();
  }

 private:
  std::shared_mutex m_;
  const LockRank rank_;
};

/// Drop-in for std::lock_guard<std::mutex>: exclusive for the scope.
class LSCATTER_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& m) LSCATTER_ACQUIRE(m) : mutex_(m) {
    mutex_.lock();
  }
  ~LockGuard() LSCATTER_RELEASE() { mutex_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mutex_;
};

/// Drop-in for std::shared_lock<std::shared_mutex>: shared (reader) for
/// the scope.
class LSCATTER_SCOPED_CAPABILITY SharedLockGuard {
 public:
  explicit SharedLockGuard(SharedMutex& m) LSCATTER_ACQUIRE_SHARED(m)
      : mutex_(m) {
    mutex_.lock_shared();
  }
  ~SharedLockGuard() LSCATTER_RELEASE() { mutex_.unlock_shared(); }

  SharedLockGuard(const SharedLockGuard&) = delete;
  SharedLockGuard& operator=(const SharedLockGuard&) = delete;

 private:
  SharedMutex& mutex_;
};

/// Exclusive scoped lock on a SharedMutex (the write side of a
/// double-checked read-mostly cache: dsp/fft.cpp's plan cache).
class LSCATTER_SCOPED_CAPABILITY ExclusiveLockGuard {
 public:
  explicit ExclusiveLockGuard(SharedMutex& m) LSCATTER_ACQUIRE(m)
      : mutex_(m) {
    mutex_.lock();
  }
  ~ExclusiveLockGuard() LSCATTER_RELEASE() { mutex_.unlock(); }

  ExclusiveLockGuard(const ExclusiveLockGuard&) = delete;
  ExclusiveLockGuard& operator=(const ExclusiveLockGuard&) = delete;

 private:
  SharedMutex& mutex_;
};

/// Drop-in for std::unique_lock<std::mutex>: relockable scope, the shape
/// condition-variable waits need. Always constructed locked.
class LSCATTER_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& m) LSCATTER_ACQUIRE(m) : mutex_(m) {
    mutex_.lock();
    owned_ = true;
  }
  ~UniqueLock() LSCATTER_RELEASE() {
    if (owned_) mutex_.unlock();
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() LSCATTER_ACQUIRE() {
    mutex_.lock();
    owned_ = true;
  }
  void unlock() LSCATTER_RELEASE() {
    mutex_.unlock();
    owned_ = false;
  }

  bool owns_lock() const { return owned_; }

 private:
  Mutex& mutex_;
  bool owned_ = false;
};

/// Condition variable paired with lscatter::Mutex/UniqueLock. Built on
/// condition_variable_any so the wait path re-enters the wrapper's
/// lock()/unlock() — the held-lock stack stays exact across waits.
/// Express wait predicates as named functions annotated
/// LSCATTER_REQUIRES(mutex) and loop at the call site:
///
///   while (!slot_ready(state)) state.result_ready.wait(lock);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `lock`, blocks, and re-acquires before
  /// returning. NO_THREAD_SAFETY_ANALYSIS is justified here and only
  /// here: the analysis cannot model a function that releases and
  /// re-acquires a caller's scoped capability mid-body — the caller's
  /// view ("held before, held after") stays consistent, which is what
  /// the analysis checks at the call site.
  void wait(UniqueLock& lock) LSCATTER_NO_THREAD_SAFETY_ANALYSIS {
    cv_.wait(lock);
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace lscatter
