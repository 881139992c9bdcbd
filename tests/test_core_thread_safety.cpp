// Lock-rank check tests (core/thread_safety.hpp, DESIGN.md §13). Every
// mutex carries a static LockRank, and a blocking acquisition must rank
// strictly above the lock on top of the thread's held stack. The check
// must catch an inverted nesting, an equal-rank nesting and a
// same-thread re-acquisition the first time they run — with no history
// of the opposite order and without the schedule ever deadlocking — and
// must stay silent on the patterns the codebase uses (fft.cpp's
// sequential shared-then-exclusive double-checked cache,
// condition-variable waits, the family and pool nestings). Failures are
// made catchable with ScopedFailureMode(kThrow), the same idiom as
// test_contracts.cpp.

#include <thread>

#include <gtest/gtest.h>

#include "core/contracts.hpp"
#include "core/scenario.hpp"
#include "core/sim_pool.hpp"
#include "core/thread_safety.hpp"
#include "obs/family.hpp"

namespace {

using lscatter::LockRank;
using lscatter::core::ContractViolation;
using lscatter::core::contracts::FailureMode;
using lscatter::core::contracts::ScopedFailureMode;

#if LSCATTER_CHECKS_ENABLED

// Test mutexes that really nest are static, so no two tests nest
// mutexes at one recycled stack address: libstdc++'s std::mutex never
// calls pthread_mutex_destroy, so TSan's deadlock detector would keep a
// dead mutex's lock-order edges on its address and could see two
// correctly ranked nestings as an AB/BA cycle.

// Anti-neutering probe: if a build silently compiled the rank check out
// (or someone stubbed the hooks), kEnabled flips or an acquisition below
// the held top stops failing, and this suite fails instead of
// green-washing.
TEST(LockOrder, ValidatorIsCompiledIn) {
  static_assert(lscatter::lock_order::kEnabled,
                "lock-rank check must be active in checked builds");
  ScopedFailureMode guard(FailureMode::kThrow);
  static lscatter::Mutex low(LockRank::kCorePoolState);
  static lscatter::Mutex high(LockRank::kObsRegistry);
  {
    lscatter::LockGuard ll(low);
    EXPECT_EQ(lscatter::lock_order::held_count(), 1u);
    lscatter::LockGuard lh(high);
    EXPECT_EQ(lscatter::lock_order::held_count(), 2u);
  }
  EXPECT_EQ(lscatter::lock_order::held_count(), 0u);
  lscatter::LockGuard lh(high);
  EXPECT_THROW(low.lock(), ContractViolation);
}

TEST(LockOrder, AbBaInversionThrows) {
  ScopedFailureMode guard(FailureMode::kThrow);
  static lscatter::Mutex a(LockRank::kObsFamily);
  static lscatter::Mutex b(LockRank::kObsRegistry);
  {
    // The ranked order a -> b.
    lscatter::LockGuard la(a);
    lscatter::LockGuard lb(b);
  }
  // The opposite nesting is caught on acquisition, before any schedule
  // could actually deadlock.
  lscatter::LockGuard lb(b);
  EXPECT_THROW(a.lock(), ContractViolation);
  // The inversion fired before the underlying lock; a is still free.
  EXPECT_EQ(lscatter::lock_order::held_count(), 1u);
}

TEST(LockOrder, InversionAcrossThreeMutexesThrows) {
  ScopedFailureMode guard(FailureMode::kThrow);
  static lscatter::Mutex a(LockRank::kCorePoolState);
  static lscatter::Mutex b(LockRank::kObsFamily);
  static lscatter::Mutex c(LockRank::kObsRegistry);
  {
    lscatter::LockGuard la(a);
    lscatter::LockGuard lb(b);  // a -> b
  }
  {
    lscatter::LockGuard lb(b);
    lscatter::LockGuard lc(c);  // b -> c
  }
  // c -> a would close the cycle a -> b -> c -> a; a ranks below c, so
  // it is refused without consulting either earlier nesting.
  lscatter::LockGuard lc(c);
  EXPECT_THROW(a.lock(), ContractViolation);
}

// The real nestings of the tree, driven through the code that performs
// them, pin the LockRank table to the code: a rank table that put
// obs.registry below obs.family, or core.pool.state above obs.span_sink
// or obs.registry, fails here. A violation inside a pool worker throws
// from a span destructor, which terminates the test binary — still a
// failure, only a louder one.
TEST(LockOrder, RealNestingsFollowTheRankTable) {
  ScopedFailureMode guard(FailureMode::kThrow);

  // obs.family -> obs.registry: a new cell registers under the family
  // lock; past the cap, the overflow path bumps a registry counter too.
  lscatter::obs::CounterFamily family("test.lock_rank.cells", "k", 1);
  EXPECT_NO_THROW(family.cell("a").add(1));
  EXPECT_NO_THROW(family.cell("b").add(1));

  // core.pool.state -> obs.span_sink and -> obs.registry: a pooled
  // worker closes its enqueue span and registers its first-use metrics
  // under the pool lock. This is the binary's first pooled sweep, so the
  // registration path runs.
  lscatter::core::ScenarioOptions opt;
  opt.bandwidth = lscatter::lte::Bandwidth::kMHz1_4;
  opt.seed = 5;
  const lscatter::core::LinkConfig cfg =
      lscatter::core::make_scenario(lscatter::core::Scene::kSmartHome, opt);
  lscatter::core::PoolOptions options;
  options.threads = 2;
  std::size_t delivered = 0;
  EXPECT_NO_THROW(lscatter::core::for_each_drop(
      cfg, 4, 1, options,
      [&delivered](const lscatter::core::DropOutcome&) { ++delivered; }));
  EXPECT_EQ(delivered, 4u);
  EXPECT_EQ(lscatter::lock_order::held_count(), 0u);
}

// The inverted nesting runs first: no correct-order run precedes it, so
// only a static rank (not a recorded history) can catch it.
TEST(LockOrder, RankInversionThrowsWithoutHistory) {
  ScopedFailureMode guard(FailureMode::kThrow);
  lscatter::Mutex outer(LockRank::kObsFamily);
  lscatter::Mutex inner(LockRank::kObsRegistry);
  lscatter::LockGuard li(inner);
  EXPECT_THROW(outer.lock(), ContractViolation);
  EXPECT_EQ(lscatter::lock_order::held_count(), 1u);
}

// Two mutexes of one rank never nest: ranks must strictly increase.
TEST(LockOrder, EqualRankNestingThrows) {
  ScopedFailureMode guard(FailureMode::kThrow);
  lscatter::Mutex first(LockRank::kObsFamily);
  lscatter::Mutex second(LockRank::kObsFamily);
  lscatter::LockGuard lf(first);
  EXPECT_THROW(second.lock(), ContractViolation);
  EXPECT_EQ(lscatter::lock_order::held_count(), 1u);
}

TEST(LockOrder, SelfDeadlockThrows) {
  ScopedFailureMode guard(FailureMode::kThrow);
  lscatter::Mutex m(LockRank::kObsRegistry);
  lscatter::LockGuard lock(m);
  EXPECT_THROW(m.lock(), ContractViolation);
}

TEST(LockOrder, SharedSelfDeadlockThrows) {
  ScopedFailureMode guard(FailureMode::kThrow);
  // shared -> exclusive upgrade on the SAME thread while the shared lock
  // is still held: a real deadlock on std::shared_mutex, caught here.
  lscatter::SharedMutex m(LockRank::kDspFftPlanCache);
  lscatter::SharedLockGuard read(m);
  EXPECT_THROW(m.lock(), ContractViolation);
}

// The fft.cpp plan-cache pattern: take a shared lock, MISS, release it,
// then take the exclusive lock (upgrade-by-release, never in-place).
// Sequential acquisitions of one mutex never nest; the check must stay
// silent across repeats.
TEST(LockOrder, SharedThenExclusiveSequentialIsClean) {
  ScopedFailureMode guard(FailureMode::kThrow);
  lscatter::SharedMutex cache(LockRank::kDspFftPlanCache);
  for (int i = 0; i < 3; ++i) {
    {
      lscatter::SharedLockGuard read(cache);
      EXPECT_EQ(lscatter::lock_order::held_count(), 1u);
    }
    {
      lscatter::ExclusiveLockGuard write(cache);
      EXPECT_EQ(lscatter::lock_order::held_count(), 1u);
    }
  }
  EXPECT_EQ(lscatter::lock_order::held_count(), 0u);
}

// The held stack must stay exact across a condition-variable wait:
// CondVar is built on condition_variable_any over the wrapper UniqueLock
// precisely so the release/re-acquire inside wait() goes through the
// rank-check hooks.
TEST(LockOrder, CondVarWaitKeepsHeldStackExact) {
  lscatter::Mutex m(LockRank::kCorePoolState);
  lscatter::CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    {
      lscatter::LockGuard lock(m);
      ready = true;
    }
    cv.notify_one();
  });
  {
    lscatter::UniqueLock lock(m);
    EXPECT_EQ(lscatter::lock_order::held_count(), 1u);
    while (!ready) cv.wait(lock);
    EXPECT_EQ(lscatter::lock_order::held_count(), 1u);
  }
  EXPECT_EQ(lscatter::lock_order::held_count(), 0u);
  producer.join();
}

#else  // !LSCATTER_CHECKS_ENABLED

TEST(LockOrder, ValidatorCompiledOut) {
  // -DLSCATTER_CHECKS=OFF: the wrappers must degrade to plain locks.
  EXPECT_FALSE(lscatter::lock_order::kEnabled);
  EXPECT_EQ(lscatter::lock_order::held_count(), 0u);
  lscatter::Mutex m(LockRank::kObsRegistry);
  lscatter::LockGuard lock(m);
  EXPECT_EQ(lscatter::lock_order::held_count(), 0u);
}

#endif  // LSCATTER_CHECKS_ENABLED

}  // namespace
