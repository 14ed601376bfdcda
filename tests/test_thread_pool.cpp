// Concurrency stress tests for the runtime ThreadPool. These are the tests
// the TSan CI job exists for (ctest -L tsan / the tsan CMake preset): every
// assertion here is also a data-race probe.
#include "ldc/runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

namespace ldc {
namespace {

TEST(ThreadPool, SizeOneRunsInlineWithNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran;
  pool.run_tasks({[&] { ran.push_back(std::this_thread::get_id()); },
                  [&] { ran.push_back(std::this_thread::get_id()); }});
  ASSERT_EQ(ran.size(), 2u);
  EXPECT_EQ(ran[0], caller);
  EXPECT_EQ(ran[1], caller);
}

TEST(ThreadPool, TaskBurstsReuseWorkers) {
  // Many small batches back-to-back: exercises the sleep/wake handshake
  // and reuse-after-drain; the counter sum certifies no task is lost or
  // duplicated across generations.
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  std::uint64_t expected = 0;
  for (int burst = 0; burst < 200; ++burst) {
    const std::size_t k = 1 + static_cast<std::size_t>(burst % 7);
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < k; ++i) {
      tasks.emplace_back([&sum, burst, i] {
        sum.fetch_add(static_cast<std::uint64_t>(burst) * 10 + i);
      });
      expected += static_cast<std::uint64_t>(burst) * 10 + i;
    }
    pool.run_tasks(std::move(tasks));
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPool, HeavyContendedBurst) {
  // One large batch of trivial tasks hammering the queue hand-off.
  ThreadPool pool(7);
  std::atomic<int> count{0};
  std::vector<std::function<void()>> tasks(5000, [&] { count.fetch_add(1); });
  pool.run_tasks(std::move(tasks));
  EXPECT_EQ(count.load(), 5000);
}

TEST(ThreadPool, ExceptionPropagatesLowestIndexFirst) {
  ThreadPool pool(4);
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([] {});
  tasks.emplace_back([] { throw std::runtime_error("task-1"); });
  tasks.emplace_back([] { throw std::logic_error("task-2"); });
  tasks.emplace_back([] {});
  try {
    pool.run_tasks(std::move(tasks));
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task-1");  // lowest throwing index wins
  }
}

TEST(ThreadPool, UsableAfterException) {
  // A throwing batch must drain fully and leave the pool reusable.
  ThreadPool pool(3);
  std::atomic<int> survivors{0};
  std::vector<std::function<void()>> bad;
  for (int i = 0; i < 20; ++i) {
    bad.emplace_back([&survivors, i] {
      if (i % 2 == 0) throw std::runtime_error("even task");
      survivors.fetch_add(1);
    });
  }
  EXPECT_THROW(pool.run_tasks(std::move(bad)), std::runtime_error);
  EXPECT_EQ(survivors.load(), 10);  // non-throwing tasks still ran

  std::atomic<int> after{0};
  std::vector<std::function<void()>> good(64, [&] { after.fetch_add(1); });
  pool.run_tasks(std::move(good));
  EXPECT_EQ(after.load(), 64);
}

TEST(ThreadPool, MoreTasksThanWorkersAndViceVersa) {
  ThreadPool pool(7);
  std::atomic<int> c1{0};
  pool.run_tasks({[&] { c1.fetch_add(1); }});  // fewer tasks than lanes
  EXPECT_EQ(c1.load(), 1);
  std::atomic<int> c2{0};
  std::vector<std::function<void()>> many(100, [&] { c2.fetch_add(1); });
  pool.run_tasks(std::move(many));
  EXPECT_EQ(c2.load(), 100);
}

TEST(ThreadPool, DefaultThreadCountHonorsEnv) {
  ASSERT_EQ(setenv("LDC_THREADS", "5", 1), 0);
  EXPECT_EQ(ThreadPool::default_thread_count(), 5u);
  ASSERT_EQ(setenv("LDC_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);  // falls back to hw
  ASSERT_EQ(setenv("LDC_THREADS", "0", 1), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);  // 0 is invalid too
  ASSERT_EQ(unsetenv("LDC_THREADS"), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

TEST(ThreadPool, DefaultThreadCountRejectsMalformedEnv) {
  // Every malformed value must resolve to the hardware-concurrency default,
  // never to a garbage pool size (strtol's partial parses, negatives,
  // overflow saturation, and absurdly large counts included).
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t fallback = hw == 0 ? 1 : hw;
  const char* bad[] = {
      "",      " ",          "-1",  "-0",         "3threads",
      "0x10",  "2.5",        "+ 4", "99999999999999999999",  // > LONG_MAX
      "-9223372036854775808000",                             // < LONG_MIN
      "1e3",   "eight",      "4 ",
      "5000",                                  // beyond the 4096 sanity cap
  };
  for (const char* v : bad) {
    ASSERT_EQ(setenv("LDC_THREADS", v, 1), 0);
    EXPECT_EQ(ThreadPool::default_thread_count(), fallback)
        << "LDC_THREADS=\"" << v << "\"";
  }
  // Boundary values that are valid must still be honored.
  ASSERT_EQ(setenv("LDC_THREADS", "1", 1), 0);
  EXPECT_EQ(ThreadPool::default_thread_count(), 1u);
  ASSERT_EQ(setenv("LDC_THREADS", "4096", 1), 0);
  EXPECT_EQ(ThreadPool::default_thread_count(), 4096u);
  ASSERT_EQ(unsetenv("LDC_THREADS"), 0);
}

TEST(ThreadPool, ZeroResolvesToDefault) {
  ASSERT_EQ(setenv("LDC_THREADS", "3", 1), 0);
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 3u);
  ASSERT_EQ(unsetenv("LDC_THREADS"), 0);
}

TEST(ThreadPool, DestructionWithIdleWorkersIsClean) {
  for (int i = 0; i < 25; ++i) {
    ThreadPool pool(4);  // construct + destruct churn
    if (i % 5 == 0) {
      pool.run_tasks(std::vector<std::function<void()>>(8, [] {}));
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace ldc
