// LockstepExecutor unit tests: contiguous pre-assigned shard spans,
// exactly-once execution, epoch/barrier reuse across thousands of rounds,
// exception propagation (and survival), a worker that cannot start,
// caller participation, a determinism stress over 1/2/8 threads, the
// facility's composition of an outer executor driving inner ones, and the
// wait's three stages: waves and exceptions after idles longer than the
// yield window (workers and caller parked on a futex), and an
// oversubscribed team (the yield path).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "spawn_failure.hpp"
#include "util/lockstep_executor.hpp"

namespace fsc {
namespace {

TEST(LockstepExecutor, RejectsZeroThreads) {
  EXPECT_THROW(LockstepExecutor(0), std::invalid_argument);
}

TEST(LockstepExecutor, AWorkerThatCannotStartIsANamedError) {
  // A thread that fails to spawn mid-constructor must not std::terminate
  // on the joinable workers already started: they are stopped and joined,
  // and the constructor throws naming the worker.
  if (!test::spawn_failure_supported()) {
    GTEST_SKIP() << "needs Linux RLIMIT_AS without a sanitizer runtime";
  }
  EXPECT_EXIT(test::construct_with_capped_address_space(
                  [] { LockstepExecutor exec(4096); }),
              testing::ExitedWithCode(0),
              "LockstepExecutor: could not start worker [0-9]+ of 4095: ");
}

TEST(LockstepExecutor, ReportsSize) {
  LockstepExecutor exec(3);
  EXPECT_EQ(exec.size(), 3u);
}

TEST(LockstepExecutor, RunsEveryIndexExactlyOnce) {
  LockstepExecutor exec(8);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> seen(kCount);
  exec.run(kCount, [&seen](std::size_t i) {
    seen[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "index " << i;
  }
}

TEST(LockstepExecutor, ZeroCountIsANoOp) {
  LockstepExecutor exec(4);
  exec.run(0, [](std::size_t) { FAIL() << "no shard should run"; });
}

TEST(LockstepExecutor, SingleThreadRunsInlineOnTheCaller) {
  LockstepExecutor exec(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t calls = 0;
  exec.run(16, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
  });
  EXPECT_EQ(calls, 16u);
}

TEST(LockstepExecutor, ShardsAreContiguousPerParticipant) {
  // Record which thread ran each index; every thread's index set must be
  // one contiguous span (the pre-assigned [count*p/P, count*(p+1)/P)
  // partition), and the spans must tile [0, count).
  LockstepExecutor exec(4);
  constexpr std::size_t kCount = 103;  // not a multiple of the team size
  std::vector<std::thread::id> owner(kCount);
  exec.run(kCount,
           [&owner](std::size_t i) { owner[i] = std::this_thread::get_id(); });

  std::map<std::thread::id, std::pair<std::size_t, std::size_t>> spans;
  for (std::size_t i = 0; i < kCount; ++i) {
    auto [it, inserted] = spans.emplace(owner[i], std::make_pair(i, i));
    if (!inserted) {
      // Contiguity: each new index owned by this thread extends its span
      // by exactly one.
      EXPECT_EQ(i, it->second.second + 1)
          << "participant's shard span is not contiguous at index " << i;
      it->second.second = i;
    }
  }
  EXPECT_LE(spans.size(), 4u);
  std::size_t covered = 0;
  for (const auto& [id, span] : spans) covered += span.second - span.first + 1;
  EXPECT_EQ(covered, kCount);
}

TEST(LockstepExecutor, CountBelowTeamSizeStillCoversEveryIndex) {
  LockstepExecutor exec(8);
  std::vector<std::atomic<int>> seen(3);
  exec.run(3, [&seen](std::size_t i) {
    seen[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(seen[i].load(), 1);
}

TEST(LockstepExecutor, EpochBarrierIsReusableAcrossThousandsOfRounds) {
  // The whole point of the persistent design: one executor, many rounds.
  // 2000 rounds x 16 shards with a per-round check that the previous
  // round fully completed before the next began (lockstep semantics).
  LockstepExecutor exec(4);
  std::atomic<long> total{0};
  long expected = 0;
  for (int round = 0; round < 2000; ++round) {
    exec.run(16, [&total](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
    expected += 16;
    // run() returned, so every shard of this epoch must have landed.
    ASSERT_EQ(total.load(), expected) << "round " << round;
  }
}

TEST(LockstepExecutor, PropagatesShardExceptions) {
  LockstepExecutor exec(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(exec.run(64,
                        [&ran](std::size_t i) {
                          if (i == 13) throw std::runtime_error("shard 13");
                          ran.fetch_add(1, std::memory_order_relaxed);
                        }),
               std::runtime_error);
  // Other participants' spans ran to completion (only the throwing
  // participant's span is cut short), and the executor stays usable.
  EXPECT_GT(ran.load(), 0);
  std::atomic<int> after{0};
  exec.run(64, [&after](std::size_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), 64);
}

TEST(LockstepExecutor, PropagatesCallerShardExceptionsToo) {
  // Index 0 always lands in participant 0's span — the calling thread.
  LockstepExecutor exec(4);
  EXPECT_THROW(exec.run(8,
                        [](std::size_t i) {
                          if (i == 0) throw std::logic_error("caller shard");
                        }),
               std::logic_error);
  std::size_t calls = 0;
  std::mutex m;
  exec.run(8, [&](std::size_t) {
    std::lock_guard<std::mutex> lock(m);
    ++calls;
  });
  EXPECT_EQ(calls, 8u);
}

TEST(LockstepExecutor, DeterministicSumAcross128Threads) {
  // The same sharded reduction over 1/2/8 threads must produce the same
  // result when each shard writes only its own slot — the usage contract
  // of the lockstep engines.
  constexpr std::size_t kCount = 777;
  std::vector<double> reference;
  for (std::size_t threads : {1u, 2u, 8u}) {
    LockstepExecutor exec(threads);
    std::vector<double> values(kCount, 0.0);
    for (int round = 0; round < 50; ++round) {
      exec.run(kCount, [&values, round](std::size_t i) {
        values[i] += static_cast<double>(i % 17) * (round + 1);
      });
    }
    if (reference.empty()) {
      reference = values;
    } else {
      EXPECT_EQ(values, reference) << "threads=" << threads;
    }
  }
}

TEST(LockstepExecutor, ComposesWithOneInnerExecutorPerOuterIndex) {
  // The facility's team: an outer executor of min(threads, rooms) leaders
  // whose shards each drive their room's own inner executor, sized
  // threads*(g+1)/rooms - threads*g/rooms when threads > rooms, else 1.
  constexpr std::size_t kCount = 37;
  for (std::size_t rooms : {1u, 2u, 3u}) {
    for (std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("rooms=" + std::to_string(rooms) +
                   " threads=" + std::to_string(threads));
      LockstepExecutor outer(std::min(threads, rooms));
      std::vector<std::unique_ptr<LockstepExecutor>> inner;
      std::size_t team = outer.size();
      for (std::size_t g = 0; g < rooms; ++g) {
        const std::size_t size =
            threads > rooms ? threads * (g + 1) / rooms - threads * g / rooms
                            : 1;
        inner.push_back(std::make_unique<LockstepExecutor>(size));
        team += size - 1;  // the inner caller is the room's leader
      }
      EXPECT_EQ(team, threads);

      std::vector<std::vector<std::atomic<int>>> hits(rooms);
      for (auto& row : hits) {
        std::vector<std::atomic<int>> fresh(kCount);
        row.swap(fresh);
      }
      for (int wave = 0; wave < 3; ++wave) {
        outer.run(rooms, [&](std::size_t g) {
          inner[g]->run(kCount, [&hits, g](std::size_t i) {
            hits[g][i].fetch_add(1, std::memory_order_relaxed);
          });
        });
      }
      for (std::size_t g = 0; g < rooms; ++g) {
        for (std::size_t i = 0; i < kCount; ++i) {
          EXPECT_EQ(hits[g][i].load(), 3) << "room " << g << " index " << i;
        }
      }

      // An inner shard's exception leaves the outer run() with its type.
      EXPECT_THROW(outer.run(rooms,
                             [&](std::size_t g) {
                               inner[g]->run(kCount, [g, rooms](std::size_t i) {
                                 if (g == rooms - 1 && i == 5) {
                                   throw std::out_of_range("inner shard");
                                 }
                               });
                             }),
                   std::out_of_range);

      // Both levels stay usable.
      std::atomic<std::size_t> after{0};
      outer.run(rooms, [&](std::size_t g) {
        inner[g]->run(kCount, [&after](std::size_t) {
          after.fetch_add(1, std::memory_order_relaxed);
        });
      });
      EXPECT_EQ(after.load(), rooms * kCount);
    }
  }
}

/// Longer than the yield window, so every waiting participant has parked
/// on its futex by the time it ends.
constexpr auto kPastTheYieldWindow = 4 * LockstepExecutor::kYieldWindow;

TEST(LockstepExecutor, WavesAfterAnIdlePastTheYieldWindowCoverEveryIndex) {
  LockstepExecutor exec(4);
  constexpr std::size_t kCount = 103;
  std::vector<std::atomic<int>> seen(kCount);
  for (int wave = 1; wave <= 3; ++wave) {
    // The workers park during the sleep; the epoch bump must wake them.
    std::this_thread::sleep_for(kPastTheYieldWindow);
    exec.run(kCount, [&seen](std::size_t i) {
      seen[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(seen[i].load(), wave) << "wave " << wave << " index " << i;
    }
  }
  // A slow last shard parks the caller on the arrival counter; the last
  // arrival must wake it.
  std::atomic<int> ran{0};
  exec.run(4, [&ran](std::size_t i) {
    if (i == 3) std::this_thread::sleep_for(kPastTheYieldWindow);
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 4);
}

TEST(LockstepExecutor, ShardExceptionsAfterAnIdleStillRethrow) {
  LockstepExecutor exec(4);
  std::this_thread::sleep_for(kPastTheYieldWindow);
  EXPECT_THROW(exec.run(64,
                        [](std::size_t i) {
                          if (i == 63) throw std::runtime_error("parked");
                        }),
               std::runtime_error);
  // The throwing worker is slow too, so the caller has parked first.
  EXPECT_THROW(exec.run(64,
                        [](std::size_t i) {
                          if (i == 63) {
                            std::this_thread::sleep_for(kPastTheYieldWindow);
                            throw std::out_of_range("late");
                          }
                        }),
               std::out_of_range);
  std::atomic<int> after{0};
  exec.run(64, [&after](std::size_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), 64);
}

TEST(LockstepExecutor, OversubscribedTeamRunsThousandsOfRounds) {
  // Twice as many participants as cores: waiting threads must yield their
  // core to those with work left, or every round stalls a time slice.
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t team = std::min<std::size_t>(16, 2 * hw);
  LockstepExecutor exec(team);
  std::vector<std::atomic<int>> seen(2 * team);
  for (int round = 1; round <= 2000; ++round) {
    exec.run(seen.size(), [&seen](std::size_t i) {
      seen[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < seen.size(); ++i) {
      ASSERT_EQ(seen[i].load(), round) << "round " << round << " index " << i;
    }
  }
}

}  // namespace
}  // namespace fsc
