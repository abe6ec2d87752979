// Unit tests for ecocloud::util — RNG, math, CSV, strings, thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ecocloud/util/csv.hpp"
#include "ecocloud/util/math.hpp"
#include "ecocloud/util/rng.hpp"
#include "ecocloud/util/string_util.hpp"
#include "ecocloud/util/thread_pool.hpp"
#include "ecocloud/util/validation.hpp"

namespace util = ecocloud::util;

// ---------------------------------------------------------------- validation

TEST(Validation, RequireThrowsInvalidArgument) {
  EXPECT_NO_THROW(util::require(true, "ok"));
  EXPECT_THROW(util::require(false, "bad"), std::invalid_argument);
}

TEST(Validation, EnsureThrowsLogicError) {
  EXPECT_NO_THROW(util::ensure(true, "ok"));
  EXPECT_THROW(util::ensure(false, "bug"), std::logic_error);
}

// ----------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  util::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  util::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  util::Rng parent(7);
  util::Rng c1 = parent.split(1);
  util::Rng c2 = parent.split(2);
  util::Rng c1again = parent.split(1);
  EXPECT_EQ(c1(), c1again());
  EXPECT_NE(c1(), c2());
}

TEST(Rng, UniformInUnitInterval) {
  util::Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformMeanApproximatelyHalf) {
  util::Rng rng(5);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  util::Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 7.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 7.0);
  }
  EXPECT_THROW(rng.uniform(2.0, 1.0), std::invalid_argument);
}

TEST(Rng, UniformIntCoversRangeWithoutBias) {
  util::Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(10)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
  EXPECT_THROW(rng.uniform_int(0), std::invalid_argument);
}

TEST(Rng, BernoulliEdgeCases) {
  util::Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequencyMatchesProbability) {
  util::Rng rng(19);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  util::Rng rng(23);
  const double rate = 0.5;
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.exponential(rate);
  EXPECT_NEAR(acc / n, 1.0 / rate, 0.05);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
}

TEST(Rng, NormalMomentsMatch) {
  util::Rng rng(29);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
  EXPECT_THROW(rng.normal(0.0, -1.0), std::invalid_argument);
}

TEST(Rng, DiscreteSamplesProportionallyToWeights) {
  util::Rng rng(31);
  const std::vector<double> weights{1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.discrete(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Rng, DiscreteSkipsZeroWeights) {
  util::Rng rng(37);
  const std::vector<double> weights{0.0, 1.0, 0.0};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rng.discrete(weights), 1u);
  }
}

TEST(Rng, DiscreteRejectsBadInput) {
  util::Rng rng(41);
  EXPECT_THROW(rng.discrete({}), std::invalid_argument);
  EXPECT_THROW(rng.discrete({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng.discrete({1.0, -1.0}), std::invalid_argument);
}

TEST(Rng, PermutationIsAPermutation) {
  util::Rng rng(43);
  const auto perm = rng.permutation(50);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Rng, IndexWithinBounds) {
  util::Rng rng(47);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.index(7), 7u);
  }
  EXPECT_THROW(rng.index(0), std::invalid_argument);
}

// ---------------------------------------------------------------------- math

TEST(Math, Clamp01) {
  EXPECT_DOUBLE_EQ(util::clamp01(-0.5), 0.0);
  EXPECT_DOUBLE_EQ(util::clamp01(0.5), 0.5);
  EXPECT_DOUBLE_EQ(util::clamp01(1.5), 1.0);
}

TEST(Math, Lerp) {
  EXPECT_DOUBLE_EQ(util::lerp(2.0, 4.0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(util::lerp(2.0, 4.0, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(util::lerp(2.0, 4.0, 1.0), 4.0);
}

TEST(Math, AlmostEqual) {
  EXPECT_TRUE(util::almost_equal(1.0, 1.0 + 1e-13));
  EXPECT_FALSE(util::almost_equal(1.0, 1.001));
  EXPECT_TRUE(util::almost_equal(1e9, 1e9 * (1.0 + 1e-10)));
}

TEST(Math, PolyvalHorner) {
  // 1 + 2x + 3x^2 at x = 2 -> 1 + 4 + 12 = 17
  EXPECT_DOUBLE_EQ(util::polyval({1.0, 2.0, 3.0}, 2.0), 17.0);
  EXPECT_DOUBLE_EQ(util::polyval({}, 5.0), 0.0);
}

TEST(Math, TrapzIntegratesLinearExactly) {
  // y = x sampled at 0,1,2,3 with dx=1: integral = 4.5
  EXPECT_DOUBLE_EQ(util::trapz({0.0, 1.0, 2.0, 3.0}, 1.0), 4.5);
  EXPECT_DOUBLE_EQ(util::trapz({5.0}, 1.0), 0.0);
}

TEST(Math, Mean) {
  EXPECT_DOUBLE_EQ(util::mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(util::mean({}), 0.0);
}

// ----------------------------------------------------------------------- csv

TEST(Csv, WriterFormatsRows) {
  std::ostringstream out;
  util::CsvWriter writer(out, 6);
  writer.header({"a", "b"});
  writer.row(std::vector<double>{1.5, 2.25});
  writer.comment("note");
  EXPECT_EQ(out.str(), "a,b\n1.5,2.25\n# note\n");
}

TEST(Csv, IncrementalRows) {
  std::ostringstream out;
  util::CsvWriter writer(out);
  writer.field("x").field(2.0).field(static_cast<long long>(7));
  writer.end_row();
  EXPECT_EQ(out.str(), "x,2,7\n");
}

TEST(Csv, ReadSkipsCommentsAndBlanks) {
  std::istringstream in("# header\n\n1, 2 ,3\n4,5,6\n");
  const auto rows = util::read_csv(in);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (util::CsvRow{"1", "2", "3"}));
  EXPECT_EQ(rows[1], (util::CsvRow{"4", "5", "6"}));
}

TEST(Csv, RoundTripDoublePrecision) {
  std::ostringstream out;
  util::CsvWriter writer(out, 17);
  const double value = 0.12345678901234567;
  writer.row(std::vector<double>{value});
  std::istringstream in(out.str());
  const auto rows = util::read_csv(in);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(util::parse_double(rows[0][0]), value);
}

TEST(Csv, SplitKeepsEmptyFields) {
  const auto fields = util::split_csv_line("a,,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "");
}

// ------------------------------------------------------------------- strings

TEST(StringUtil, Trim) {
  EXPECT_EQ(util::trim("  hi  "), "hi");
  EXPECT_EQ(util::trim("\t\n x"), "x");
  EXPECT_EQ(util::trim(""), "");
  EXPECT_EQ(util::trim("   "), "");
}

TEST(StringUtil, Split) {
  const auto parts = util::split("a:b::c", ':');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtil, ParseDouble) {
  EXPECT_DOUBLE_EQ(util::parse_double(" 2.5 "), 2.5);
  EXPECT_DOUBLE_EQ(util::parse_double("-1e3"), -1000.0);
  EXPECT_THROW((void)util::parse_double("abc"), std::invalid_argument);
  EXPECT_THROW((void)util::parse_double(""), std::invalid_argument);
  EXPECT_THROW((void)util::parse_double("1.5x"), std::invalid_argument);
}

TEST(StringUtil, ParseInt) {
  EXPECT_EQ(util::parse_int("42"), 42);
  EXPECT_EQ(util::parse_int("-7"), -7);
  EXPECT_THROW((void)util::parse_int("4.2"), std::invalid_argument);
  EXPECT_THROW((void)util::parse_int("99999999999999999999"), std::invalid_argument);
  EXPECT_THROW((void)util::parse_int("-99999999999999999999"), std::invalid_argument);
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(util::starts_with("ecocloud", "eco"));
  EXPECT_FALSE(util::starts_with("eco", "ecocloud"));
}

// --------------------------------------------------------------- thread pool

TEST(ThreadPool, ExecutesSubmittedTasks) {
  util::ThreadPool pool(4);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversRange) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(0, 100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  util::ThreadPool pool(2);
  pool.parallel_for(5, 5, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, ParallelForPropagatesException) {
  util::ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 10,
                        [](std::size_t i) {
                          if (i == 3) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ParallelForRunsEveryIndexEvenWhenOneThrows) {
  // An early chunk failing must not abandon the others: parallel_for
  // drains every chunk before rethrowing (fn is borrowed by reference, so
  // a still-running chunk after return would be use-after-scope).
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  // Throw from the END of the first chunk: the rest of a throwing chunk is
  // legitimately skipped, but every other chunk must still run to
  // completion before parallel_for rethrows.
  const std::size_t first_chunk_last =
      util::ThreadPool::chunk_bounds(0, 64, pool.size())[0].second - 1;
  EXPECT_THROW(pool.parallel_for(0, 64,
                                 [&](std::size_t i) {
                                   hits[i].fetch_add(1);
                                   if (i == first_chunk_last) {
                                     throw std::runtime_error("x");
                                   }
                                 }),
               std::runtime_error);
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ChunkBoundsAreDeterministicAndCoverRange) {
  // Static chunking: the index->chunk mapping is a pure function of
  // (range, worker count) — never of scheduling.
  const auto a = util::ThreadPool::chunk_bounds(0, 1000, 4);
  const auto b = util::ThreadPool::chunk_bounds(0, 1000, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);
  }
  // Contiguous cover of [0, 1000), at most workers*4 chunks.
  EXPECT_LE(a.size(), 16u);
  std::size_t expect_lo = 0;
  for (const auto& [lo, hi] : a) {
    EXPECT_EQ(lo, expect_lo);
    EXPECT_LT(lo, hi);
    expect_lo = hi;
  }
  EXPECT_EQ(expect_lo, 1000u);
}

TEST(ThreadPool, ChunkBoundsEdgeCases) {
  EXPECT_TRUE(util::ThreadPool::chunk_bounds(5, 5, 4).empty());
  // Fewer items than chunk slots: one chunk per item.
  const auto tiny = util::ThreadPool::chunk_bounds(10, 13, 8);
  ASSERT_EQ(tiny.size(), 3u);
  EXPECT_EQ(tiny[0], (std::pair<std::size_t, std::size_t>{10, 11}));
  EXPECT_EQ(tiny[2], (std::pair<std::size_t, std::size_t>{12, 13}));
}

TEST(ThreadPool, ManyTasksComplete) {
  util::ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(Csv, CommentWhileRowOpenIsAnError) {
  std::ostringstream out;
  util::CsvWriter writer(out);
  writer.field("a");
  EXPECT_THROW(writer.comment("oops"), std::logic_error);
  writer.end_row();
  EXPECT_NO_THROW(writer.comment("fine"));
}

TEST(Csv, PrecisionValidation) {
  std::ostringstream out;
  EXPECT_THROW(util::CsvWriter(out, 0), std::invalid_argument);
  EXPECT_THROW(util::CsvWriter(out, 18), std::invalid_argument);
}

TEST(Rng, SplitmixIsDeterministic) {
  std::uint64_t a = 5, b = 5;
  EXPECT_EQ(util::splitmix64(a), util::splitmix64(b));
  EXPECT_EQ(a, b);  // state advanced identically
}

TEST(ThreadPool, StopDrainsQueuedWorkBeforeJoining) {
  // More tasks than workers, each slow enough that most are still queued
  // when stop() begins: shutdown must run every queued task, not drop it.
  std::atomic<int> ran{0};
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      (void)pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ran.fetch_add(1);
      });
    }
    pool.stop();
    EXPECT_EQ(ran.load(), 64);  // stop() returned => everything ran
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, DestructorDrainsQueuedWork) {
  std::atomic<int> ran{0};
  {
    util::ThreadPool pool(1);
    for (int i = 0; i < 32; ++i) {
      (void)pool.submit([&ran] { ran.fetch_add(1); });
    }
  }  // destructor calls stop()
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, SubmitAfterStopThrows) {
  util::ThreadPool pool(2);
  pool.stop();
  EXPECT_TRUE(pool.stopping());
  EXPECT_THROW((void)pool.submit([] {}), std::runtime_error);
}

TEST(ThreadPool, StopIsIdempotentAndSafeFromManyThreads) {
  util::ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    (void)pool.submit([&ran] { ran.fetch_add(1); });
  }
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&pool] { pool.stop(); });
  }
  for (auto& t : stoppers) t.join();
  // Every stop() caller returned only after the drain + join completed.
  EXPECT_EQ(ran.load(), 16);
  pool.stop();  // and once more, for good measure
}
