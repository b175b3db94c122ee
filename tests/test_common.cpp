#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/bits.h"
#include "common/check.h"
#include "common/cli.h"
#include "common/io.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/shutdown.h"
#include "common/table.h"

namespace qfab {
namespace {

// ---------- bits ----------

TEST(Bits, Pow2) {
  EXPECT_EQ(pow2(0), 1u);
  EXPECT_EQ(pow2(1), 2u);
  EXPECT_EQ(pow2(16), 65536u);
  EXPECT_EQ(pow2(63), u64{1} << 63);
  EXPECT_THROW(pow2(64), CheckError);
  EXPECT_THROW(pow2(-1), CheckError);
}

TEST(Bits, GetSetClearFlip) {
  EXPECT_EQ(get_bit(0b1010, 1), 1);
  EXPECT_EQ(get_bit(0b1010, 0), 0);
  EXPECT_EQ(set_bit(0b1010, 0), 0b1011u);
  EXPECT_EQ(clear_bit(0b1010, 1), 0b1000u);
  EXPECT_EQ(flip_bit(0b1010, 3), 0b0010u);
  EXPECT_EQ(flip_bit(0b1010, 2), 0b1110u);
}

TEST(Bits, InsertZeroBit) {
  // Inserting at position 0 shifts everything left.
  EXPECT_EQ(insert_zero_bit(0b111, 0), 0b1110u);
  // Inserting at position 1 keeps bit 0.
  EXPECT_EQ(insert_zero_bit(0b111, 1), 0b1101u);
  EXPECT_EQ(insert_zero_bit(0b111, 3), 0b0111u);
  // Enumerating g in [0, 2^{n-1}) with a zero inserted at q yields every
  // index with bit q clear, exactly once.
  const int n = 5, q = 2;
  std::set<u64> seen;
  for (u64 g = 0; g < pow2(n - 1); ++g) {
    const u64 i = insert_zero_bit(g, q);
    EXPECT_EQ(get_bit(i, q), 0);
    seen.insert(i);
  }
  EXPECT_EQ(seen.size(), pow2(n - 1));
}

TEST(Bits, InsertTwoZeroBits) {
  const int n = 6, b1 = 1, b2 = 4;
  std::set<u64> seen;
  for (u64 g = 0; g < pow2(n - 2); ++g) {
    const u64 i = insert_two_zero_bits(g, b1, b2);
    EXPECT_EQ(get_bit(i, b1), 0);
    EXPECT_EQ(get_bit(i, b2), 0);
    seen.insert(i);
  }
  EXPECT_EQ(seen.size(), pow2(n - 2));
}

TEST(Bits, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(4), 2);
  EXPECT_EQ(ceil_log2(5), 3);
  EXPECT_EQ(ceil_log2(1024), 10);
}

TEST(Bits, ReverseBits) {
  EXPECT_EQ(reverse_bits(0b001, 3), 0b100u);
  EXPECT_EQ(reverse_bits(0b110, 3), 0b011u);
  EXPECT_EQ(reverse_bits(0b1011, 4), 0b1101u);
  for (u64 x = 0; x < 32; ++x)
    EXPECT_EQ(reverse_bits(reverse_bits(x, 5), 5), x);
}

// ---------- rng ----------

TEST(Rng, DeterministicStreams) {
  Pcg64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  Pcg64 c(43);
  bool differs = false;
  Pcg64 a2(42);
  for (int i = 0; i < 10; ++i) differs |= (a2() != c());
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformInUnitInterval) {
  Pcg64 rng(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntRangeAndMean) {
  Pcg64 rng(11);
  std::vector<int> hist(10, 0);
  for (int i = 0; i < 50000; ++i) ++hist[rng.uniform_int(10)];
  for (int h : hist) EXPECT_NEAR(h, 5000, 500);
}

TEST(Rng, SplitIndependence) {
  Pcg64 root(5);
  Pcg64 a = root.split(1);
  Pcg64 b = root.split(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, BinomialMoments) {
  Pcg64 rng(13);
  // Small-mean branch.
  {
    double sum = 0.0;
    const int reps = 20000;
    for (int i = 0; i < reps; ++i)
      sum += static_cast<double>(binomial(rng, 100, 0.05));
    EXPECT_NEAR(sum / reps, 5.0, 0.1);
  }
  // Normal-approximation branch.
  {
    double sum = 0.0, sq = 0.0;
    const int reps = 20000;
    for (int i = 0; i < reps; ++i) {
      const double k = static_cast<double>(binomial(rng, 2048, 0.5));
      sum += k;
      sq += k * k;
    }
    const double mean = sum / reps;
    const double var = sq / reps - mean * mean;
    EXPECT_NEAR(mean, 1024.0, 2.0);
    EXPECT_NEAR(var, 512.0, 40.0);
  }
}

TEST(Rng, BinomialEdgeCases) {
  Pcg64 rng(17);
  EXPECT_EQ(binomial(rng, 0, 0.5), 0u);
  EXPECT_EQ(binomial(rng, 100, 0.0), 0u);
  EXPECT_EQ(binomial(rng, 100, 1.0), 100u);
  EXPECT_THROW(binomial(rng, 10, 1.5), CheckError);
}

TEST(Rng, MultinomialConservesTrials) {
  Pcg64 rng(19);
  const std::vector<double> probs = {0.5, 0.25, 0.125, 0.125};
  for (int rep = 0; rep < 50; ++rep) {
    const auto counts = multinomial(rng, 2048, probs);
    std::uint64_t total = 0;
    for (auto c : counts) total += c;
    ASSERT_EQ(total, 2048u);
  }
}

TEST(Rng, MultinomialMeans) {
  Pcg64 rng(23);
  const std::vector<double> probs = {0.7, 0.2, 0.1};
  std::vector<double> sums(3, 0.0);
  const int reps = 2000;
  for (int rep = 0; rep < reps; ++rep) {
    const auto counts = multinomial(rng, 1000, probs);
    for (int i = 0; i < 3; ++i) sums[i] += static_cast<double>(counts[i]);
  }
  EXPECT_NEAR(sums[0] / reps, 700.0, 5.0);
  EXPECT_NEAR(sums[1] / reps, 200.0, 5.0);
  EXPECT_NEAR(sums[2] / reps, 100.0, 5.0);
}

TEST(Rng, MultinomialUnnormalizedProbs) {
  Pcg64 rng(27);
  // Scaling all probabilities must not change the law.
  const auto counts = multinomial(rng, 10000, {2.0, 2.0});
  EXPECT_NEAR(static_cast<double>(counts[0]), 5000.0, 300.0);
}

TEST(Rng, SampleWithoutReplacement) {
  Pcg64 rng(31);
  // Dense branch.
  const auto dense = sample_without_replacement(rng, 10, 8);
  EXPECT_EQ(dense.size(), 8u);
  EXPECT_TRUE(std::is_sorted(dense.begin(), dense.end()));
  EXPECT_EQ(std::set<std::uint64_t>(dense.begin(), dense.end()).size(), 8u);
  // Sparse branch.
  const auto sparse = sample_without_replacement(rng, 1000000, 5);
  EXPECT_EQ(std::set<std::uint64_t>(sparse.begin(), sparse.end()).size(), 5u);
  // Full draw is a permutation of [0, n).
  const auto all = sample_without_replacement(rng, 6, 6);
  for (std::uint64_t i = 0; i < 6; ++i) EXPECT_EQ(all[i], i);
}

// ---------- parallel ----------

TEST(Parallel, PoolRunsOnItsParallelismCount) {
  // A pool of parallelism T starts T - 1 workers, and the caller drains
  // chunks beside them: one call's chunks run on at most T distinct
  // threads, and on more than one.
  for (const std::size_t T : {std::size_t{2}, std::size_t{4}}) {
    ThreadPool pool(T);
    EXPECT_EQ(pool.parallelism(), T);
    EXPECT_EQ(pool.size(), T - 1);
    std::mutex mu;
    std::set<std::thread::id> seen;
    parallel_for_chunked(
        pool, 0, 64,
        [&](std::size_t, std::size_t) {
          {
            std::lock_guard lock(mu);
            seen.insert(std::this_thread::get_id());
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        },
        1);
    EXPECT_LE(seen.size(), T) << "T=" << T;
    EXPECT_GT(seen.size(), 1u) << "T=" << T;
  }
}

TEST(Parallel, ChunkedCoversRangeExactlyOnce) {
  for (std::size_t chunk : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                            std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(1000);
    parallel_for_chunked(
        0, 1000,
        [&](std::size_t lo, std::size_t hi) {
          EXPECT_LT(lo, hi);
          EXPECT_LE(hi, 1000u);
          for (std::size_t i = lo; i < hi; ++i) ++hits[i];
        },
        chunk);
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(Parallel, ChunkedOffsetRangeAndEmpty) {
  std::vector<std::atomic<int>> hits(100);
  parallel_for_chunked(40, 100, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_EQ(hits[i].load(), i >= 40 ? 1 : 0);

  bool called = false;
  parallel_for_chunked(9, 9,
                       [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, GrainFloorCoversChunkBoundaries) {
  // Every (n, chunk) combination — a one-index range, ragged tails, a
  // chunk larger than the whole range — must cover each index exactly
  // once with ordered, in-range chunk boundaries.
  for (std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{64},
                        std::size_t{1000}}) {
    for (std::size_t chunk : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{5000}}) {
      std::vector<std::atomic<int>> hits(n);
      parallel_for_chunked(
          0, n,
          [&](std::size_t lo, std::size_t hi) {
            EXPECT_LT(lo, hi);
            EXPECT_LE(hi, n);
            for (std::size_t i = lo; i < hi; ++i) ++hits[i];
          },
          chunk);
      for (auto& h : hits)
        EXPECT_EQ(h.load(), 1) << "n=" << n << " chunk=" << chunk;
    }
  }
}

TEST(Parallel, BodyExceptionRethrownOnCaller) {
  // A throwing body must surface on the calling thread (not
  // std::terminate the worker), and the pool must stay usable after.
  EXPECT_THROW(
      parallel_for_chunked(
          0, 1000,
          [&](std::size_t lo, std::size_t hi) {
            // Keyed on containment, not chunk boundaries: holds under any
            // chunking, including the whole-range serial fallback.
            if (lo <= 500 && 500 < hi) throw std::runtime_error("body failed");
          },
          1),
      std::runtime_error);

  // CheckError (the repo's own assertion type) propagates with its type.
  EXPECT_THROW(parallel_for_chunked(
                   0, 64,
                   [&](std::size_t lo, std::size_t hi) {
                     QFAB_CHECK_MSG(!(lo <= 40 && 40 < hi),
                                    "index 40 rejected");
                   },
                   1),
               CheckError);

  // The pool was not wedged by the failed calls: a full pass still covers
  // every index exactly once.
  std::vector<std::atomic<int>> hits(1000);
  parallel_for_chunked(0, 1000, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ExceptionCancelsButNeverRepeats) {
  // After the first exception remaining chunks are cancelled; every index
  // is visited at most once either way.
  std::vector<std::atomic<int>> hits(512);
  std::atomic<int> failures{0};
  try {
    parallel_for_chunked(
        0, 512,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) ++hits[i];
          if (lo <= 256 && 256 < hi) throw std::runtime_error("halfway");
        },
        8);
  } catch (const std::runtime_error&) {
    ++failures;
  }
  EXPECT_EQ(failures.load(), 1);
  for (auto& h : hits) EXPECT_LE(h.load(), 1);
}

TEST(Parallel, NestedCallsDoNotDeadlock) {
  // A pool-worker caller must be able to run a nested parallel loop to
  // completion even when every other worker is blocked in the same
  // position (the callers help drain their own and each other's chunks).
  std::atomic<long> total{0};
  parallel_for_chunked(
      0, 32,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
          parallel_for_chunked(
              0, 100,
              [&](std::size_t a, std::size_t b) {
                total += static_cast<long>(b - a);
              },
              1);
      },
      1);
  EXPECT_EQ(total.load(), 3200);
}

TEST(Parallel, NestedExceptionPropagatesThroughBothLevels) {
  EXPECT_THROW(
      parallel_for_chunked(
          0, 8,
          [&](std::size_t lo, std::size_t hi) {
            parallel_for_chunked(
                0, 64,
                [&](std::size_t a, std::size_t b) {
                  if (lo <= 4 && 4 < hi && a <= 32 && 32 < b)
                    throw std::runtime_error("inner");
                },
                1);
          },
          1),
      std::runtime_error);
}

TEST(Parallel, ConcurrentTopLevelCallers) {
  // Multiple plain threads sharing the pool at once: each call's
  // completion wait tracks only its own chunks.
  constexpr int kThreads = 4;
  constexpr std::size_t kN = 2000;
  std::vector<std::vector<std::atomic<int>>> hits(kThreads);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kN);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      parallel_for_chunked(
          0, kN,
          [&, t](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) ++hits[t][i];
          },
          3);
    });
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t)
    for (auto& h : hits[t]) ASSERT_EQ(h.load(), 1);
}

// ---------- cli ----------

TEST(Cli, ParsesAllForms) {
  const char* argv[] = {"prog",       "--alpha=3",  "--beta", "2.5",
                        "--gamma",    "--no-delta", "--list=1,2,3"};
  CliFlags flags(7, argv);
  EXPECT_EQ(flags.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(flags.get_double("beta", 0.0), 2.5);
  EXPECT_TRUE(flags.get_bool("gamma", false));
  EXPECT_FALSE(flags.get_bool("delta", true));
  const auto list = flags.get_int_list("list", {});
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[2], 3);
  EXPECT_EQ(flags.get_string("missing", "def"), "def");
  EXPECT_TRUE(flags.validate());
}

TEST(Cli, RejectsBadValues) {
  const char* argv[] = {"prog", "--x=abc"};
  CliFlags flags(2, argv);
  EXPECT_THROW(flags.get_int("x", 0), CheckError);
}

TEST(Cli, MalformedCommandLineIsAUsageError) {
  // A positional argument and an unparsable value throw UsageError, which
  // every binary's main() reports as one line and exit status 2.
  const char* positional[] = {"prog", "foo"};
  EXPECT_THROW(CliFlags(2, positional), UsageError);
  const char* bad[] = {"prog", "--reps", "abc", "--list=1,x", "--on=maybe"};
  CliFlags flags(5, bad);
  EXPECT_THROW(flags.get_int("reps", 3), UsageError);
  EXPECT_THROW(flags.get_int_list("list", {}), UsageError);
  EXPECT_THROW(flags.get_bool("on", false), UsageError);
}

TEST(Cli, ValidateFlagsUnknown) {
  const char* argv[] = {"prog", "--typo=1"};
  CliFlags flags(2, argv);
  flags.get_int("real", 0);
  EXPECT_FALSE(flags.validate());
}

TEST(Cli, DoubleListParsing) {
  const char* argv[] = {"prog", "--rates=0.1,0.2,0.5"};
  CliFlags flags(2, argv);
  const auto rates = flags.get_double_list("rates", {});
  ASSERT_EQ(rates.size(), 3u);
  EXPECT_DOUBLE_EQ(rates[1], 0.2);
}

TEST(Cli, RejectsEmptyNumericValue) {
  // "--shots=" used to parse as 0 because strtol("") just returns 0 with
  // end == str; an explicit empty value must be an error, not a silent 0.
  const char* argv[] = {"prog", "--shots=", "--rate="};
  CliFlags flags(3, argv);
  EXPECT_THROW(flags.get_int("shots", 1024), CheckError);
  EXPECT_THROW(flags.get_double("rate", 0.5), CheckError);
}

TEST(Cli, RejectsOutOfRangeValues) {
  // strtol/strtod clamp on ERANGE (LONG_MAX / HUGE_VAL) instead of
  // failing; the wrapper must check errno and reject.
  const char* argv[] = {"prog", "--big=999999999999999999999999",
                        "--huge=1e999", "--neg=-999999999999999999999999"};
  CliFlags flags(4, argv);
  EXPECT_THROW(flags.get_int("big", 0), CheckError);
  EXPECT_THROW(flags.get_double("huge", 0.0), CheckError);
  EXPECT_THROW(flags.get_int("neg", 0), CheckError);
}

TEST(Cli, RejectsTrailingGarbage) {
  const char* argv[] = {"prog", "--x=12abc", "--y=3.5q"};
  CliFlags flags(3, argv);
  EXPECT_THROW(flags.get_int("x", 0), CheckError);
  EXPECT_THROW(flags.get_double("y", 0.0), CheckError);
}

TEST(Cli, RejectsNonNumericPrefixes) {
  // strtol/strtod silently skip leading whitespace and accept a '+' sign,
  // so `--depths=" 3"` used to parse while `"3 "` was rejected. Any
  // non-numeric prefix must fail, consistently with trailing garbage.
  const char* argv[] = {"prog",      "--sp= 3",    "--tab=\t4", "--plus=+5",
                        "--dsp= 2.5", "--dplus=+.5", "--inf=-inf", "--nan=nan"};
  CliFlags flags(8, argv);
  EXPECT_THROW(flags.get_int("sp", 0), CheckError);
  EXPECT_THROW(flags.get_int("tab", 0), CheckError);
  EXPECT_THROW(flags.get_int("plus", 0), CheckError);
  EXPECT_THROW(flags.get_double("dsp", 0.0), CheckError);
  EXPECT_THROW(flags.get_double("dplus", 0.0), CheckError);
  EXPECT_THROW(flags.get_double("inf", 0.0), CheckError);
  EXPECT_THROW(flags.get_double("nan", 0.0), CheckError);
}

TEST(Cli, AcceptsPlainNumericForms) {
  // The no-prefix rule must not break the forms flags actually use:
  // negative integers, negative/leading-dot decimals, and exponents.
  const char* argv[] = {"prog", "--n=-7", "--r=-0.25", "--d=.5", "--e=2e-3"};
  CliFlags flags(5, argv);
  EXPECT_EQ(flags.get_int("n", 0), -7);
  EXPECT_DOUBLE_EQ(flags.get_double("r", 0.0), -0.25);
  EXPECT_DOUBLE_EQ(flags.get_double("d", 0.0), 0.5);
  EXPECT_DOUBLE_EQ(flags.get_double("e", 0.0), 2e-3);
}

TEST(Cli, RejectsBadListValues) {
  const char* argv[] = {"prog", "--a=1,,3", "--b=", "--c=0.1,x"};
  CliFlags flags(4, argv);
  EXPECT_THROW(flags.get_int_list("a", {}), CheckError);
  EXPECT_THROW(flags.get_int_list("b", {}), CheckError);
  EXPECT_THROW(flags.get_double_list("c", {}), CheckError);
}

TEST(Cli, RejectsEmptyListElementsAnywhere) {
  // An empty element is bad wherever it sits: a trailing one ("1,") used
  // to be dropped, so `--depths 1,` ran one depth while `--depths 1,,2`
  // was rejected.
  const char* argv[] = {"prog", "--a=1,", "--b=0.4,", "--c=,2", "--d=,"};
  CliFlags flags(5, argv);
  for (const char* name : {"a", "c", "d"}) {
    try {
      flags.get_int_list(name, {});
      ADD_FAILURE() << "--" << name << " parsed";
    } catch (const UsageError& e) {
      EXPECT_NE(std::string(e.what()).find("bad list element \"\""),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(flags.get_double_list("b", {}), UsageError);
  const char* ok[] = {"prog", "--a=1,2", "--b=0.4"};
  CliFlags good(3, ok);
  EXPECT_EQ(good.get_int_list("a", {}), (std::vector<long>{1, 2}));
  EXPECT_EQ(good.get_double_list("b", {}), std::vector<double>{0.4});
}

// ---------- table ----------

TEST(Table, AlignmentAndRows) {
  TextTable t({"a", "long_header"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("long_header"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), CheckError);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_percent(0.5, 1), "50.0");
  EXPECT_EQ(fmt_percent(1.0, 0), "100");
}

// ---------- io ----------

TEST(Io, AtomicWriteFileReplacesWholeContents) {
  const std::string path =
      "test_common_atomic_" + std::to_string(static_cast<long>(::getpid()));
  atomic_write_file(path, "first\n");
  atomic_write_file(path, "second, longer than the first\n");
  std::ifstream in(path);
  std::stringstream got;
  got << in.rdbuf();
  EXPECT_EQ(got.str(), "second, longer than the first\n");
  // No stray tmp file left next to the target.
  EXPECT_FALSE(std::filesystem::exists(
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()))));
  std::filesystem::remove(path);
}

TEST(Io, AtomicWriteFileRejectsUnwritableDirectory) {
  EXPECT_THROW(atomic_write_file("no_such_dir_zzz/out.txt", "x"), CheckError);
}

TEST(Io, Crc32KnownVectors) {
  // IEEE 802.3 check value for "123456789".
  const char digits[] = "123456789";
  EXPECT_EQ(crc32(digits, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  // Seeding lets a frame be checksummed in pieces.
  const std::uint32_t head = crc32(digits, 4);
  EXPECT_EQ(crc32(digits + 4, 5, head), 0xCBF43926u);
}

// ---------- shutdown ----------

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  QFAB_CHECK(n > 0);
  buf[n] = '\0';
  return buf;
}

TEST(Shutdown, SecondCountedSignalHardExits130) {
  // The hard exit must be observed from outside: this binary, re-executed
  // in child mode (run_hard_exit_child), raises SIGINT twice, and the
  // second signal's handler _Exit(130)s before the child can reach its
  // fallback exit code. A fresh process rather than a fork of this one,
  // whose thread pool is already running: ThreadSanitizer ignores its
  // interceptors in a child forked from a multithreaded process, so a
  // forked child's raised signals never reach the handler.
  std::string cmd = "'";
  cmd += self_exe();
  cmd += "' --hard-exit-child >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 130);
}

/// Child mode of Shutdown.SecondCountedSignalHardExits130.
int run_hard_exit_child() {
  install_shutdown_latch();
  reset_shutdown_latch_for_tests();
  (void)std::raise(SIGINT);
  (void)std::raise(SIGINT);
  std::_Exit(99);  // unreachable when the latch behaves
}

}  // namespace
}  // namespace qfab

// This suite has its own main(): the hard-exit test re-execs this binary as
// a child (`test_common --hard-exit-child`).
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--hard-exit-child")
      return qfab::run_hard_exit_child();
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
