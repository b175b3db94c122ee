// Durable-sweep validation: checkpoint journal round trips, crash-fault
// resume determinism, results independent of the thread count, torn/corrupt
// tail recovery, graceful drain, the numerical-health retry path, and the
// grid/assembler invariants that journal resume relies on.
//
// This suite has its own main(): the crash-fault tests re-exec this binary
// as a child process (`test_durable --durable-child <journal> ...`) with
// QFAB_FAULT armed, let the injected fault kill it mid-sweep, and then
// resume from the journal it left behind. gtest_main would try to parse the
// child flags, so the binary links GTest::gtest and dispatches by hand.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/fault.h"
#include "common/io.h"
#include "common/shutdown.h"
#include "exp/journal.h"

namespace qfab {
namespace {

// ---------------------------------------------------------------------------
// Shared fixture configuration. The child process rebuilds the exact same
// sweep from the seed alone, so parent and child must agree on every knob.
// block = batch_lanes = 2 over 5 instances -> 3 groups (one ragged), and
// 2 depths -> 6 work units; rates expand to {0, 0.5, 1.0}.

SweepConfig durable_test_config(std::uint64_t seed = 77) {
  SweepConfig cfg;
  cfg.base.op = Operation::kAdd;
  cfg.base.n = 3;
  cfg.depths = {1, kFullDepth};
  cfg.rates_percent = {0.5, 1.0};
  cfg.vary_2q = true;
  cfg.orders = {1, 2};
  cfg.instances = 5;
  cfg.run.shots = 64;
  cfg.run.error_trajectories = 4;
  cfg.run.batch_lanes = 2;
  cfg.seed = seed;
  cfg.progress = false;
  return cfg;
}

constexpr std::size_t kUnits = 6;

std::vector<ArithInstance> durable_test_instances(const SweepConfig& cfg) {
  Pcg64 rng(cfg.seed);
  return generate_instances(cfg.instances, cfg.base.n, cfg.base.n, cfg.orders,
                            rng);
}

// Per-process scratch directory: ctest -j runs the plain and forced-scalar
// variants of this suite concurrently, and both write journals.
std::string tmp_path(const std::string& name) {
  static const std::string dir = [] {
    const std::string d =
        "test_durable_tmp_" + std::to_string(static_cast<long>(::getpid()));
    std::filesystem::create_directories(d);
    return d;
  }();
  return dir + "/" + name;
}

void cleanup_tmp() {
  std::error_code ec;
  std::filesystem::remove_all(
      "test_durable_tmp_" + std::to_string(static_cast<long>(::getpid())), ec);
}

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  QFAB_CHECK(n > 0);
  buf[n] = '\0';
  return buf;
}

/// Re-exec this binary in child mode with `fault` armed via QFAB_FAULT
/// and, when `threads` > 0, the thread pool sized by QFAB_THREADS.
/// Returns the child's exit code (-1 if it died on a signal).
int spawn_child(const std::string& fault, const std::string& journal,
                bool resume, std::uint64_t seed = 77, int threads = 0) {
  std::string cmd;
  if (!fault.empty()) cmd += "QFAB_FAULT='" + fault + "' ";
  if (threads > 0) cmd += "QFAB_THREADS=" + std::to_string(threads) + " ";
  cmd += "'" + self_exe() + "' --durable-child '" + journal + "'";
  if (resume) cmd += " --resume";
  cmd += " --child-seed " + std::to_string(seed);
  cmd += " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

const SweepResult& reference() {
  static const SweepResult r = [] {
    const SweepConfig cfg = durable_test_config();
    return run_sweep(cfg, durable_test_instances(cfg));
  }();
  return r;
}

// Bit-identical point results: resume determinism is exact reproduction,
// not statistical agreement, so every comparison here is ==.
void expect_same_points(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    EXPECT_EQ(a.points[i].depth, b.points[i].depth);
    EXPECT_EQ(a.points[i].rate_percent, b.points[i].rate_percent);
    EXPECT_EQ(a.points[i].stats.instances, b.points[i].stats.instances);
    EXPECT_EQ(a.points[i].stats.successes, b.points[i].stats.successes);
    EXPECT_EQ(a.points[i].stats.success_rate, b.points[i].stats.success_rate);
    EXPECT_EQ(a.points[i].stats.sigma, b.points[i].stats.sigma);
    EXPECT_EQ(a.points[i].stats.lower_flips, b.points[i].stats.lower_flips);
    EXPECT_EQ(a.points[i].stats.upper_flips, b.points[i].stats.upper_flips);
  }
}

// Shared-trajectory bookkeeping merges in unit order on every path
// (computed, restored, or mixed), so it is exactly reproducible too.
void expect_same_stats(const SharedEstimateStats& a,
                       const SharedEstimateStats& b) {
  EXPECT_EQ(a.proposal_trajectories, b.proposal_trajectories);
  EXPECT_EQ(a.unique_trajectories, b.unique_trajectories);
  EXPECT_EQ(a.fallback_trajectories, b.fallback_trajectories);
  EXPECT_EQ(a.rate_columns, b.rate_columns);
  EXPECT_EQ(a.fallback_columns, b.fallback_columns);
  EXPECT_EQ(a.ess_fraction_min, b.ess_fraction_min);
  EXPECT_EQ(a.ess_fraction_sum, b.ess_fraction_sum);
  EXPECT_EQ(a.ess_fraction_count, b.ess_fraction_count);
}

std::size_t count_type(const JournalContents& contents,
                       JournalRecord::Type type) {
  std::size_t n = 0;
  for (const JournalRecord& rec : contents.records)
    if (rec.type == type) ++n;
  return n;
}

// ---------------------------------------------------------------------------

TEST(Durable, FreshJournaledRunMatchesPlainRunSweep) {
  const SweepConfig cfg = durable_test_config();
  const auto insts = durable_test_instances(cfg);
  DurableOptions durable;
  durable.journal_path = tmp_path("fresh.journal");
  const SweepResult r = run_sweep_durable(cfg, insts, durable);

  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.units_total, kUnits);
  EXPECT_EQ(r.units_done, kUnits);
  EXPECT_EQ(r.units_restored, 0u);
  EXPECT_EQ(r.units_retried, 0u);
  EXPECT_TRUE(r.unit_errors.empty());
  expect_same_points(reference(), r);
  expect_same_stats(reference().shared_stats, r.shared_stats);

  const JournalContents contents = read_journal(durable.journal_path);
  EXPECT_TRUE(contents.header_ok);
  EXPECT_FALSE(contents.dropped_tail);
  EXPECT_EQ(contents.records.size(), kUnits);
  EXPECT_EQ(count_type(contents, JournalRecord::Type::kUnit), kUnits);
}

TEST(Durable, CrashResumeIsBitIdentical) {
  for (const long k : {1L, 3L, 6L}) {
    SCOPED_TRACE("crash-after-unit=" + std::to_string(k));
    const std::string journal =
        tmp_path("crash" + std::to_string(k) + ".journal");
    ASSERT_EQ(spawn_child("crash-after-unit=" + std::to_string(k), journal,
                          /*resume=*/false),
              fault::kCrashExitCode);

    // The crash fires after the k-th record is durably on disk.
    const JournalContents after_crash = read_journal(journal);
    ASSERT_TRUE(after_crash.header_ok);
    EXPECT_FALSE(after_crash.dropped_tail);
    ASSERT_EQ(after_crash.records.size(), static_cast<std::size_t>(k));

    const SweepConfig cfg = durable_test_config();
    DurableOptions durable;
    durable.journal_path = journal;
    durable.resume = true;
    const SweepResult r =
        run_sweep_durable(cfg, durable_test_instances(cfg), durable);
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.units_restored, static_cast<std::size_t>(k));
    EXPECT_EQ(r.units_done, kUnits);
    expect_same_points(reference(), r);
    expect_same_stats(reference().shared_stats, r.shared_stats);

    EXPECT_EQ(read_journal(journal).records.size(), kUnits);
  }
}

TEST(Durable, JournaledResultsIndependentOfThreadCount) {
  // ThreadPool::shared() reads QFAB_THREADS once per process, so each
  // thread count runs the whole sweep in its own child. Every child's
  // journal must restore to the reference exactly: the units a thread pool
  // of any size computes, and the order it journals them in, never change
  // the assembled result.
  const SweepConfig cfg = durable_test_config();
  const auto insts = durable_test_instances(cfg);
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("QFAB_THREADS=" + std::to_string(threads));
    const std::string journal =
        tmp_path("threads" + std::to_string(threads) + ".journal");
    ASSERT_EQ(spawn_child("", journal, /*resume=*/false, 77, threads), 0);

    DurableOptions durable;
    durable.journal_path = journal;
    durable.resume = true;
    const SweepResult r = run_sweep_durable(cfg, insts, durable);
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.units_restored, kUnits);
    expect_same_points(reference(), r);
    expect_same_stats(reference().shared_stats, r.shared_stats);
  }
}

TEST(Durable, TornWriteTailIsDroppedOnResume) {
  const std::string journal = tmp_path("torn.journal");
  ASSERT_EQ(spawn_child("torn-write=3", journal, /*resume=*/false),
            fault::kCrashExitCode);

  const JournalContents damaged = read_journal(journal);
  ASSERT_TRUE(damaged.header_ok);
  EXPECT_TRUE(damaged.dropped_tail);
  ASSERT_EQ(damaged.records.size(), 2u);

  const SweepConfig cfg = durable_test_config();
  DurableOptions durable;
  durable.journal_path = journal;
  durable.resume = true;
  const SweepResult r =
      run_sweep_durable(cfg, durable_test_instances(cfg), durable);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.units_restored, 2u);
  expect_same_points(reference(), r);

  // Resume rewrote the valid prefix before appending, so the file is whole.
  const JournalContents repaired = read_journal(journal);
  EXPECT_FALSE(repaired.dropped_tail);
  EXPECT_EQ(repaired.records.size(), kUnits);
}

TEST(Durable, CorruptCrcTailIsDroppedOnResume) {
  const std::string journal = tmp_path("badcrc.journal");
  ASSERT_EQ(spawn_child("corrupt-crc=3", journal, /*resume=*/false),
            fault::kCrashExitCode);

  const JournalContents damaged = read_journal(journal);
  ASSERT_TRUE(damaged.header_ok);
  EXPECT_TRUE(damaged.dropped_tail);
  ASSERT_EQ(damaged.records.size(), 2u);

  const SweepConfig cfg = durable_test_config();
  DurableOptions durable;
  durable.journal_path = journal;
  durable.resume = true;
  const SweepResult r =
      run_sweep_durable(cfg, durable_test_instances(cfg), durable);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.units_restored, 2u);
  expect_same_points(reference(), r);
  EXPECT_FALSE(read_journal(journal).dropped_tail);
}

TEST(Durable, DrainAndResumeInProcess) {
  reset_shutdown_latch_for_tests();
  fault::set_fault_spec_for_tests("drain-after-unit=1");

  const SweepConfig cfg = durable_test_config();
  const auto insts = durable_test_instances(cfg);
  DurableOptions durable;
  durable.journal_path = tmp_path("drain.journal");
  const SweepResult drained = run_sweep_durable(cfg, insts, durable);

  fault::set_fault_spec_for_tests("");
  reset_shutdown_latch_for_tests();

  // The latch stops workers from *claiming* new units; anything already in
  // flight finishes and journals, so the done count is a range, not exact.
  EXPECT_GE(drained.units_done, 1u);
  EXPECT_LE(drained.units_done, kUnits);
  if (!drained.complete) {
    EXPECT_TRUE(drained.points.empty());
  }

  durable.resume = true;
  const SweepResult r = run_sweep_durable(cfg, insts, durable);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.units_restored, drained.units_done);
  EXPECT_EQ(r.units_done, kUnits);
  expect_same_points(reference(), r);
  expect_same_stats(reference().shared_stats, r.shared_stats);
}

TEST(Durable, NanFaultRetriesOnScalarPathOnce) {
  // One NaN charge: the first apply pass covering gate 3 poisons an
  // amplitude, a health sentinel throws, and the unit's scalar non-fused
  // retry (charge spent) succeeds.
  fault::set_fault_spec_for_tests("nan-at-gate=3");

  const SweepConfig cfg = durable_test_config();
  const auto insts = durable_test_instances(cfg);
  DurableOptions durable;
  durable.journal_path = tmp_path("nan_retry.journal");
  const SweepResult r = run_sweep_durable(cfg, insts, durable);
  fault::set_fault_spec_for_tests("");

  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.units_retried, 1u);
  EXPECT_TRUE(r.unit_errors.empty());
  ASSERT_EQ(r.points.size(), reference().points.size());
  for (const SweepPoint& p : r.points) {
    EXPECT_EQ(p.stats.instances, cfg.instances);
    EXPECT_GE(p.stats.success_rate, 0.0);
    EXPECT_LE(p.stats.success_rate, 1.0);
  }

  const JournalContents contents = read_journal(durable.journal_path);
  EXPECT_EQ(contents.records.size(), kUnits);
  EXPECT_EQ(count_type(contents, JournalRecord::Type::kPoisoned), 0u);
}

TEST(Durable, PersistentNanPoisonsUnitsAndResumeRestoresThem) {
  // Unlimited NaN charges: the retry is poisoned too, so every unit records
  // its members as failures along with the sentinel description.
  fault::set_fault_spec_for_tests("nan-at-gate=3,nan-count=-1");

  const SweepConfig cfg = durable_test_config();
  const auto insts = durable_test_instances(cfg);
  DurableOptions durable;
  durable.journal_path = tmp_path("poison.journal");
  const SweepResult poisoned = run_sweep_durable(cfg, insts, durable);
  fault::set_fault_spec_for_tests("");

  EXPECT_TRUE(poisoned.complete);
  EXPECT_EQ(poisoned.unit_errors.size(), kUnits);
  for (const SweepPoint& p : poisoned.points) EXPECT_EQ(p.stats.successes, 0);

  const JournalContents contents = read_journal(durable.journal_path);
  EXPECT_EQ(count_type(contents, JournalRecord::Type::kPoisoned), kUnits);

  // Resume with the fault disarmed: poisoned units restore from the journal
  // without recompute — the record of what failed is itself durable.
  durable.resume = true;
  const SweepResult r = run_sweep_durable(cfg, insts, durable);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.units_restored, kUnits);
  EXPECT_EQ(r.unit_errors.size(), kUnits);
  expect_same_points(poisoned, r);
  expect_same_stats(poisoned.shared_stats, r.shared_stats);
}

/// QFA n=8 units whose every x operand value is nonzero: in the plan's row
/// layout x selects the tile, so tile 0 — row 0 — holds no data in any
/// lane, and a NaN planted there would never be read.
SweepConfig dead_tile0_config() {
  SweepConfig cfg;
  cfg.base.op = Operation::kAdd;
  cfg.base.n = 8;
  cfg.depths = {kFullDepth};
  cfg.rates_percent = {1.0};
  cfg.vary_2q = true;
  cfg.orders = {2, 1};
  cfg.instances = 4;
  cfg.run.shots = 32;
  cfg.run.error_trajectories = 2;
  cfg.run.batch_lanes = 2;
  cfg.seed = 91;
  cfg.progress = false;
  return cfg;
}

std::vector<ArithInstance> nonzero_x_instances(const SweepConfig& cfg) {
  Pcg64 rng(cfg.seed);
  std::vector<ArithInstance> out;
  while (out.size() < static_cast<std::size_t>(cfg.instances)) {
    const ArithInstance inst = generate_instances(
        1, cfg.base.n, cfg.base.n, cfg.orders, rng)[0];
    const std::vector<u64> xs = inst.x.support();
    if (std::find(xs.begin(), xs.end(), u64{0}) == xs.end())
      out.push_back(inst);
  }
  return out;
}

TEST(Durable, NanFaultTripsWhenTileZeroIsDead) {
  // The batched hooks poison lane 0's first live row, so the sentinel
  // trips even when no lane holds data in row 0: one charge, one retry.
  const SweepConfig cfg = dead_tile0_config();
  const auto insts = nonzero_x_instances(cfg);
  fault::set_fault_spec_for_tests("nan-at-gate=3");
  DurableOptions durable;
  durable.journal_path = tmp_path("nan_dead_tile0.journal");
  const SweepResult r = run_sweep_durable(cfg, insts, durable);
  fault::set_fault_spec_for_tests("");
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.units_retried, 1u);
  EXPECT_TRUE(r.unit_errors.empty());
  const JournalContents contents = read_journal(durable.journal_path);
  EXPECT_EQ(count_type(contents, JournalRecord::Type::kPoisoned), 0u);
}

TEST(Durable, PersistentNanPoisonsUnitsWhenTileZeroIsDead) {
  const SweepConfig cfg = dead_tile0_config();
  const auto insts = nonzero_x_instances(cfg);
  const std::size_t units = static_cast<std::size_t>(cfg.instances) /
                            static_cast<std::size_t>(cfg.run.batch_lanes);
  fault::set_fault_spec_for_tests("nan-at-gate=3,nan-count=-1");
  DurableOptions durable;
  durable.journal_path = tmp_path("poison_dead_tile0.journal");
  const SweepResult r = run_sweep_durable(cfg, insts, durable);
  fault::set_fault_spec_for_tests("");
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.unit_errors.size(), units);
  for (const SweepPoint& p : r.points) EXPECT_EQ(p.stats.successes, 0);
  const JournalContents contents = read_journal(durable.journal_path);
  EXPECT_EQ(count_type(contents, JournalRecord::Type::kPoisoned), units);
}

TEST(Durable, FingerprintMismatchRefusesResume) {
  const std::string journal = tmp_path("fingerprint.journal");
  {
    const SweepConfig cfg = durable_test_config(77);
    DurableOptions durable;
    durable.journal_path = journal;
    run_sweep_durable(cfg, durable_test_instances(cfg), durable);
  }
  const SweepConfig other = durable_test_config(78);
  DurableOptions durable;
  durable.journal_path = journal;
  durable.resume = true;
  EXPECT_THROW(run_sweep_durable(other, durable_test_instances(other), durable),
               CheckError);
}

TEST(Durable, JournalRoundTripAndManualTruncation) {
  const std::string path = tmp_path("roundtrip.journal");
  const std::uint64_t fp = 0xABCDEF0123456789ULL;

  JournalRecord unit;
  unit.type = JournalRecord::Type::kUnit;
  unit.depth_index = 1;
  unit.block_begin = 2;
  unit.block_end = 4;
  unit.outcomes = {{{true, 31}, {false, -4}}, {{true, 7}, {true, 0}}};
  unit.stats.proposal_trajectories = 8;
  unit.stats.ess_fraction_min = 0.25;

  JournalRecord poisoned;
  poisoned.type = JournalRecord::Type::kPoisoned;
  poisoned.depth_index = 0;
  poisoned.block_begin = 4;
  poisoned.block_end = 5;
  poisoned.outcomes = {{{false, 0}}, {{false, 0}}};
  poisoned.error = "clean run final state: norm drifted";

  {
    JournalWriter writer(path, fp, /*fresh=*/true);
    writer.append(unit);
    writer.append(poisoned);
  }

  const JournalContents contents = read_journal(path);
  ASSERT_TRUE(contents.header_ok);
  EXPECT_EQ(contents.fingerprint, fp);
  EXPECT_FALSE(contents.dropped_tail);
  ASSERT_EQ(contents.records.size(), 2u);
  const JournalRecord& got = contents.records[0];
  EXPECT_EQ(got.type, JournalRecord::Type::kUnit);
  EXPECT_EQ(got.depth_index, 1u);
  EXPECT_EQ(got.block_begin, 2u);
  EXPECT_EQ(got.block_end, 4u);
  ASSERT_EQ(got.outcomes.size(), 2u);
  EXPECT_TRUE(got.outcomes[0][0].success);
  EXPECT_EQ(got.outcomes[0][0].margin, 31);
  EXPECT_EQ(got.outcomes[0][1].margin, -4);
  EXPECT_EQ(got.stats.proposal_trajectories, 8);
  EXPECT_EQ(got.stats.ess_fraction_min, 0.25);
  EXPECT_EQ(contents.records[1].type, JournalRecord::Type::kPoisoned);
  ASSERT_EQ(contents.records[1].outcomes.size(), 2u);
  EXPECT_EQ(contents.records[1].error, poisoned.error);

  // Chop into the last frame: the torn tail must be dropped, not fatal.
  std::filesystem::resize_file(path, contents.valid_bytes - 3);
  const JournalContents torn = read_journal(path);
  ASSERT_TRUE(torn.header_ok);
  EXPECT_TRUE(torn.dropped_tail);
  EXPECT_EQ(torn.records.size(), 1u);

  // Repair rewrites exactly the valid prefix.
  rewrite_journal(path, torn);
  const JournalContents repaired = read_journal(path);
  EXPECT_FALSE(repaired.dropped_tail);
  EXPECT_EQ(repaired.records.size(), 1u);
  EXPECT_EQ(repaired.fingerprint, fp);
}

TEST(Durable, VersionOneJournalIsForeignAndResumeStartsFresh) {
  // Version 2 dropped the timeout-marker record type and a fingerprint
  // field, so a journal written under version 1 must read as foreign, not
  // be resumed. Write a real journal, then stamp version 1 into its header
  // (and re-seal the header frame's CRC) as a version-1 writer would have.
  const SweepConfig cfg = durable_test_config();
  const auto insts = durable_test_instances(cfg);
  DurableOptions durable;
  durable.journal_path = tmp_path("version1.journal");
  run_sweep_durable(cfg, insts, durable);
  {
    std::fstream io(durable.journal_path,
                    std::ios::in | std::ios::out | std::ios::binary);
    // Header frame: u32 len | u32 crc | "QFABJNL1" | u32 version | u64 fp.
    char payload[20];
    io.seekg(8);
    io.read(payload, sizeof payload);
    const std::uint32_t version = 1;
    std::memcpy(payload + 8, &version, sizeof version);
    const std::uint32_t crc = crc32(payload, sizeof payload);
    io.seekp(4);
    io.write(reinterpret_cast<const char*>(&crc), sizeof crc);
    io.write(payload, sizeof payload);
    ASSERT_TRUE(io.good());
  }

  const JournalContents old = read_journal(durable.journal_path);
  EXPECT_FALSE(old.header_ok);
  EXPECT_TRUE(old.records.empty());
  EXPECT_NE(old.note.find("journal version 1 != 2"), std::string::npos)
      << old.note;

  durable.resume = true;
  const SweepResult r = run_sweep_durable(cfg, insts, durable);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.units_restored, 0u);
  EXPECT_EQ(r.units_done, kUnits);
  expect_same_points(reference(), r);
  expect_same_stats(reference().shared_stats, r.shared_stats);
  const JournalContents fresh = read_journal(durable.journal_path);
  EXPECT_TRUE(fresh.header_ok);
  EXPECT_EQ(fresh.records.size(), kUnits);
}

TEST(Durable, DamagedTailRefusesAppendUntilRewritten) {
  const std::string path = tmp_path("guard.journal");
  const std::uint64_t fp = 0x5EED5EED5EED5EEDULL;
  JournalRecord rec;
  rec.type = JournalRecord::Type::kUnit;
  rec.block_end = 1;
  rec.outcomes = {{{true, 1}}};
  {
    JournalWriter writer(path, fp, /*fresh=*/true);
    writer.append(rec);
    writer.append(rec);
  }

  // Tear the trailing frame: re-opening for append must refuse until the
  // valid prefix is rewritten — appending after a torn tail would strand
  // the new records behind unreadable bytes.
  const JournalContents whole = read_journal(path);
  std::filesystem::resize_file(path, whole.valid_bytes - 3);
  EXPECT_THROW(JournalWriter(path, fp, /*fresh=*/false), CheckError);
  // The wrong fingerprint is refused outright, even on a clean file.
  { JournalWriter other(path, fp + 1, /*fresh=*/true); }
  EXPECT_THROW(JournalWriter(path, fp, /*fresh=*/false), CheckError);

  JournalWriter(path, fp, /*fresh=*/true).append(rec);
  const JournalContents fresh = read_journal(path);
  std::filesystem::resize_file(path, fresh.valid_bytes - 3);
  rewrite_journal(path, read_journal(path));
  JournalWriter writer(path, fp, /*fresh=*/false);  // now accepted
  writer.append(rec);
  EXPECT_EQ(read_journal(path).records.size(), 1u);
}

TEST(Durable, MissingAndForeignFilesAreNotJournals) {
  const JournalContents missing = read_journal(tmp_path("nonexistent"));
  EXPECT_FALSE(missing.header_ok);
  EXPECT_TRUE(missing.records.empty());

  const std::string garbage = tmp_path("garbage");
  {
    std::ofstream os(garbage);
    os << "not a journal at all";
  }
  const JournalContents foreign = read_journal(garbage);
  EXPECT_FALSE(foreign.header_ok);
  EXPECT_TRUE(foreign.records.empty());
}

TEST(Durable, GridGeometryRoundTrips) {
  const SweepConfig cfg = durable_test_config();
  const SweepGrid grid(cfg, 5);
  EXPECT_EQ(grid.block, 2u);
  EXPECT_EQ(grid.n_groups, 3u);
  EXPECT_EQ(grid.n_depths, 2u);
  EXPECT_EQ(grid.n_units, kUnits);
  for (std::size_t u = 0; u < grid.n_units; ++u) {
    const SweepGrid::UnitKey key = grid.key(u);
    EXPECT_EQ(grid.unit_of(key.depth_index, key.block_begin, key.block_end),
              u);
  }
  // The final block is ragged (5 % 2 != 0) and still on-grid.
  EXPECT_EQ(grid.key(grid.n_units - 1).block_end, 5u);
  // Off-grid coordinates are rejected, not aliased to a neighbour.
  EXPECT_EQ(grid.unit_of(0, 1, 3), SweepGrid::npos);
  EXPECT_EQ(grid.unit_of(0, 0, 1), SweepGrid::npos);
  EXPECT_EQ(grid.unit_of(2, 0, 2), SweepGrid::npos);
}

TEST(Durable, AssemblerDeduplicatesAndRejectsMisfits) {
  const SweepConfig cfg = durable_test_config();
  SweepExecution exec(cfg, durable_test_instances(cfg));
  const SweepGrid& grid = exec.grid();
  const SweepGrid::UnitKey key = grid.key(0);
  UnitResult out = exec.run_unit(0);
  const auto outcomes = out.outcomes;  // keep a copy to replay

  SweepAssembler assembler(cfg, grid);
  EXPECT_EQ(assembler.add_record(key.depth_index, key.block_begin,
                                 key.block_end, outcomes, out.stats, ""),
            SweepAssembler::Add::kAdded);
  EXPECT_TRUE(assembler.done(0));
  EXPECT_EQ(assembler.units_done(), 1u);
  // A second record for the same unit is ignored: the first one wins.
  EXPECT_EQ(assembler.add_record(key.depth_index, key.block_begin,
                                 key.block_end, outcomes, out.stats, ""),
            SweepAssembler::Add::kDuplicate);
  EXPECT_EQ(assembler.units_done(), 1u);
  // Off-grid coordinates and mis-shaped outcomes never reach the matrix.
  EXPECT_EQ(assembler.add_record(key.depth_index, 1, 3, outcomes, out.stats,
                                 ""),
            SweepAssembler::Add::kMisfit);
  auto truncated = outcomes;
  truncated.pop_back();
  EXPECT_EQ(assembler.add_record(grid.key(1).depth_index,
                                 grid.key(1).block_begin,
                                 grid.key(1).block_end, truncated, out.stats,
                                 ""),
            SweepAssembler::Add::kMisfit);
  EXPECT_FALSE(assembler.done(1));
}

TEST(Durable, SigintLatchesDrainRequest) {
  install_shutdown_latch();
  reset_shutdown_latch_for_tests();
  EXPECT_FALSE(shutdown_requested());
  // One signal latches a drain (a second would hard-exit, so raise once).
  ASSERT_EQ(std::raise(SIGINT), 0);
  EXPECT_TRUE(shutdown_requested());
  reset_shutdown_latch_for_tests();
  EXPECT_FALSE(shutdown_requested());
}

// ---------------------------------------------------------------------------

int run_durable_child(const std::string& journal, bool resume,
                      std::uint64_t seed) {
  const SweepConfig cfg = durable_test_config(seed);
  DurableOptions durable;
  durable.journal_path = journal;
  durable.resume = resume;
  const SweepResult r =
      run_sweep_durable(cfg, durable_test_instances(cfg), durable);
  return r.complete ? 0 : kResumableExitCode;
}

}  // namespace
}  // namespace qfab

int main(int argc, char** argv) {
  std::string child_journal;
  bool child_resume = false;
  std::uint64_t child_seed = 77;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--durable-child" && i + 1 < argc) {
      child_journal = argv[++i];
    } else if (arg == "--resume") {
      child_resume = true;
    } else if (arg == "--child-seed" && i + 1 < argc) {
      child_seed = std::strtoull(argv[++i], nullptr, 10);
    }
  }
  if (!child_journal.empty())
    return qfab::run_durable_child(child_journal, child_resume, child_seed);

  ::testing::InitGoogleTest(&argc, argv);
  const int rc = RUN_ALL_TESTS();
  qfab::cleanup_tmp();
  return rc;
}
