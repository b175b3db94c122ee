// Sweep driver: one figure panel = one sweep over (AQFT depth series ×
// gate-error-rate clusters) at fixed operation / operand orders, plus the
// noise-free cluster at the x-origin (paper Figs. 1-2).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/table.h"
#include "exp/experiment.h"

namespace qfab {

struct SweepConfig {
  CircuitSpec base;               // depth is overridden per series
  std::vector<int> depths;        // AQFT depth series (kFullDepth = "full")
  std::vector<double> rates_percent;  // gate error rates, in percent
  bool vary_2q = false;           // rates drive p2q (else p1q)
  OperandOrders orders;
  int instances = 12;
  RunOptions run;
  std::uint64_t seed = 0xC0FFEEULL;
  bool include_noise_free = true;
  bool progress = false;  // rate-limited count/ETA line on stderr

  /// The rate columns actually swept: rates_percent with the noise-free
  /// column (0.0) prepended when include_noise_free is set. The single
  /// source of truth for column order — run_sweep's outcome layout,
  /// sweep_table's rows, and point_rng's rate index all use it.
  std::vector<double> expanded_rates() const;
};

struct SweepPoint {
  int depth = kFullDepth;
  double rate_percent = 0.0;  // 0 = noise-free cluster
  PointStats stats;
};

struct SweepResult {
  SweepConfig config;
  std::vector<SweepPoint> points;  // ordered (depth-major, rate-minor)
  double seconds = 0.0;
  /// Shared-trajectory bookkeeping aggregated over the whole sweep (all
  /// zeros when run.shared_trajectories is off or per_shot is on).
  SharedEstimateStats shared_stats;

  /// False when a drain request (common/shutdown.h) stopped the sweep
  /// before every work unit ran: `points` is then empty and the journal (if
  /// any) holds everything needed to resume.
  bool complete = true;
  /// Work units — (instance-block, depth) pairs covering all rate columns —
  /// in this sweep, how many finished, and how many of those were restored
  /// from the checkpoint journal instead of recomputed.
  std::size_t units_total = 0;
  std::size_t units_done = 0;
  std::size_t units_restored = 0;
  /// Units whose numerical-health sentinel tripped but whose scalar
  /// per-gate retry succeeded (see DurableOptions / RunOptions::health_checks).
  std::size_t units_retried = 0;
  /// Human-readable descriptions of persistently poisoned units (sentinel
  /// tripped on the retry too); their failed members count as failures in
  /// `points`. Empty on a healthy sweep.
  std::vector<std::string> unit_errors;

  const SweepPoint& at(int depth, double rate_percent) const;
};

/// Durability knobs for run_sweep_durable. Default-constructed options mean
/// "no journal": the sweep still drains gracefully on SIGINT/SIGTERM but
/// nothing is checkpointed.
struct DurableOptions {
  /// Checkpoint journal path (exp/journal.h). Empty = no journal.
  std::string journal_path;
  /// Resume from an existing journal: restore its completed units and only
  /// compute the rest. The journal's config fingerprint must match (a
  /// mismatch is a hard error — resuming a different configuration would
  /// silently mix results). Without `resume`, an existing journal is
  /// truncated and the sweep starts fresh.
  bool resume = false;
};

/// Fixed geometry of a sweep's work units. A work unit is an
/// (instance-block, depth) pair covering every rate column — the smallest
/// self-contained piece, because the shared estimator computes whole rate
/// clusters and the batched engine advances whole instance groups. Unit
/// u = group * n_depths + depth_index; the final block is ragged when
/// n_instances % block != 0. The grid is pure arithmetic on the config, so
/// a resumed run derives the same unit numbering as the run that wrote its
/// journal.
struct SweepGrid {
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::size_t n_depths = 0;
  std::size_t n_rates = 0;
  std::size_t n_instances = 0;
  std::size_t block = 1;    // instances per work unit
  std::size_t n_groups = 0;
  std::size_t n_units = 0;

  SweepGrid() = default;
  SweepGrid(const SweepConfig& config, std::size_t n_instances);

  /// The (depth, instance-block) coordinates of unit `u`.
  struct UnitKey {
    std::size_t depth_index = 0;
    std::size_t block_begin = 0;
    std::size_t block_end = 0;
  };
  UnitKey key(std::size_t u) const;

  /// Inverse of key(): the unit index for these coordinates, or npos when
  /// they do not lie on the grid (wrong alignment, ragged-block mismatch,
  /// out of range). Used to validate untrusted journal records.
  std::size_t unit_of(std::size_t depth_index, std::size_t block_begin,
                      std::size_t block_end) const;
};

/// One computed work unit: outcomes[rate][member] for the instance block
/// (rate order = SweepConfig::expanded_rates(), member m = instance
/// block_begin + m), plus its shared-trajectory bookkeeping contribution.
struct UnitResult {
  std::vector<std::vector<InstanceOutcome>> outcomes;
  SharedEstimateStats stats;
  bool retried = false;   // health sentinel tripped, scalar retry ran
  bool poisoned = false;  // sentinel tripped on the retry too
  std::string error;      // poisoned-member descriptions
};

/// Compiled, immutable execution state for one sweep: transpiled circuits
/// and fused plans per depth, rate clusters, the unit grid. Owns copies of
/// the config and operand set, so it outlives the caller's arguments.
/// run_unit is safe to call from multiple threads concurrently.
class SweepExecution {
 public:
  SweepExecution(const SweepConfig& config,
                 std::vector<ArithInstance> instances);
  ~SweepExecution();

  SweepExecution(const SweepExecution&) = delete;
  SweepExecution& operator=(const SweepExecution&) = delete;

  const SweepConfig& config() const;
  const std::vector<ArithInstance>& instances() const;
  const SweepGrid& grid() const;

  /// Compute unit `u` (all rate columns). Numerical-health sentinel trips
  /// retry once on the scalar per-gate path; persistent failures come back
  /// poisoned instead of throwing. Deterministic: results depend only on
  /// (config, instances, u), never on execution order or thread schedule.
  UnitResult run_unit(std::size_t u);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Accumulates unit results — computed or restored from a journal — into a
/// SweepResult. Records read from disk are validated: the first record for
/// a unit wins and later duplicates are ignored, and coordinates and shapes
/// must fit the grid, so a damaged journal can never mix duplicate or
/// mis-shaped records into the outcome matrix. Feeding records for every
/// unit in deterministic unit order produces a SweepResult bit-identical to
/// a single uninterrupted run_sweep (stats merge in unit order; points are
/// depth-major, rate-minor).
class SweepAssembler {
 public:
  enum class Add {
    kAdded,      ///< new unit, absorbed
    kDuplicate,  ///< unit already present; record ignored (first wins)
    kMisfit,     ///< coordinates or outcome shape off-grid; record ignored
  };

  SweepAssembler(const SweepConfig& config, const SweepGrid& grid);

  /// Absorb a journaled record by coordinates. Not thread-safe.
  Add add_record(std::size_t depth_index, std::size_t block_begin,
                 std::size_t block_end,
                 const std::vector<std::vector<InstanceOutcome>>& outcomes,
                 const SharedEstimateStats& stats, const std::string& error);

  /// Absorb a freshly computed unit. Thread-safe for *distinct* units
  /// (disjoint outcome slots); the caller guarantees each unit is added
  /// at most once on this path.
  void add_computed(std::size_t u, UnitResult&& out);

  bool done(std::size_t u) const { return unit_done_[u] != 0; }
  std::size_t units_done() const;

  /// Build the final SweepResult. `complete` (and points) only when every
  /// unit was added; an incomplete result carries the unit accounting so
  /// callers can report progress and resume.
  SweepResult finish(double seconds, std::size_t units_restored,
                     std::size_t units_retried) const;

 private:
  SweepConfig config_;
  SweepGrid grid_;
  std::vector<double> rates_;
  // outcomes[depth][rate][instance]
  std::vector<std::vector<std::vector<InstanceOutcome>>> outcomes_;
  std::vector<SharedEstimateStats> unit_stats_;
  std::vector<std::string> unit_error_;
  std::vector<char> unit_done_;
};

/// Run a sweep on a fixed operand set (generate via generate_instances with
/// the row seed so both error-rate columns see identical operands).
/// Equivalent to run_sweep_durable with default DurableOptions.
SweepResult run_sweep(const SweepConfig& config,
                      const std::vector<ArithInstance>& instances);

/// run_sweep with durability: checkpoint journaling, resume, graceful
/// drain, and numerical-health retry. Point results are bit-identical to
/// run_sweep's regardless of interruption/resume history (deterministic
/// per-point RNG streams; see exp/journal.h).
SweepResult run_sweep_durable(const SweepConfig& config,
                              const std::vector<ArithInstance>& instances,
                              const DurableOptions& durable);

/// Render a panel: one row per rate cluster, one column per depth, cells
/// "succ% s=σ [-lo/+hi]" (error bars as instance counts, as in the paper).
TextTable sweep_table(const SweepResult& result);

/// Machine-readable point dump, one row per sweep point (depth,
/// rate_percent, success_rate, sigma, lower_flips, upper_flips, instances).
/// The canonical CSV layout of the figure benches, which the crash-resume
/// checks compare byte for byte.
TextTable sweep_csv_table(const SweepResult& result);

/// Human-readable depth label ("1", "2", ..., "full").
std::string depth_label(int depth);

/// Print the panel with a caption to `os`.
void print_sweep(std::ostream& os, const SweepResult& result,
                 const std::string& caption);

}  // namespace qfab
