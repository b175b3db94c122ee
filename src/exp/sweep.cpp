#include "exp/sweep.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <iostream>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

#include "common/parallel.h"
#include "common/shutdown.h"
#include "common/stopwatch.h"
#include "exp/journal.h"

namespace qfab {

namespace {

/// Deterministic per-(instance, depth, rate) RNG, independent of execution
/// order and thread scheduling. This is what makes checkpoint/resume exact:
/// a unit computed after a restart draws the same streams it would have
/// drawn in the uninterrupted run.
Pcg64 point_rng(std::uint64_t seed, std::size_t instance, std::size_t depth_i,
                std::size_t rate_i) {
  const std::uint64_t salt = (static_cast<std::uint64_t>(instance) << 32) ^
                             (static_cast<std::uint64_t>(depth_i) << 16) ^
                             static_cast<std::uint64_t>(rate_i);
  Pcg64 root(seed, 0x5eedULL);
  return root.split(salt);
}

NoiseModel noise_at(const SweepConfig& config, double rate_percent) {
  NoiseModel noise;
  (config.vary_2q ? noise.p2q : noise.p1q) = rate_percent / 100.0;
  noise.noisy_rz = config.run.noisy_rz;
  noise.noisy_id = config.run.noisy_id;
  return noise;
}

/// Sweep progress and drain display on one watcher thread owned by
/// run_sweep_durable (no worker-side stderr writes): workers bump an atomic
/// member counter; the watcher rewrites a count/percent/ETA line at a fixed
/// cadence. The thread is joined on every exit path — finish() is called
/// from the destructor too, so a worker exception cannot leak a detached
/// watcher past the sweep's locals.
class SweepMonitor {
 public:
  SweepMonitor(bool progress, std::size_t total_members)
      : progress_(progress && total_members > 0), total_(total_members) {
    if (progress_) watcher_ = std::thread([this] { watch(); });
  }
  ~SweepMonitor() { finish(); }

  void add(std::size_t n) { done_.fetch_add(n, std::memory_order_relaxed); }

  /// Stop and join the watcher, then print the final line (idempotent,
  /// never throws: runs from the destructor during unwinding too).
  void finish() noexcept {
    try {
      if (watcher_.joinable()) {
        {
          const std::lock_guard<std::mutex> lock(mu_);
          stop_ = true;
        }
        cv_.notify_all();
        watcher_.join();
      }
      if (progress_ && !final_printed_) {
        final_printed_ = true;
        print();
        std::cerr << '\n';
      }
    } catch (...) {
      // stderr reporting is best-effort; never propagate out of a dtor.
    }
  }

 private:
  void watch() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(500),
                         [this] { return stop_; }))
      print();
  }

  void print() const {
    const std::size_t done = done_.load(std::memory_order_relaxed);
    const double elapsed = watch_.seconds();
    std::ostringstream line;
    line << "\r  sweep " << done << '/' << total_ << " ("
         << 100 * done / total_ << "%)";
    if (done > 0 && done < total_) {
      const double eta = elapsed * static_cast<double>(total_ - done) /
                         static_cast<double>(done);
      line << " eta ~" << fmt_double(eta, 0) << "s";
    }
    if (shutdown_requested()) line << " [draining]";
    line << "    ";
    std::cerr << line.str() << std::flush;
  }

  const bool progress_;
  const std::size_t total_;
  std::atomic<std::size_t> done_{0};
  Stopwatch watch_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool final_printed_ = false;
  std::thread watcher_;
};

}  // namespace

std::vector<double> SweepConfig::expanded_rates() const {
  std::vector<double> rates = rates_percent;
  if (include_noise_free) rates.insert(rates.begin(), 0.0);
  return rates;
}

const SweepPoint& SweepResult::at(int depth, double rate_percent) const {
  for (const SweepPoint& p : points)
    if (p.depth == depth && std::abs(p.rate_percent - rate_percent) < 1e-12)
      return p;
  QFAB_CHECK_MSG(false, "no sweep point for depth " << depth << " rate "
                                                    << rate_percent);
  return points.front();
}

SweepGrid::SweepGrid(const SweepConfig& config, std::size_t n_instances_in) {
  n_depths = config.depths.size();
  n_rates = config.expanded_rates().size();
  n_instances = n_instances_in;
  const int lanes = std::clamp(config.run.batch_lanes, 1,
                               BatchedStateVector::kMaxLanes);
  block = (lanes > 1 && !config.run.per_shot)
              ? static_cast<std::size_t>(lanes)
              : 1;
  n_groups = (n_instances + block - 1) / block;
  n_units = n_groups * n_depths;
}

SweepGrid::UnitKey SweepGrid::key(std::size_t u) const {
  QFAB_CHECK(u < n_units);
  UnitKey k;
  k.depth_index = u % n_depths;
  k.block_begin = (u / n_depths) * block;
  k.block_end = std::min(k.block_begin + block, n_instances);
  return k;
}

std::size_t SweepGrid::unit_of(std::size_t depth_index,
                               std::size_t block_begin,
                               std::size_t block_end) const {
  if (depth_index >= n_depths || block_begin >= n_instances ||
      block_begin % block != 0 ||
      block_end != std::min(block_begin + block, n_instances))
    return npos;
  return (block_begin / block) * n_depths + depth_index;
}

/// Immutable per-sweep state shared by every work unit: circuits and fused
/// plans are compiled once per depth, rate clusters formed once.
struct SweepExecution::Impl {
  /// Rate columns estimated together: `columns` index expanded_rates().
  /// Only a shared cluster keeps SharedEstimateStats.
  struct RateCluster {
    std::vector<std::size_t> columns;
    std::vector<NoiseModel> noises;
    bool shared = false;
  };

  Impl(const SweepConfig& config_in, std::vector<ArithInstance> instances_in)
      : config(config_in),
        instances(std::move(instances_in)),
        grid(config, instances.size()) {
    QFAB_CHECK(!config.depths.empty());
    QFAB_CHECK(!instances.empty());
    // With sharing on, the positive-rate columns form one shared-trajectory
    // cluster per (instance, depth): sampled once from the proposal rate
    // and reweighted per column. Every other column is a cluster of its
    // own, estimated from its own trajectories; a zero-rate column (the
    // noise-free cluster) short-circuits to the ideal marginal.
    const std::vector<double> rates = config.expanded_rates();
    const bool share = config.run.shared_trajectories && !config.run.per_shot;
    RateCluster positive{{}, {}, true};
    for (std::size_t r = 0; r < rates.size(); ++r) {
      if (share && rates[r] > 0.0) {
        positive.columns.push_back(r);
        positive.noises.push_back(noise_at(config, rates[r]));
      } else {
        clusters.push_back(
            RateCluster{{r}, {noise_at(config, rates[r])}, false});
      }
    }
    if (!positive.columns.empty()) clusters.push_back(std::move(positive));
    // Transpile and compile the execution plan once per depth (cheap next
    // to simulation, but shared by every instance and trajectory). The
    // depth plans share one slice store, so a slice the AQFT depths have
    // in common compiles once per sweep; the plans keep it alive.
    circuits.reserve(config.depths.size());
    plans.reserve(config.depths.size());
    const auto slices = std::make_shared<SliceStore>();
    for (int depth : config.depths) {
      circuits.push_back(build_transpiled_circuit(spec_at(depth)));
      plans.push_back(std::make_shared<const FusedPlan>(
          circuits.back(), FusionOptions{}, slices));
    }
  }

  CircuitSpec spec_at(int depth) const {
    CircuitSpec spec = config.base;
    spec.depth = depth;
    return spec;
  }

  /// Evaluate instance i on the scalar per-gate path (InstanceContext),
  /// one rate cluster at a time, into member slot m of `out`. Used both as
  /// the primary path when units are single-instance (per-shot mode or
  /// batch_lanes <= 1) and per member by health-sentinel retries.
  void evaluate_member_scalar(std::size_t i, std::size_t d,
                              const RunOptions& run, UnitResult& out,
                              std::size_t m) const {
    // One ideal run (with checkpoints) serves every rate cluster.
    const InstanceContext context(circuits[d], spec_at(config.depths[d]),
                                  instances[i], run);
    for (const RateCluster& cluster : clusters) {
      std::vector<Pcg64> rngs;
      rngs.reserve(cluster.columns.size());
      for (std::size_t r : cluster.columns)
        rngs.push_back(point_rng(config.seed, i, d, r));
      const std::vector<InstanceOutcome> results = context.evaluate(
          cluster.noises, run, rngs, cluster.shared ? &out.stats : nullptr);
      for (std::size_t c = 0; c < cluster.columns.size(); ++c)
        out.outcomes[cluster.columns[c]][m] = results[c];
    }
  }

  /// Batched path: the whole instance block shares each ideal run (one
  /// fused-plan pass for the group) and each instance's error trajectories
  /// batch again inside evaluate. Every point still draws from
  /// point_rng(seed, i, d, r), so results are independent of grouping and
  /// identical in distribution to the scalar path.
  void run_unit_batched(std::size_t d, std::size_t i0, std::size_t i1,
                        UnitResult& out) const {
    const std::vector<ArithInstance> group(instances.begin() + i0,
                                           instances.begin() + i1);
    const InstanceBatch batch(plans[d], spec_at(config.depths[d]), group,
                              config.run);
    for (const RateCluster& cluster : clusters) {
      std::vector<std::vector<Pcg64>> rngs(cluster.columns.size());
      for (std::size_t c = 0; c < cluster.columns.size(); ++c) {
        rngs[c].reserve(group.size());
        for (std::size_t m = 0; m < group.size(); ++m)
          rngs[c].push_back(
              point_rng(config.seed, i0 + m, d, cluster.columns[c]));
      }
      const std::vector<std::vector<InstanceOutcome>> results =
          batch.evaluate(cluster.noises, config.run, rngs,
                         cluster.shared ? &out.stats : nullptr);
      for (std::size_t c = 0; c < cluster.columns.size(); ++c)
        for (std::size_t m = 0; m < group.size(); ++m)
          out.outcomes[cluster.columns[c]][m] = results[c][m];
    }
  }

  /// Run one work unit: instance block [i0, i1) at depth index d, all rate
  /// columns. When a numerical health sentinel trips, retry every member
  /// once on the scalar per-gate path, which runs none of the fused
  /// kernels; members that fail again are recorded as poisoned (outcomes
  /// stay success=false) instead of crashing the sweep.
  UnitResult compute_unit(std::size_t d, std::size_t i0, std::size_t i1) {
    const std::size_t members = i1 - i0;
    UnitResult out;
    out.outcomes.assign(grid.n_rates, std::vector<InstanceOutcome>(members));
    try {
      if (grid.block > 1)
        run_unit_batched(d, i0, i1, out);
      else
        evaluate_member_scalar(i0, d, config.run, out, 0);
      return out;
    } catch (const NumericalHealthError& err) {
      std::cerr << "\n[qfab] numerical health sentinel tripped (depth "
                << depth_label(config.depths[d]) << ", instances [" << i0
                << "," << i1 << ")): " << err.what()
                << "; retrying on the scalar per-gate path\n";
    }
    out = UnitResult{};
    out.outcomes.assign(grid.n_rates, std::vector<InstanceOutcome>(members));
    out.retried = true;
    RunOptions retry = config.run;
    retry.batch_lanes = 1;
    // The scalar path replays in double regardless, but pin it so a future
    // scalar float tier cannot silently weaken the conservative retry.
    retry.precision = Precision::kDouble;
    for (std::size_t m = 0; m < members; ++m) {
      try {
        evaluate_member_scalar(i0 + m, d, retry, out, m);
      } catch (const NumericalHealthError& err) {
        out.poisoned = true;
        std::ostringstream desc;
        desc << "instance " << (i0 + m) << " at depth "
             << depth_label(config.depths[d])
             << " failed the scalar per-gate retry: " << err.what();
        if (!out.error.empty()) out.error += "; ";
        out.error += desc.str();
        for (std::size_t r = 0; r < grid.n_rates; ++r)
          out.outcomes[r][m] = InstanceOutcome{};
      }
    }
    return out;
  }

  const SweepConfig config;
  const std::vector<ArithInstance> instances;
  const SweepGrid grid;
  std::vector<RateCluster> clusters;
  std::vector<QuantumCircuit> circuits;
  std::vector<std::shared_ptr<const FusedPlan>> plans;
};

SweepExecution::SweepExecution(const SweepConfig& config,
                               std::vector<ArithInstance> instances)
    : impl_(std::make_unique<Impl>(config, std::move(instances))) {}

SweepExecution::~SweepExecution() = default;

const SweepConfig& SweepExecution::config() const { return impl_->config; }

const std::vector<ArithInstance>& SweepExecution::instances() const {
  return impl_->instances;
}

const SweepGrid& SweepExecution::grid() const { return impl_->grid; }

UnitResult SweepExecution::run_unit(std::size_t u) {
  const SweepGrid::UnitKey k = impl_->grid.key(u);
  return impl_->compute_unit(k.depth_index, k.block_begin, k.block_end);
}

SweepAssembler::SweepAssembler(const SweepConfig& config,
                               const SweepGrid& grid)
    : config_(config),
      grid_(grid),
      rates_(config.expanded_rates()),
      outcomes_(grid.n_depths,
                std::vector<std::vector<InstanceOutcome>>(
                    grid.n_rates,
                    std::vector<InstanceOutcome>(grid.n_instances))),
      unit_stats_(grid.n_units),
      unit_error_(grid.n_units),
      unit_done_(grid.n_units, 0) {}

SweepAssembler::Add SweepAssembler::add_record(
    std::size_t depth_index, std::size_t block_begin, std::size_t block_end,
    const std::vector<std::vector<InstanceOutcome>>& outcomes,
    const SharedEstimateStats& stats, const std::string& error) {
  const std::size_t u = grid_.unit_of(depth_index, block_begin, block_end);
  if (u == SweepGrid::npos) return Add::kMisfit;
  const std::size_t members = block_end - block_begin;
  const bool shaped =
      outcomes.size() == grid_.n_rates &&
      std::all_of(outcomes.begin(), outcomes.end(),
                  [&](const std::vector<InstanceOutcome>& row) {
                    return row.size() == members;
                  });
  if (!shaped) return Add::kMisfit;
  if (unit_done_[u]) return Add::kDuplicate;
  for (std::size_t r = 0; r < grid_.n_rates; ++r)
    for (std::size_t m = 0; m < members; ++m)
      outcomes_[depth_index][r][block_begin + m] = outcomes[r][m];
  unit_stats_[u] = stats;
  unit_error_[u] = error;
  unit_done_[u] = 1;
  return Add::kAdded;
}

void SweepAssembler::add_computed(std::size_t u, UnitResult&& out) {
  const SweepGrid::UnitKey k = grid_.key(u);
  const std::size_t members = k.block_end - k.block_begin;
  QFAB_CHECK(!unit_done_[u]);
  QFAB_CHECK(out.outcomes.size() == grid_.n_rates);
  for (std::size_t r = 0; r < grid_.n_rates; ++r) {
    QFAB_CHECK(out.outcomes[r].size() == members);
    for (std::size_t m = 0; m < members; ++m)
      outcomes_[k.depth_index][r][k.block_begin + m] = out.outcomes[r][m];
  }
  unit_stats_[u] = out.stats;
  unit_error_[u] = std::move(out.error);
  unit_done_[u] = 1;
}

std::size_t SweepAssembler::units_done() const {
  return static_cast<std::size_t>(
      std::count(unit_done_.begin(), unit_done_.end(), char(1)));
}

SweepResult SweepAssembler::finish(double seconds,
                                   std::size_t units_restored,
                                   std::size_t units_retried) const {
  SweepResult result;
  result.config = config_;
  result.config.instances = static_cast<int>(grid_.n_instances);
  result.units_total = grid_.n_units;
  result.units_done = units_done();
  result.units_restored = units_restored;
  result.units_retried = units_retried;
  result.complete = result.units_done == grid_.n_units;
  for (std::size_t u = 0; u < grid_.n_units; ++u)
    if (unit_done_[u] && !unit_error_[u].empty())
      result.unit_errors.push_back(unit_error_[u]);
  if (result.complete) {
    // Deterministic stats aggregation: merge in unit order so the float
    // sums are identical run-to-run (and across interrupt/resume or any
    // thread count), not dependent on execution scheduling.
    for (std::size_t u = 0; u < grid_.n_units; ++u)
      result.shared_stats.merge(unit_stats_[u]);
    for (std::size_t d = 0; d < grid_.n_depths; ++d)
      for (std::size_t r = 0; r < grid_.n_rates; ++r) {
        SweepPoint point;
        point.depth = config_.depths[d];
        point.rate_percent = rates_[r];
        point.stats = aggregate_outcomes(outcomes_[d][r]);
        result.points.push_back(point);
      }
  }
  result.seconds = seconds;
  return result;
}

SweepResult run_sweep(const SweepConfig& config,
                      const std::vector<ArithInstance>& instances) {
  return run_sweep_durable(config, instances, DurableOptions{});
}

SweepResult run_sweep_durable(const SweepConfig& config,
                              const std::vector<ArithInstance>& instances,
                              const DurableOptions& durable) {
  QFAB_CHECK(!config.depths.empty());
  QFAB_CHECK(!instances.empty());
  Stopwatch watch;

  SweepExecution exec(config, instances);
  const SweepGrid& grid = exec.grid();
  SweepAssembler assembler(config, grid);
  std::size_t restored = 0;
  std::size_t restored_members = 0;

  std::unique_ptr<JournalWriter> journal;
  if (!durable.journal_path.empty()) {
    const std::uint64_t fp = sweep_fingerprint(config, instances);
    bool fresh = true;
    if (durable.resume) {
      const JournalContents contents = read_journal(durable.journal_path);
      if (contents.header_ok) {
        QFAB_CHECK_MSG(
            contents.fingerprint == fp,
            "journal " << durable.journal_path
                       << " was written by a different sweep configuration "
                          "(fingerprint mismatch); refusing to resume");
        if (contents.dropped_tail) {
          std::cerr << "[qfab] " << durable.journal_path << ": "
                    << contents.note << "; dropped the damaged tail, kept "
                    << contents.records.size() << " record(s)\n";
          rewrite_journal(durable.journal_path, contents);
        }
        for (const JournalRecord& rec : contents.records) {
          const std::string err =
              rec.type == JournalRecord::Type::kPoisoned ? rec.error : "";
          const SweepAssembler::Add added = assembler.add_record(
              rec.depth_index, rec.block_begin, rec.block_end, rec.outcomes,
              rec.stats, err);
          if (added == SweepAssembler::Add::kMisfit) {
            // Should be unreachable behind the fingerprint check; skipping
            // (instead of trusting bad indices) keeps resume safe anyway.
            std::cerr << "[qfab] " << durable.journal_path
                      << ": skipped a record that does not fit the sweep "
                         "grid\n";
            continue;
          }
          if (added == SweepAssembler::Add::kAdded) {
            ++restored;
            restored_members +=
                static_cast<std::size_t>(rec.block_end - rec.block_begin);
          }
        }
        fresh = false;
      } else if (!contents.note.empty()) {
        std::cerr << "[qfab] " << durable.journal_path << ": "
                  << contents.note << "; starting a fresh journal\n";
      }
    }
    journal =
        std::make_unique<JournalWriter>(durable.journal_path, fp, fresh);
  }

  std::vector<std::size_t> pending;
  pending.reserve(grid.n_units);
  for (std::size_t u = 0; u < grid.n_units; ++u)
    if (!assembler.done(u)) pending.push_back(u);

  SweepMonitor monitor(config.progress, grid.n_instances * grid.n_depths);
  monitor.add(restored_members);
  std::atomic<std::size_t> retried{0};

  parallel_for_chunked(0, pending.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      // Drain: stop claiming new units; units already running elsewhere
      // finish and journal normally.
      if (shutdown_requested()) return;
      const std::size_t u = pending[k];
      const SweepGrid::UnitKey key = grid.key(u);
      UnitResult out = exec.run_unit(u);
      if (out.retried) retried.fetch_add(1, std::memory_order_relaxed);
      const std::size_t members = key.block_end - key.block_begin;
      if (journal) {
        JournalRecord rec;
        rec.type = out.poisoned ? JournalRecord::Type::kPoisoned
                                : JournalRecord::Type::kUnit;
        rec.depth_index = static_cast<std::uint32_t>(key.depth_index);
        rec.block_begin = static_cast<std::uint32_t>(key.block_begin);
        rec.block_end = static_cast<std::uint32_t>(key.block_end);
        rec.outcomes = out.outcomes;  // copy: assembler still needs them
        rec.stats = out.stats;
        rec.error = out.error;
        assembler.add_computed(u, std::move(out));
        journal->append(rec);
      } else {
        assembler.add_computed(u, std::move(out));
      }
      monitor.add(members);
    }
  });
  monitor.finish();

  return assembler.finish(watch.seconds(), restored,
                          retried.load(std::memory_order_relaxed));
}

std::string depth_label(int depth) {
  return depth == kFullDepth ? "full" : std::to_string(depth);
}

TextTable sweep_table(const SweepResult& result) {
  std::vector<std::string> headers = {
      result.config.vary_2q ? "P2q_err%" : "P1q_err%"};
  for (int d : result.config.depths) headers.push_back("d=" + depth_label(d));
  TextTable table(std::move(headers));

  for (double rate : result.config.expanded_rates()) {
    std::vector<std::string> row;
    row.push_back(rate == 0.0 ? "noise-free" : fmt_double(rate, 2));
    for (int d : result.config.depths) {
      const PointStats& s = result.at(d, rate).stats;
      row.push_back(fmt_percent(s.success_rate, 1) + "% [-" +
                    std::to_string(s.lower_flips) + "/+" +
                    std::to_string(s.upper_flips) + "]");
    }
    table.add_row(std::move(row));
  }
  return table;
}

TextTable sweep_csv_table(const SweepResult& result) {
  TextTable table({"depth", "rate_percent", "success_rate", "sigma",
                   "lower_flips", "upper_flips", "instances"});
  for (const SweepPoint& p : result.points)
    table.add_row({depth_label(p.depth), fmt_double(p.rate_percent, 3),
                   fmt_double(p.stats.success_rate, 6),
                   fmt_double(p.stats.sigma, 3),
                   std::to_string(p.stats.lower_flips),
                   std::to_string(p.stats.upper_flips),
                   std::to_string(p.stats.instances)});
  return table;
}

void print_sweep(std::ostream& os, const SweepResult& result,
                 const std::string& caption) {
  os << caption << '\n';
  os << "  instances=" << result.config.instances
     << " shots=" << result.config.run.shots << " traj="
     << result.config.run.error_trajectories
     << (result.config.run.per_shot
             ? " mode=per-shot"
             : (result.config.run.shared_trajectories ? " mode=shared"
                                                      : " mode=stratified"))
     << " seed=" << result.config.seed << " ("
     << fmt_double(result.seconds, 1) << " s)\n";
  if (result.units_restored > 0)
    os << "  resumed: " << result.units_restored << '/' << result.units_total
       << " work units restored from the checkpoint journal\n";
  for (const std::string& err : result.unit_errors)
    os << "  WARNING poisoned unit: " << err << '\n';
  os << "  cells: success% [-lower/+upper error-bar instance flips]\n";
  sweep_table(result).print(os);
  os << '\n';
}

}  // namespace qfab
