// FusedPlan validation: fused execution must be bit-compatible (<= 1e-12)
// with the per-gate reference path on random circuits over every supported
// gate kind, including when split at arbitrary gate indices — the contract
// the trajectory noise-injection machinery relies on.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "common/rng.h"
#include "exp/experiment.h"
#include "sim/fusion.h"

namespace qfab {
namespace {

constexpr double kTol = 1e-12;

std::vector<cplx> random_state(int n, Pcg64& rng) {
  std::vector<cplx> amps(pow2(n));
  double norm = 0.0;
  for (cplx& a : amps) {
    a = cplx{rng.uniform() - 0.5, rng.uniform() - 0.5};
    norm += std::norm(a);
  }
  const double s = 1.0 / std::sqrt(norm);
  for (cplx& a : amps) a *= s;
  return amps;
}

double state_distance(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d += std::norm(a[i] - b[i]);
  return std::sqrt(d);
}

/// A random circuit drawing from every supported gate kind.
QuantumCircuit random_circuit(int n, int gates, Pcg64& rng) {
  static const GateKind kKinds[] = {
      GateKind::kId, GateKind::kX,    GateKind::kY,  GateKind::kZ,
      GateKind::kH,  GateKind::kSX,   GateKind::kSXdg, GateKind::kRZ,
      GateKind::kRY, GateKind::kRX,   GateKind::kP,  GateKind::kU,
      GateKind::kCX, GateKind::kCZ,   GateKind::kCP, GateKind::kCH,
      GateKind::kSWAP, GateKind::kCCP, GateKind::kCCX};
  QuantumCircuit qc(n);
  for (int i = 0; i < gates; ++i) {
    const GateKind kind = kKinds[rng.uniform_int(std::size(kKinds))];
    const int arity = gate_arity(kind);
    int q[3];
    q[0] = static_cast<int>(rng.uniform_int(n));
    do q[1] = static_cast<int>(rng.uniform_int(n));
    while (q[1] == q[0]);
    do q[2] = static_cast<int>(rng.uniform_int(n));
    while (q[2] == q[0] || q[2] == q[1]);
    double p[3];
    for (double& v : p) v = (rng.uniform() - 0.5) * 2.0 * M_PI;
    if (arity == 1) {
      qc.append(make_gate1(kind, q[0], p[0], p[1], p[2]));
    } else if (arity == 2) {
      qc.append(make_gate2(kind, q[0], q[1], p[0]));
    } else {
      qc.append(make_gate3(kind, q[0], q[1], q[2], p[0]));
    }
  }
  return qc;
}

StateVector run_reference(const QuantumCircuit& qc,
                          const std::vector<cplx>& init) {
  StateVector sv = StateVector::from_amplitudes(init);
  sv.apply_circuit(qc);
  return sv;
}

TEST(FusedPlan, MatchesReferenceOnRandomCircuits) {
  Pcg64 rng(20260805, 1);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 3 + static_cast<int>(rng.uniform_int(3));  // 3..5 qubits
    const QuantumCircuit qc = random_circuit(n, 40, rng);
    const std::vector<cplx> init = random_state(n, rng);

    const StateVector ref = run_reference(qc, init);
    const FusedPlan plan(qc);
    StateVector sv = StateVector::from_amplitudes(init);
    plan.apply(sv);

    EXPECT_LT(state_distance(sv.amplitudes(), ref.amplitudes()), kTol)
        << "trial " << trial << " n=" << n;
  }
}

TEST(FusedPlan, MatchesReferenceWithSmallTiles) {
  // tile_bits below the qubit count exercises the multi-tile block path.
  Pcg64 rng(20260805, 2);
  FusionOptions options;
  options.tile_bits = 3;
  for (int trial = 0; trial < 20; ++trial) {
    const QuantumCircuit qc = random_circuit(6, 60, rng);
    const std::vector<cplx> init = random_state(6, rng);

    const StateVector ref = run_reference(qc, init);
    const FusedPlan plan(qc, options);
    StateVector sv = StateVector::from_amplitudes(init);
    plan.apply(sv);

    EXPECT_LT(state_distance(sv.amplitudes(), ref.amplitudes()), kTol)
        << "trial " << trial;
  }
}

TEST(FusedPlan, SplitAtEveryGateIndexWithPauliInjection) {
  // The trajectory-injection contract: apply_range(0, s), inject a Pauli,
  // apply_range(s, N) must match the per-gate path for every split s.
  Pcg64 rng(20260805, 3);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 4;
    const QuantumCircuit qc = random_circuit(n, 30, rng);
    const std::size_t total = qc.gates().size();
    const std::vector<cplx> init = random_state(n, rng);
    const FusedPlan plan(qc);

    for (std::size_t s = 0; s <= total; ++s) {
      const Pauli p = static_cast<Pauli>(1 + rng.uniform_int(3));
      const int q = static_cast<int>(rng.uniform_int(n));

      StateVector ref = StateVector::from_amplitudes(init);
      ref.apply_circuit_range(qc, 0, s);
      ref.apply_pauli(p, q);
      ref.apply_circuit_range(qc, s, total);

      StateVector sv = StateVector::from_amplitudes(init);
      plan.apply_range(sv, 0, s);
      sv.apply_pauli(p, q);
      plan.apply_range(sv, s, total);

      EXPECT_LT(state_distance(sv.amplitudes(), ref.amplitudes()), kTol)
          << "trial " << trial << " split " << s;
    }
  }
}

TEST(FusedPlan, DoubleSplitMatchesReference) {
  // Two injection sites -> three fused segments with two partial
  // boundaries, the shape run_trajectory produces for multi-event shots.
  Pcg64 rng(20260805, 4);
  const QuantumCircuit qc = random_circuit(5, 40, rng);
  const std::size_t total = qc.gates().size();
  const std::vector<cplx> init = random_state(5, rng);
  const FusedPlan plan(qc);

  for (int trial = 0; trial < 40; ++trial) {
    std::size_t s1 = rng.uniform_int(total + 1);
    std::size_t s2 = rng.uniform_int(total + 1);
    if (s1 > s2) std::swap(s1, s2);

    StateVector ref = StateVector::from_amplitudes(init);
    ref.apply_circuit_range(qc, 0, s1);
    ref.apply_pauli(Pauli::kX, 0);
    ref.apply_circuit_range(qc, s1, s2);
    ref.apply_pauli(Pauli::kY, 1);
    ref.apply_circuit_range(qc, s2, total);

    StateVector sv = StateVector::from_amplitudes(init);
    plan.apply_range(sv, 0, s1);
    sv.apply_pauli(Pauli::kX, 0);
    plan.apply_range(sv, s1, s2);
    sv.apply_pauli(Pauli::kY, 1);
    plan.apply_range(sv, s2, total);

    EXPECT_LT(state_distance(sv.amplitudes(), ref.amplitudes()), kTol)
        << "splits " << s1 << "," << s2;
  }
}

TEST(FusedPlan, OpsPartitionGateRange) {
  Pcg64 rng(20260805, 5);
  const QuantumCircuit qc = random_circuit(5, 60, rng);
  const FusedPlan plan(qc);
  ASSERT_FALSE(plan.ops().empty());
  std::size_t expect = 0;
  for (std::size_t o = 0; o < plan.op_count(); ++o) {
    const FusedOp& op = plan.ops()[o];
    EXPECT_EQ(op.gate_begin, expect);
    EXPECT_LT(op.gate_begin, op.gate_end);
    expect = op.gate_end;
    for (std::size_t g = op.gate_begin; g < op.gate_end; ++g)
      EXPECT_EQ(plan.op_of_gate(g), o);
  }
  EXPECT_EQ(expect, plan.gate_count());
}

TEST(FusedPlan, FusionCollapsesTranspiledCircuits) {
  CircuitSpec spec;
  spec.op = Operation::kAdd;
  spec.n = 4;
  const QuantumCircuit qc = build_transpiled_circuit(spec);
  const FusedPlan plan(qc);
  // The transpiled Euler chains and CX·RZ·CX blocks must actually fuse.
  EXPECT_LT(plan.op_count(), qc.gates().size() / 2)
      << "gates=" << qc.gates().size() << " ops=" << plan.op_count();

  // And the fused replay still matches the reference path.
  StateVector ref(qc.num_qubits());
  ref.apply_circuit(qc);
  StateVector sv(qc.num_qubits());
  plan.apply(sv);
  EXPECT_LT(state_distance(sv.amplitudes(), ref.amplitudes()), kTol);
}

TEST(FusedPlan, DisabledPlanStillMatchesReference) {
  Pcg64 rng(20260805, 6);
  FusionOptions options;
  options.enable = false;
  const QuantumCircuit qc = random_circuit(4, 40, rng);
  const std::vector<cplx> init = random_state(4, rng);

  const FusedPlan plan(qc, options);
  EXPECT_EQ(plan.op_count(), qc.gates().size());
  StateVector sv = StateVector::from_amplitudes(init);
  plan.apply(sv);
  EXPECT_LT(state_distance(sv.amplitudes(),
                           run_reference(qc, init).amplitudes()),
            kTol);
}

TEST(FusedPlan, SubrangePlanConcurrentHammer) {
  // Many threads resolving overlapping subranges of one shared plan: the
  // read path is a shared_lock, so concurrent hits must not serialize or
  // race with misses inserting (run under the TSan preset to prove it).
  // Every returned reference must stay valid and describe its range.
  Pcg64 rng(20260805, 7);
  const QuantumCircuit qc = random_circuit(5, 60, rng);
  const FusedPlan plan(qc);
  const std::size_t total = qc.gates().size();

  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Pcg64 trng(20260805, 100 + t);
      for (int r = 0; r < kRounds; ++r) {
        // A small pool of ranges so threads collide on the same keys
        // (first resolver builds, the rest must hit the cache).
        const std::size_t begin = trng.uniform_int(8);
        const std::size_t end =
            begin + 1 + trng.uniform_int(total - 8);
        const FusedPlan& sub = plan.subrange_plan(begin, end);
        if (sub.circuit().gates().size() != end - begin) failures.fetch_add(1);
        if (sub.gate_count() != end - begin) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);

  // The cached plans still produce correct states after the stampede.
  const std::vector<cplx> init = random_state(5, rng);
  StateVector ref = StateVector::from_amplitudes(init);
  ref.apply_circuit_range(qc, 3, total);
  StateVector sv = StateVector::from_amplitudes(init);
  plan.subrange_plan(3, total).apply(sv);
  EXPECT_LT(state_distance(sv.amplitudes(), ref.amplitudes()), kTol);
}

TEST(FusedPlan, CleanRunSharesPlanAcrossInstances) {
  // A CleanRun built from a shared plan must agree with one that compiles
  // its own, and with the unfused reference.
  CircuitSpec spec;
  spec.op = Operation::kAdd;
  spec.n = 3;
  const QuantumCircuit qc = build_transpiled_circuit(spec);
  const auto plan = std::make_shared<const FusedPlan>(qc);

  StateVector init(qc.num_qubits());
  const CleanRun shared(qc, init, 16, plan);
  const CleanRun owned(qc, init, 16);
  StateVector ref(qc.num_qubits());
  ref.apply_circuit_range(qc, 0, qc.gates().size());

  EXPECT_LT(state_distance(shared.final_state().amplitudes(),
                           ref.amplitudes()),
            kTol);
  for (std::size_t g = 0; g <= qc.gates().size(); g += 7) {
    EXPECT_LT(state_distance(shared.state_at(g).amplitudes(),
                             owned.state_at(g).amplitudes()),
              kTol);
  }
}

TEST(FusedPlan, HoistedDiagonalKeysMatchPerRowGather) {
  // The batched diagonal kernel reads its phase table through DiagTile:
  // the tile's base key once, then consecutive entries while it walks the
  // rows in submask order. On every row of the QFA n=8 and QFM n=4
  // full-depth plans, at every tile height the batched engine can use,
  // that hoisted key must equal the per-row shift loop (diag_key) and the
  // plain gather of the op's qubit bits, and the walk must visit each row
  // of the tile exactly once.
  for (const Operation opn : {Operation::kAdd, Operation::kMultiply}) {
    CircuitSpec spec;
    spec.op = opn;
    spec.n = opn == Operation::kAdd ? 8 : 4;
    const FusedPlan plan(build_transpiled_circuit(spec));
    const int n = plan.circuit().num_qubits();
    int diag_ops = 0;
    for (const FusedOp& op : plan.ops()) {
      if (op.kind != FusedOp::Kind::kDiagonal || op.shifts.empty()) continue;
      ++diag_ops;
      const auto* ss = op.shifts.data();
      const int ns = static_cast<int>(op.shifts.size());
      long mismatches = 0, bad_visits = 0;
      for (int tb = 4; tb <= n; ++tb) {
        const u64 len = u64{1} << tb;
        std::vector<int> seen(len);
        for (u64 base = 0; base < pow2(n); base += len) {
          std::fill(seen.begin(), seen.end(), 0);
          const DiagTile tile = diag_tile(ss, ns, base, len);
          u64 c = 0;
          do {
            u64 s = 0, k = tile.key0;
            do {
              const u64 row = base | c | s;
              u64 gather = 0;
              for (std::size_t b = 0; b < op.qubits.size(); ++b)
                gather |= ((row >> op.qubits[b]) & 1u) << b;
              if (k != gather || diag_key(ss, ns, row) != gather) ++mismatches;
              ++seen[c | s];
              ++k;
              s = next_submask(s, tile.low);
            } while (s != 0);
            c = next_submask(c, tile.rest);
          } while (c != 0);
          for (int v : seen) bad_visits += v != 1;
        }
      }
      EXPECT_EQ(mismatches, 0) << "op over gates [" << op.gate_begin << ", "
                               << op.gate_end << ")";
      EXPECT_EQ(bad_visits, 0);
    }
    EXPECT_GT(diag_ops, 2);
  }
}

}  // namespace
}  // namespace qfab
