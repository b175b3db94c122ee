// FusedPlan validation: the compiled ops (pinned bit for bit), the slice
// store, the basis-only contract, and the plan's execution by its one
// executor, the batched walk (apply_plan / apply_plan_range on a one-lane
// BatchedStateVector), which must match the per-gate reference path
// (<= 1e-12), including when split inside ops — the contract the
// trajectory noise-injection machinery relies on. tests/test_batch.cpp
// runs the walk on transpiled random circuits over every gate kind at
// several lane counts, small tiles and splits at every gate index.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "common/rng.h"
#include "engine_helpers.h"
#include "exp/experiment.h"
#include "sim/batch.h"
#include "sim/fusion.h"

namespace qfab {
namespace {

constexpr double kTol = 1e-12;

StateVector run_reference(const QuantumCircuit& qc,
                          const std::vector<cplx>& init) {
  StateVector sv = StateVector::from_amplitudes(init);
  sv.apply_circuit(qc);
  return sv;
}

/// A one-lane batched vector holding `init`.
BatchedStateVector one_lane(const std::vector<cplx>& init) {
  BatchedStateVector bsv(ceil_log2(init.size()), 1);
  bsv.set_lane(0, nonzero_terms(StateVector::from_amplitudes(init)));
  return bsv;
}

/// `init` after the whole plan (global phase included), run by apply_plan.
StateVector run_plan(const FusedPlan& plan, const std::vector<cplx>& init) {
  BatchedStateVector bsv = one_lane(init);
  apply_plan(plan, bsv);
  return bsv.lane_state(0);
}

/// FNV-1a over the bytes of 64-bit words.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  void operator()(std::uint64_t v) {
    for (int b = 0; b < 8; ++b, v >>= 8) {
      h ^= v & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

/// Feed `amps` to `word` as 64-bit words: the length, then each part by
/// bit pattern, so +0.0 and -0.0 differ.
template <typename Word>
void amp_words(const std::vector<cplx>& amps, Word& word) {
  word(amps.size());
  for (const cplx& c : amps) {
    word(std::bit_cast<std::uint64_t>(c.real()));
    word(std::bit_cast<std::uint64_t>(c.imag()));
  }
}

/// Feed every field of every op of `plan` to `word` as 64-bit words.
template <typename Word>
void op_words(const FusedPlan& plan, Word& word) {
  const auto ints = [&](const std::vector<int>& v) {
    word(v.size());
    for (int x : v) word(static_cast<std::uint64_t>(x));
  };
  word(plan.op_count());
  for (const FusedOp& op : plan.ops()) {
    word(static_cast<std::uint64_t>(op.kind));
    word(op.gate_begin);
    word(op.gate_end);
    word(static_cast<std::uint64_t>(op.q0));
    word(static_cast<std::uint64_t>(op.q1));
    word(static_cast<std::uint64_t>(op.max_qubit));
    ints(op.qubits);
    amp_words(op.m, word);
    amp_words(op.phases, word);
    word(op.shifts.size());
    for (const FusedOp::DiagShift& s : op.shifts) {
      word(static_cast<std::uint64_t>(s.shift));
      word(s.mask);
      word(static_cast<std::uint64_t>(s.out));
    }
  }
}

/// Whether two plans' ops are equal field for field and bit for bit.
bool same_ops_bitwise(const FusedPlan& a, const FusedPlan& b) {
  std::vector<std::uint64_t> wa, wb;
  const auto to_a = [&](std::uint64_t v) { wa.push_back(v); };
  const auto to_b = [&](std::uint64_t v) { wb.push_back(v); };
  op_words(a, to_a);
  op_words(b, to_b);
  return wa == wb;
}

/// The prefix [b, k) and suffix [k, e) slices of each op [b, e) of `plan`:
/// the slices injection sites inside an op ask subrange_plan for.
std::vector<std::pair<std::size_t, std::size_t>> op_slices(
    const FusedPlan& plan) {
  std::vector<std::pair<std::size_t, std::size_t>> slices;
  for (const FusedOp& op : plan.ops())
    for (std::size_t k = op.gate_begin + 1; k < op.gate_end; ++k) {
      slices.emplace_back(op.gate_begin, k);
      slices.emplace_back(k, op.gate_end);
    }
  return slices;
}

/// Digest of `plan`'s ops and of the ops of each of its op_slices.
std::uint64_t plan_and_slices_digest(const FusedPlan& plan) {
  Fnv1a f;
  op_words(plan, f);
  for (const auto& [b, e] : op_slices(plan))
    op_words(plan.subrange_plan(b, e), f);
  return f.h;
}

/// Gates [b, e) of `qc` as a circuit of their own, over the same qubits.
QuantumCircuit slice_circuit(const QuantumCircuit& qc, std::size_t b,
                             std::size_t e) {
  QuantumCircuit sub(qc.num_qubits());
  for (std::size_t g = b; g < e; ++g) sub.append(qc.gates()[g]);
  return sub;
}

/// The seven plans panelbench's workloads compile.
struct PanelPlan {
  Operation op;
  int n;
  int depth;
};
constexpr PanelPlan kPanelPlans[] = {
    {Operation::kAdd, 8, 1},
    {Operation::kAdd, 8, 2},
    {Operation::kAdd, 8, 3},
    {Operation::kAdd, 8, 4},
    {Operation::kAdd, 8, kFullDepth},
    {Operation::kMultiply, 4, 1},
    {Operation::kMultiply, 4, kFullDepth}};

QuantumCircuit panel_circuit(const PanelPlan& p) {
  CircuitSpec spec;
  spec.op = p.op;
  spec.n = p.n;
  spec.depth = p.depth;
  return build_transpiled_circuit(spec);
}

TEST(FusedPlan, DoubleSplitMatchesReference) {
  // Two injection sites -> three segments with two partial boundaries,
  // each run by apply_plan_range (compiled slices inside ops), the shape a
  // multi-event trajectory takes.
  Pcg64 rng(20260805, 4);
  const QuantumCircuit qc = random_basis_circuit(5, 40, rng);
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

    BatchedStateVector bsv = one_lane(init);
    apply_plan_range(plan, bsv, 0, s1);
    bsv.apply_pauli(0, Pauli::kX, 0);
    apply_plan_range(plan, bsv, s1, s2);
    bsv.apply_pauli(0, Pauli::kY, 1);
    apply_plan_range(plan, bsv, s2, total);

    EXPECT_LT(state_distance(bsv.lane_state(0).amplitudes(), ref.amplitudes()),
              kTol)
        << "splits " << s1 << "," << s2;
  }
}

TEST(FusedPlan, OpsPartitionGateRange) {
  Pcg64 rng(20260805, 5);
  const QuantumCircuit qc = random_basis_circuit(5, 60, rng);
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
  std::vector<cplx> init(pow2(qc.num_qubits()));
  init[0] = 1.0;
  EXPECT_LT(state_distance(run_plan(plan, init).amplitudes(),
                           run_reference(qc, init).amplitudes()),
            kTol);
}

TEST(FusedPlan, DisabledPlanStillMatchesReference) {
  Pcg64 rng(20260805, 6);
  FusionOptions options;
  options.enable = false;
  const QuantumCircuit qc = random_basis_circuit(4, 40, rng);
  const std::vector<cplx> init = random_state(4, rng);

  const FusedPlan plan(qc, options);
  EXPECT_EQ(plan.op_count(), qc.gates().size());
  EXPECT_LT(state_distance(run_plan(plan, init).amplitudes(),
                           run_reference(qc, init).amplitudes()),
            kTol);
}

TEST(FusedPlan, RejectsGatesOutsideTheBasis) {
  // A plan compiles transpiled circuits only: a CH, a SWAP or a CCX throws a
  // CheckError naming the gate, wherever it sits and under either option.
  const auto with = [](const Gate& g) {
    QuantumCircuit qc(3);
    qc.sx(0);
    qc.cx(0, 1);
    qc.append(g);
    qc.rz(2, 0.3);
    return qc;
  };
  FusionOptions unfused;
  unfused.enable = false;
  for (const Gate& g :
       {make_gate2(GateKind::kCH, 1, 0), make_gate2(GateKind::kSWAP, 0, 2),
        make_gate3(GateKind::kCCX, 2, 0, 1)}) {
    const QuantumCircuit qc = with(g);
    for (const FusionOptions& options : {FusionOptions{}, unfused}) {
      try {
        const FusedPlan plan(qc, options);
        ADD_FAILURE() << g.to_string() << " compiled into "
                      << plan.op_count() << " ops";
      } catch (const CheckError& e) {
        EXPECT_NE(std::string(e.what()).find("gate 2 is " + g.to_string()),
                  std::string::npos)
            << e.what();
      }
    }
    // Its transpiled form compiles.
    EXPECT_GT(FusedPlan(transpile_to_basis(qc)).op_count(), 0u);
  }
}

TEST(FusedPlan, SandwichRetriesAWindowWhoseStoppingOpChanged) {
  // CX(0,1) X(1) | RZ(3, t) RZ(3, -t) RZ(2) | X(1) CX(0,1) is exactly the
  // RZ on qubit 2. The first pass merges the middle into one table over
  // {2, 3}, which stops the sandwich window of the first CX (four qubits),
  // and only then drops qubit 3 from it (the table ignores it: both of its
  // q3 halves are the same products). The next pass must try that window
  // again although none of the ops before its stopping op changed: it now
  // spans all seven gates and collapses them.
  QuantumCircuit qc(4);
  qc.cx(0, 1);
  qc.x(1);
  qc.rz(3, 0.7);
  qc.rz(3, -0.7);
  qc.rz(2, 0.4);
  qc.x(1);
  qc.cx(0, 1);
  const FusedPlan plan(qc);
  ASSERT_EQ(plan.op_count(), 1u);
  EXPECT_EQ(plan.ops()[0].kind, FusedOp::Kind::kDiagonal);
  EXPECT_EQ(plan.ops()[0].qubits, std::vector<int>{2});
}

TEST(FusedPlan, CompiledOpsMatchPinnedDigest) {
  // Pins the compiled ops bit for bit: any change to compile() that moves
  // one bit of one op of the seven panel plans, their relabelled twins, or
  // any prefix or suffix slice of an op of either moves a digest. The
  // expected values depend on this toolchain's libm cos and sin, which
  // produce the RZ/P/CP/CCP phases; a different libm may need new values,
  // taken from a build whose ops are known good. The last check pins what
  // the plan's one executor, the batched walk, makes of one plan (both
  // kernel builds give the same bits).
  constexpr std::uint64_t kExpected[][2] = {
      // {plan and its slices, twin and its slices}
      {0xcd93bd4ad9cd598dULL, 0xfcdb1b7b7a356ccULL},  // QFA n=8, depth 1
      {0xd45d9f8a9e620038ULL, 0xd4d754d525077209ULL},  // QFA n=8, depth 2
      {0xc4510e7e34eaac40ULL, 0xfe4829c7637fde45ULL},  // QFA n=8, depth 3
      {0xdae945e02a7dea70ULL, 0x9ce24dcea3cb9f5ULL},  // QFA n=8, depth 4
      {0x10fa4d759656fbafULL, 0xca840d31b4a73acaULL},  // QFA n=8, full depth
      {0xd55693f34b6b4f54ULL, 0xc292c4fcbcd4743ULL},  // QFM n=4, depth 1
      {0xa3e6b09caf67e625ULL, 0x72751f0bd106e021ULL},  // QFM n=4, full depth
  };
  for (std::size_t p = 0; p < std::size(kPanelPlans); ++p) {
    const FusedPlan plan(panel_circuit(kPanelPlans[p]));
    const FusedPlan& twin = plan.relabelled();
    ASSERT_NE(&twin, &plan);
    EXPECT_EQ(plan_and_slices_digest(plan), kExpected[p][0])
        << "plan " << p << std::hex << " digest 0x"
        << plan_and_slices_digest(plan);
    EXPECT_EQ(plan_and_slices_digest(twin), kExpected[p][1])
        << "twin " << p << std::hex << " digest 0x"
        << plan_and_slices_digest(twin);
  }

  // apply_plan of the QFM n=4 full plan on one lane from basis
  // |x=3, y=5, z=0>, in the identity row layout.
  const FusedPlan qfm(panel_circuit(kPanelPlans[6]));
  BatchedStateVector bsv(qfm.circuit().num_qubits(), 1);
  bsv.set_lane(0, {BasisTerm{3 | (5 << 4), 1.0}});
  apply_plan(qfm, bsv);
  Fnv1a f;
  amp_words(bsv.lane_state(0).amplitudes(), f);
  EXPECT_EQ(f.h, 0x34a6c01c796e43afULL)
      << std::hex << "amplitudes digest 0x" << f.h;
}

TEST(SliceStore, DepthPlansShareSlicesWhoseGatesMatch) {
  // The QFA n=8 depth-4 and full-depth plans over one store: every pair of
  // op slices whose gates match, wherever they sit in their circuits, is
  // one object, and so is the pair's twin slice (the QFA depth plans share
  // one row layout).
  const auto store = std::make_shared<SliceStore>();
  const QuantumCircuit qc4 = panel_circuit(kPanelPlans[3]);
  const QuantumCircuit qcf = panel_circuit(kPanelPlans[4]);
  const FusedPlan d4(qc4, {}, store), full(qcf, {}, store);
  ASSERT_TRUE(d4.row_layout() && full.row_layout());
  ASSERT_TRUE(*d4.row_layout() == *full.row_layout());
  const auto same_gates = [&](std::size_t b, std::size_t e, std::size_t b2,
                              std::size_t e2) {
    if (e - b != e2 - b2) return false;
    for (std::size_t g = 0; g < e - b; ++g) {
      const Gate& x = qc4.gates()[b + g];
      const Gate& y = qcf.gates()[b2 + g];
      if (x.kind != y.kind || x.qubits != y.qubits ||
          std::bit_cast<std::array<std::uint64_t, 3>>(x.params) !=
              std::bit_cast<std::array<std::uint64_t, 3>>(y.params))
        return false;
    }
    return true;
  };
  int pairs = 0, moved = 0;
  for (const auto& [b, e] : op_slices(d4))
    for (const auto& [b2, e2] : op_slices(full)) {
      if (!same_gates(b, e, b2, e2)) continue;
      ++pairs;
      moved += b != b2;
      EXPECT_EQ(&d4.subrange_plan(b, e), &full.subrange_plan(b2, e2))
          << "[" << b << ", " << e << ") vs [" << b2 << ", " << e2 << ")";
      EXPECT_EQ(&d4.relabelled().subrange_plan(b, e),
                &full.relabelled().subrange_plan(b2, e2));
    }
  EXPECT_GT(pairs, 100);
  EXPECT_GT(moved, 0);  // some shared slices sit at different gate indices
}

TEST(SliceStore, SlicesDifferingInAKeyedFieldAreDistinct) {
  const auto store = std::make_shared<SliceStore>();
  // Two circuits equal but for the sign of one zero angle: their slices
  // over the RZ differ, those before it are shared.
  const auto rz_circuit = [](double angle) {
    QuantumCircuit qc(3);
    qc.sx(0);
    qc.cx(0, 1);
    qc.rz(1, angle);
    qc.cx(0, 1);
    qc.sx(2);
    return qc;
  };
  const FusedPlan pos(rz_circuit(0.0), {}, store);
  const FusedPlan neg(rz_circuit(-0.0), {}, store);
  EXPECT_EQ(&pos.subrange_plan(0, 2), &neg.subrange_plan(0, 2));
  EXPECT_NE(&pos.subrange_plan(0, 3), &neg.subrange_plan(0, 3));
  EXPECT_NE(&pos.subrange_plan(2, 5), &neg.subrange_plan(2, 5));

  // The same gates over a wider register.
  const QuantumCircuit narrow = rz_circuit(0.0);
  QuantumCircuit wide(4);
  for (const Gate& g : narrow.gates()) wide.append(g);
  const FusedPlan wider(wide, {}, store);
  EXPECT_NE(&pos.subrange_plan(0, 2), &wider.subrange_plan(0, 2));

  // The same circuit under other FusionOptions.
  FusionOptions small_tiles;
  small_tiles.tile_bits = 2;
  const FusedPlan tiled(rz_circuit(0.0), small_tiles, store);
  EXPECT_NE(&pos.subrange_plan(0, 2), &tiled.subrange_plan(0, 2));

  // One logical slice in two row layouts: SX on q1 makes q1 and q2
  // superposed (q2 is the target of a CX under a superposed control), SX
  // on q2 only q2. The twin slices differ; a third circuit with q1's
  // layout shares its twin slice with the first.
  const auto layout_circuit = [](int sx_qubit, bool tail) {
    QuantumCircuit qc(3);
    qc.sx(sx_qubit);
    qc.rz(1, 0.3);
    qc.cx(1, 2);
    qc.rz(2, 0.2);
    qc.cx(1, 2);
    if (tail) qc.rz(0, 0.5);
    return qc;
  };
  const FusedPlan on1(layout_circuit(1, false), {}, store);
  const FusedPlan on2(layout_circuit(2, false), {}, store);
  const FusedPlan on1_tail(layout_circuit(1, true), {}, store);
  ASSERT_TRUE(on1.row_layout() && on2.row_layout() && on1_tail.row_layout());
  ASSERT_FALSE(*on1.row_layout() == *on2.row_layout());
  ASSERT_TRUE(*on1.row_layout() == *on1_tail.row_layout());
  EXPECT_EQ(&on1.subrange_plan(1, 5), &on2.subrange_plan(1, 5));
  EXPECT_NE(&on1.relabelled().subrange_plan(1, 5),
            &on2.relabelled().subrange_plan(1, 5));
  EXPECT_EQ(&on1.relabelled().subrange_plan(1, 5),
            &on1_tail.relabelled().subrange_plan(1, 5));
}

TEST(SliceStore, SharedSlicesEqualSlicesCompiledAlone) {
  // Every prefix and suffix slice of the five QFA n=8 plans, served from
  // one store shared by all five, equals bit for bit a plan of the slice's
  // circuit compiled on its own. The 3510 slices are 1207 distinct gate
  // sequences, and the store compiles each once.
  const auto store = std::make_shared<SliceStore>();
  std::vector<std::unique_ptr<const FusedPlan>> plans;
  for (std::size_t p = 0; p < 5; ++p)
    plans.push_back(std::make_unique<const FusedPlan>(
        panel_circuit(kPanelPlans[p]), FusionOptions{}, store));
  long checked = 0, mismatched = 0;
  std::set<const FusedPlan*> distinct;
  for (const auto& plan : plans)
    for (const auto& [b, e] : op_slices(*plan)) {
      const FusedPlan& shared = plan->subrange_plan(b, e);
      const FusedPlan alone(slice_circuit(plan->circuit(), b, e));
      mismatched += !same_ops_bitwise(shared, alone);
      distinct.insert(&shared);
      ++checked;
    }
  EXPECT_EQ(checked, 3510);
  EXPECT_EQ(distinct.size(), 1207u);
  EXPECT_EQ(mismatched, 0);
}

TEST(FusedPlan, SubrangePlanConcurrentHammer) {
  // Many threads resolving overlapping subranges of two plans over one
  // slice store: the read paths are shared_locks, so concurrent hits must
  // not serialize or race with misses inserting, within a plan or across
  // the two (run under the TSan preset to prove it). The second circuit
  // extends the first, so the plans share every slice of the first's
  // gates. Every returned reference must stay valid and describe its range.
  Pcg64 rng(20260805, 7);
  const QuantumCircuit qc = random_basis_circuit(5, 60, rng);
  const QuantumCircuit tail = random_basis_circuit(5, 4, rng);
  QuantumCircuit longer = qc;
  for (const Gate& g : tail.gates()) longer.append(g);
  const auto store = std::make_shared<SliceStore>();
  const FusedPlan plan(qc, {}, store);
  const FusedPlan plan2(longer, {}, store);
  const std::size_t total = qc.gates().size();
  const std::size_t extra = tail.gates().size();

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
        // (first resolver builds, the rest must hit the store). Ranges of
        // the second plan may run past the first's gates.
        const bool second = (r + t) % 2 != 0;
        const std::size_t begin = trng.uniform_int(8);
        const std::size_t end =
            begin + 1 + trng.uniform_int(total - 8 + (second ? extra : 0));
        const FusedPlan& sub =
            (second ? plan2 : plan).subrange_plan(begin, end);
        if (sub.circuit().gates().size() != end - begin) failures.fetch_add(1);
        if (sub.gate_count() != end - begin) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(&plan.subrange_plan(3, total), &plan2.subrange_plan(3, total));

  // The stored plans still produce correct states after the stampede.
  const std::vector<cplx> init = random_state(5, rng);
  StateVector ref = StateVector::from_amplitudes(init);
  ref.apply_circuit_range(qc, 3, total);
  EXPECT_LT(state_distance(run_plan(plan.subrange_plan(3, total), init)
                               .amplitudes(),
                           ref.amplitudes()),
            kTol);
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
