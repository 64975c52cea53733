"""EvolutionPlan lowering: mask-plan evolution must match circuit evolution.

Property suite for the term-level engine: random SCB Hamiltonians are lowered
under both evolution strategies and every plan is replayed against the exact
same circuit the strategy builds — full complex vectors compared, so global
phases count, including the batch axis.  The refusal paths (non-evolution
strategies, non-commuting direct fragments) and the per-program cache are
covered as well.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.circuits.statevector import Statevector
from repro.compile.plan import (
    EvolutionPlan,
    PlanLoweringError,
    lower_problem,
)
from repro.operators.scb_term import SCBTerm
from repro.utils.linalg import random_statevector

ALPHABET = "IXYZnmsd"


def random_problem(seed: int, *, steps: int = 1, order: int = 1, time: float = 0.3):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    terms: dict[str, float] = {}
    for _ in range(int(rng.integers(1, 4))):
        while True:
            label = "".join(rng.choice(list(ALPHABET), size=n))
            if set(label) != {"I"} and label not in terms:
                break
        terms[label] = float(rng.uniform(0.2, 1.0) * rng.choice((-1, 1)))
    return repro.SimulationProblem.from_labels(
        n, terms, time=time, steps=steps, order=order
    )


def circuit_reference(program, psi: np.ndarray) -> np.ndarray:
    return Statevector(psi).evolve(program.circuit).data


class TestPlanMatchesCircuit:
    @given(
        seed=st.integers(0, 200),
        strategy=st.sampled_from(["direct", "pauli"]),
        steps=st.integers(1, 3),
        order=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_hamiltonians(self, seed, strategy, steps, order):
        problem = random_problem(seed, steps=steps, order=order)
        program = repro.compile(problem, strategy)
        plan = program.evolution_plan()
        assert plan is not None
        psi = random_statevector(problem.num_qubits, np.random.default_rng(seed))
        # Full vectors, not fidelities: the identity-string global phase must
        # match the circuit's global_phase too.
        np.testing.assert_allclose(
            plan.evolve(psi), circuit_reference(program, psi), atol=1e-10
        )

    @given(seed=st.integers(0, 100), strategy=st.sampled_from(["direct", "pauli"]))
    @settings(max_examples=20, deadline=None)
    def test_batch_axis(self, seed, strategy):
        problem = random_problem(seed, steps=2, order=2)
        program = repro.compile(problem, strategy)
        rng = np.random.default_rng(seed + 1)
        batch = np.column_stack(
            [random_statevector(problem.num_qubits, rng) for _ in range(3)]
        )
        evolved = program.evolution_plan().evolve(batch)
        for column in range(3):
            np.testing.assert_allclose(
                evolved[:, column],
                circuit_reference(program, batch[:, column]),
                atol=1e-10,
            )

    def test_global_phase_only_problem(self):
        # A purely diagonal Hamiltonian with an identity component: the plan's
        # accumulated step phase must reproduce the circuit's global phase.
        problem = repro.SimulationProblem.from_labels(
            2, {"nm": 0.7, "ZI": 0.4}, time=0.9, steps=3
        )
        program = repro.compile(problem, "pauli")
        psi = random_statevector(2, np.random.default_rng(0))
        np.testing.assert_allclose(
            program.evolution_plan().evolve(psi),
            circuit_reference(program, psi),
            atol=1e-12,
        )


class TestLoweringRefusals:
    def test_non_evolution_strategy_refuses(self):
        problem = random_problem(3)
        with pytest.raises(PlanLoweringError, match="does not lower"):
            lower_problem(problem, "block_encoding")

    def test_complex_transition_fragment_lowers_exactly(self):
        # A complex coefficient produces anticommuting strings — no product of
        # independent rotations exists — but the closed-form fragment
        # exponential still reproduces the exact circuit.
        ham = repro.Hamiltonian(3).add_term(SCBTerm.from_label("ssI", 0.5 + 0.5j))
        ham.add_term(SCBTerm.from_label("IZn", 0.3))
        program = repro.compile(repro.SimulationProblem(ham, 0.3, steps=2), "direct")
        psi = random_statevector(3, np.random.default_rng(1))
        np.testing.assert_allclose(
            program.evolution_plan().evolve(psi),
            circuit_reference(program, psi),
            atol=1e-10,
        )

    def test_trotter_split_complex_fragment_refuses(self):
        # Under complex_mode="trotter_split" the circuit deliberately carries
        # a splitting error; the exact plan would disagree, so lowering refuses.
        ham = repro.Hamiltonian(3).add_term(SCBTerm.from_label("ssI", 0.5 + 0.5j))
        problem = repro.SimulationProblem(ham, 0.3).with_options(
            complex_mode="trotter_split"
        )
        with pytest.raises(PlanLoweringError, match="trotter_split"):
            lower_problem(problem, "direct")

    def test_kernel_backend_falls_back_when_refused(self):
        ham = repro.Hamiltonian(3).add_term(SCBTerm.from_label("ssI", 0.5 + 0.5j))
        problem = repro.SimulationProblem(ham, 0.3).with_options(
            complex_mode="trotter_split"
        )
        program = repro.compile(problem, "direct")
        assert program.evolution_plan() is None
        kernel = program.run(backend="kernel")
        reference = program.run(backend="statevector")
        np.testing.assert_allclose(kernel.data, reference.data, atol=1e-12)

    @pytest.mark.parametrize("strategy", ["block_encoding", "mpf"])
    def test_kernel_backend_falls_back_for_wide_programs(self, strategy):
        problem = repro.SimulationProblem.from_labels(
            3, {"nsd": 0.4, "ZII": 0.3}, time=0.2
        )
        program = repro.compile(problem, strategy)
        assert program.evolution_plan() is None
        kernel = program.run(backend="kernel")
        reference = program.run(backend="statevector")
        np.testing.assert_allclose(kernel.data, reference.data, atol=1e-12)


class TestPlanObject:
    def test_plan_is_cached_on_the_program(self):
        program = repro.compile(random_problem(5), "direct")
        assert program.evolution_plan() is program.evolution_plan()

    def test_failed_lowering_is_cached_too(self):
        ham = repro.Hamiltonian(2).add_term(SCBTerm.from_label("ss", 1.0 + 1.0j))
        problem = repro.SimulationProblem(ham, 0.1).with_options(
            complex_mode="trotter_split"
        )
        program = repro.compile(problem, "direct")
        assert program.evolution_plan() is None
        assert program.evolution_plan() is None
        assert program._plan_unavailable

    def test_num_rotations_and_describe(self):
        problem = repro.SimulationProblem.from_labels(
            3, {"ZZI": 0.5, "IXX": 0.25}, time=0.4, steps=4, order=2
        )
        plan = repro.compile(problem, "pauli").evolution_plan()
        assert isinstance(plan, EvolutionPlan)
        # The order-2 turnaround coalesces the doubled middle fragment, so the
        # step schedule is s0(½) · s1(1) · s0(½): three rotations per step.
        assert plan.num_rotations == 3 * 4
        assert "pauli" in plan.describe()

    def test_dimension_mismatch_raises(self):
        plan = repro.compile(random_problem(7), "direct").evolution_plan()
        with pytest.raises(repro.CompileError, match="does not fit"):
            plan.evolve(np.ones(3, dtype=complex))

    def test_more_than_one_batch_axis_raises(self):
        # Extra trailing axes would broadcast the baked tables against batch
        # dimensions and silently corrupt amplitudes; the contract is
        # (dim,) or (dim, batch) only.
        problem = random_problem(7)
        plan = repro.compile(problem, "direct").evolution_plan()
        dim = 1 << problem.num_qubits
        with pytest.raises(repro.CompileError, match="batch"):
            plan.evolve(np.ones((dim, 2, 2), dtype=complex))

    def test_kernel_backend_rejects_unknown_kwargs(self):
        program = repro.compile(random_problem(7), "direct")
        with pytest.raises(repro.CompileError, match="unknown kernel-backend"):
            program.run(backend="kernel", shots=10)

    def test_factored_sign_path_matches_circuit(self, monkeypatch):
        # Force the Jordan–Wigner factoring (common-Z sign + residual table)
        # onto the wide groups by shrinking the dense-table cap below the
        # Z-chain width (but not below the two-transition residual).
        import repro.compile.plan as plan_module

        monkeypatch.setattr(plan_module, "_MAX_TABLE_BITS", 3)
        # Layouts memoized under the default cap must not serve this one.
        monkeypatch.setattr(plan_module, "_LOWER_MEMO", LRUMemo(32))
        problem = repro.SimulationProblem.from_labels(
            5,
            {"dZZZs": 0.6, "ZZZZI": 0.4, "nIIIn": 0.3},
            time=0.3,
            steps=2,
            order=2,
        )
        for strategy in ("direct", "pauli"):
            program = repro.compile(problem, strategy)
            plan = program.evolution_plan()
            assert any(
                getattr(op, "sign_mask", 0) for op in plan._baked_ops()
            ), "expected at least one factored-sign op"
            psi = random_statevector(5, np.random.default_rng(3))
            np.testing.assert_allclose(
                plan.evolve(psi), circuit_reference(program, psi), atol=1e-10
            )
            batch = np.column_stack([psi, random_statevector(5, np.random.default_rng(4))])
            np.testing.assert_allclose(
                plan.evolve(batch)[:, 0], circuit_reference(program, psi), atol=1e-10
            )

    def test_kernel_backend_batched_initial_state(self):
        problem = random_problem(9, steps=2)
        program = repro.compile(problem, "direct")
        rng = np.random.default_rng(2)
        batch = np.column_stack(
            [random_statevector(problem.num_qubits, rng) for _ in range(2)]
        )
        out = program.run(backend="kernel", initial_state=batch)
        assert isinstance(out, np.ndarray) and out.shape == batch.shape
        np.testing.assert_allclose(
            out[:, 0], circuit_reference(program, batch[:, 0]), atol=1e-10
        )


# ---------------------------------------------------------------------------
# The lowering memo: the Hamiltonian-only half of lowering, built once per
# (as-written Hamiltonian, strategy, trotter_split)
# ---------------------------------------------------------------------------

import repro.compile.plan as plan_module  # noqa: E402
from repro.telemetry import metrics  # noqa: E402
from repro.utils.memo import LRUMemo  # noqa: E402


@pytest.fixture
def empty_memo(monkeypatch):
    monkeypatch.setattr(plan_module, "_LOWER_MEMO", LRUMemo(32))
    return plan_module._LOWER_MEMO


def cold_lowering(problem, strategy):
    """Lower with an empty memo, restoring the memo afterwards."""
    saved = plan_module._LOWER_MEMO
    plan_module._LOWER_MEMO = LRUMemo(32)
    try:
        return lower_problem(problem, strategy)
    finally:
        plan_module._LOWER_MEMO = saved


def hubbard_problem(sites: int = 3):
    from repro.applications.chemistry import fermi_hubbard_chain, jordan_wigner_scb

    return repro.SimulationProblem(
        jordan_wigner_scb(fermi_hubbard_chain(sites, 1.0, 4.0)), 0.5, order=2
    )


class TestLoweringMemo:
    def test_reordered_hamiltonian_lowers_to_its_own_plan(self, empty_memo):
        # Equal content keys, different Trotter products.
        a = repro.SimulationProblem.from_labels(
            2, [("XI", 0.7), ("ZZ", 0.4), ("IX", 0.3)], time=0.9
        )
        b = repro.SimulationProblem.from_labels(
            2, [("ZZ", 0.4), ("XI", 0.7), ("IX", 0.3)], time=0.9
        )
        assert a.content_key() == b.content_key()
        plan_a, plan_b = lower_problem(a, "direct"), lower_problem(b, "direct")
        assert len(empty_memo) == 2
        assert plan_a != plan_b
        cold = cold_lowering(b, "direct")
        assert plan_b == cold
        psi = random_statevector(2, np.random.default_rng(0))
        assert np.array_equal(plan_b.evolve(psi), cold.evolve(psi))
        assert not np.array_equal(plan_a.evolve(psi), plan_b.evolve(psi))

    def test_add_term_after_lowering_yields_a_new_plan(self, empty_memo):
        ham = repro.Hamiltonian.from_labels(3, {"nsd": 0.4, "ZZI": 0.3})
        problem = repro.SimulationProblem(ham, 0.5)
        before = lower_problem(problem, "direct")
        ham.add_label("IXX", 0.2)
        after = lower_problem(problem, "direct")
        assert len(after.step_groups) == len(before.step_groups) + 1
        assert after == cold_lowering(problem, "direct")

    def test_memo_stays_within_its_cap(self, empty_memo):
        empty_memo.cap = 3
        problems = [
            repro.SimulationProblem.from_labels(2, {"ZZ": 0.1 * (k + 1)}, time=0.3)
            for k in range(6)
        ]
        for problem in problems:
            lower_problem(problem, "pauli")
            assert len(empty_memo) <= 3
        key = (problems[3].hamiltonian.order_key(), "pauli", False)
        assert key in empty_memo
        lower_problem(problems[3], "pauli")  # hit: refreshes its recency
        lower_problem(problems[0], "pauli")  # miss: evicts problems[4], the LRU
        assert key in empty_memo
        assert (problems[4].hamiltonian.order_key(), "pauli", False) not in empty_memo

    def test_refused_lowering_is_memoized_and_still_raises(self, empty_memo):
        ham = repro.Hamiltonian(3).add_term(SCBTerm.from_label("ssI", 0.5 + 0.5j))
        problem = repro.SimulationProblem(ham, 0.3).with_options(
            complex_mode="trotter_split"
        )
        misses = metrics.counter("compile.lower_memo_misses")
        hits = metrics.counter("compile.lower_memo_hits")
        for _ in range(2):
            with pytest.raises(PlanLoweringError, match="trotter_split"):
                lower_problem(problem, "direct")
        assert metrics.counter("compile.lower_memo_misses") == misses + 1
        assert metrics.counter("compile.lower_memo_hits") == hits + 1
        key = (ham.order_key(), "direct", True)
        assert isinstance(empty_memo.get(key), PlanLoweringError)
        # The exact mode of the same Hamiltonian is a separate entry.
        assert lower_problem(repro.SimulationProblem(ham, 0.3), "direct") is not None
        assert len(empty_memo) == 2

    @pytest.mark.parametrize(
        "table_bits, kept_signs",
        [(14, 1 << 15), (3, 1 << 15), (14, 0)],
        ids=["dense", "factored-sign", "rows-at-bake"],
    )
    def test_sweep_is_bit_identical_warm_and_cold(
        self, empty_memo, monkeypatch, table_bits, kept_signs
    ):
        monkeypatch.setattr(plan_module, "_MAX_TABLE_BITS", table_bits)
        monkeypatch.setattr(plan_module, "_MAX_KEPT_SIGNS", kept_signs)
        complex_ham = repro.Hamiltonian(4)
        for label, coefficient in (
            ("dZZs", 0.6 + 0.2j), ("ZZnI", 0.4), ("IXYn", -0.3), ("nIIm", 0.25),
        ):
            complex_ham.add_label(label, coefficient)
        bases = [hubbard_problem(3), repro.SimulationProblem(complex_ham, 1.0)]
        from dataclasses import replace

        for base in bases:
            rng = np.random.default_rng(base.num_qubits)
            batch = np.column_stack(
                [random_statevector(base.num_qubits, rng) for _ in range(2)]
            )
            for strategy in ("direct", "pauli"):
                for time_ in (0.2, 0.7):
                    for steps in (1, 3):
                        for order in (1, 2, 4):
                            problem = replace(base, time=time_, steps=steps, order=order)
                            warm = lower_problem(problem, strategy)
                            cold = cold_lowering(problem, strategy)
                            assert warm == cold
                            assert np.array_equal(warm.evolve(batch), cold.evolve(batch))
                            assert np.array_equal(
                                warm.evolve(batch[:, 0]), cold.evolve(batch[:, 0])
                            )
                            # A hand-built plan derives its layouts at bake time.
                            bare = EvolutionPlan(
                                warm.num_qubits, warm.steps, warm.step_groups,
                                warm.step_phase, warm.strategy,
                            )
                            assert np.array_equal(bare.evolve(batch), warm.evolve(batch))
        # One structure per (Hamiltonian, strategy), whatever the grid point.
        assert len(empty_memo) == 4
