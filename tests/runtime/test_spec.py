"""RunSpec/SweepSpec serialization, content keys and hash stability."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.exceptions import SpecError
from repro.noise import NoiseModel
from repro.runtime import RunSpec, SweepSpec
from repro.runtime.spec import _spawn_seed

LABELS = ["nsdI", "IZZI", "XIXI", "nnII", "IIsd", "ZIIZ", "mIIn"]


def problem(terms=None, **kwargs):
    terms = terms if terms is not None else {"nsdI": 0.8, "IZZI": 0.3}
    kwargs.setdefault("time", 0.3)
    return repro.SimulationProblem.from_labels(4, terms, **kwargs)


# ---------------------------------------------------------------------------
# RunSpec
# ---------------------------------------------------------------------------


class TestRunSpec:
    def test_round_trip(self):
        spec = RunSpec(
            problem=problem(steps=3, order=2),
            strategy="pauli",
            backend="sampling",
            run_kwargs={"shots": 512, "rng": 7},
            label="point-0",
        )
        back = RunSpec.from_dict(spec.to_dict())
        assert back.to_dict() == spec.to_dict()
        assert back.content_key() == spec.content_key()
        assert back.label == "point-0" and back.run_kwargs == spec.run_kwargs

    def test_label_excluded_from_content_key(self):
        a = RunSpec(problem=problem(), label="a")
        b = RunSpec(problem=problem(), label="b")
        assert a.content_key() == b.content_key()

    def test_key_sensitive_to_physics(self):
        base = RunSpec(problem=problem())
        assert base.content_key() != RunSpec(problem=problem(steps=2)).content_key()
        assert base.content_key() != RunSpec(problem=problem(), strategy="pauli").content_key()
        assert base.content_key() != RunSpec(problem=problem(), backend="sparse").content_key()
        assert (
            base.content_key()
            != RunSpec(problem=problem(), run_kwargs={"shots": 1}).content_key()
        )

    def test_key_sensitive_to_options_and_noise(self):
        noisy = problem().with_options(
            noise_model=NoiseModel.uniform_depolarizing(0.01)
        )
        assert RunSpec(problem=noisy).content_key() != RunSpec(problem=problem()).content_key()
        round_trip = RunSpec.from_dict(RunSpec(problem=noisy).to_dict())
        assert round_trip.content_key() == RunSpec(problem=noisy).content_key()

    def test_rejects_non_jsonable_run_kwargs(self):
        with pytest.raises(SpecError):
            RunSpec(problem=problem(), run_kwargs={"initial_state": np.zeros(4)})

    def test_rejects_non_problem(self):
        with pytest.raises(SpecError):
            RunSpec(problem="not a problem")


# ---------------------------------------------------------------------------
# SweepSpec
# ---------------------------------------------------------------------------


class TestSweepSpec:
    def test_expansion_grid_and_order(self):
        spec = SweepSpec(
            problem=problem(),
            strategies=("direct", "pauli"),
            steps=(1, 2),
            orders=(1, 2),
        )
        points = spec.expand()
        assert spec.num_points == len(points) == 8
        coords = [c for c, _ in points]
        assert coords[0] == {"strategy": "direct", "steps": 1, "time": 0.3, "order": 1}
        # strategies is the slowest axis, orders the fastest of the used ones.
        assert [c["strategy"] for c in coords] == ["direct"] * 4 + ["pauli"] * 4
        assert [c["order"] for c in coords][:4] == [1, 2, 1, 2]

    def test_round_trip(self):
        spec = SweepSpec(
            problem=problem(),
            strategies=("direct",),
            backend="sampling",
            steps=(1, 4),
            times=(0.1, 0.2),
            options_grid=({"optimize_level": 0}, {"optimize_level": 1}),
            run_kwargs={"shots": 64},
            seed=13,
            name="grid",
        )
        back = SweepSpec.from_dict(spec.to_dict())
        assert back.to_dict() == spec.to_dict()
        assert back.content_key() == spec.content_key()
        assert back.options_grid == spec.options_grid and back.seed == 13

    def test_name_excluded_from_content_key(self):
        a = SweepSpec(problem=problem(), name="a")
        b = SweepSpec(problem=problem(), name="b")
        assert a.content_key() == b.content_key()

    def test_invalid_options_grid_rejected_at_construction(self):
        with pytest.raises(repro.OptionsError):
            SweepSpec(problem=problem(), options_grid=({"bogus_option": 1},))

    def test_seed_injection_only_for_sampling(self):
        sampled = SweepSpec(
            problem=problem(), backend="sampling", steps=(1, 2), seed=5
        )
        rngs = [spec.run_kwargs["rng"] for _, spec in sampled.expand()]
        assert len(set(rngs)) == 2  # one independent stream per point
        plain = SweepSpec(problem=problem(), steps=(1, 2), seed=5)
        assert all("rng" not in spec.run_kwargs for _, spec in plain.expand())

    def test_explicit_rng_wins_over_seed(self):
        spec = SweepSpec(
            problem=problem(), backend="sampling", seed=5, run_kwargs={"rng": 99}
        )
        assert [s.run_kwargs["rng"] for _, s in spec.expand()] == [99]

    def test_repeats_axis_spawns_independent_streams(self):
        spec = SweepSpec(
            problem=problem(), backend="sampling", repeats=3, seed=5,
            run_kwargs={"shots": 32},
        )
        points = spec.expand()
        assert spec.num_points == len(points) == 3
        assert [c["repeat"] for c, _ in points] == [0, 1, 2]
        rngs = {s.run_kwargs["rng"] for _, s in points}
        assert len(rngs) == 3
        back = SweepSpec.from_dict(spec.to_dict())
        assert back.repeats == 3 and back.content_key() == spec.content_key()

    def test_repeats_validation(self):
        with pytest.raises(SpecError):
            SweepSpec(problem=problem(), repeats=0)

    def test_spawned_seeds_are_deterministic(self):
        assert _spawn_seed(5, 3) == _spawn_seed(5, 3)
        assert _spawn_seed(5, 3) != _spawn_seed(5, 4)
        assert _spawn_seed(6, 3) != _spawn_seed(5, 3)


# ---------------------------------------------------------------------------
# Hash stability (the determinism satellite)
# ---------------------------------------------------------------------------


@st.composite
def term_dicts(draw):
    labels = draw(
        st.lists(st.sampled_from(LABELS), min_size=1, max_size=5, unique=True)
    )
    return {
        label: draw(
            st.floats(min_value=-2.0, max_value=2.0, allow_nan=False).filter(
                lambda x: abs(x) > 1e-6
            )
        )
        for label in labels
    }


class TestHashStability:
    @given(terms=term_dicts(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_sweep_hash_invariant_under_term_reordering(self, terms, seed):
        rng = np.random.default_rng(seed)
        shuffled_keys = list(terms)
        rng.shuffle(shuffled_keys)
        shuffled = {label: terms[label] for label in shuffled_keys}
        make = lambda t: SweepSpec(
            problem=repro.SimulationProblem.from_labels(4, t, time=0.25),
            strategies=("direct", "pauli"),
            steps=(1, 2),
        )
        assert make(terms).content_key() == make(shuffled).content_key()

    @given(terms=term_dicts())
    def test_run_hash_invariant_and_sensitive(self, terms):
        base = RunSpec(problem=repro.SimulationProblem.from_labels(4, terms, time=0.25))
        reordered = RunSpec(
            problem=repro.SimulationProblem.from_labels(
                4, dict(reversed(list(terms.items()))), time=0.25
            )
        )
        assert base.content_key() == reordered.content_key()
        # Changing any coefficient must change the key.
        label = next(iter(terms))
        bumped = dict(terms)
        bumped[label] += 0.5
        changed = RunSpec(
            problem=repro.SimulationProblem.from_labels(4, bumped, time=0.25)
        )
        assert base.content_key() != changed.content_key()

    def test_hamiltonian_content_key_tracks_mutation(self):
        ham = repro.Hamiltonian.from_labels(4, {"nsdI": 0.8})
        key = ham.content_key()
        assert ham.content_key() == key  # cached, stable
        ham.add_label("IZZI", 0.3)
        assert ham.content_key() != key
        assert ham.version == 2


class TestGoldenKeys:
    """Content keys are an on-disk format: caches written earlier must hit.

    The digests below were computed before the Hamiltonian's serialized
    forms were cached; any change to how a key is built must keep them.
    """

    @staticmethod
    def golden_problem():
        return repro.SimulationProblem.from_labels(
            3,
            [("sdI", 0.8), ("IZZ", 0.3), ("XIn", -0.25), ("dIs", 0.5 + 0.25j)],
            time=0.7,
            steps=2,
            order=2,
        )

    def test_keys_are_pinned(self):
        from repro.compile.plan import plan_group_key

        problem = self.golden_problem()
        assert problem.hamiltonian.content_key() == (
            "cde267eaf45d646455838f40f24dfe230bc5ceb0b8483c79d97b90ed18c67a44"
        )
        assert problem.content_key() == (
            "f2885bb6ab8a18a6668722fc26aa6cdf852e8c66eafd1bc9564cc264dc86ae95"
        )
        kernel = RunSpec(problem, "direct", "kernel", {"initial_state": 5})
        assert kernel.content_key() == (
            "2fda878208c74ef6e31a22fec6173115ce96b8f3065aa9a6e246c22f7c1a7148"
        )
        assert plan_group_key(
            kernel.to_dict(canonical=True)["problem"], "direct", backend="kernel"
        ) == "a3eede3bb3223996df0849f3b4c0c5ffabc4922c3b7c891f2aeff51d5db55d7a"
        sampling = RunSpec(problem, "pauli", "sampling", {"shots": 64, "rng": 11})
        assert sampling.content_key() == (
            "a4aac3614fa392dbe4d94e5d69e4c92c38d9a0ab6fc2c5bb824749e8be2343eb"
        )
        assert plan_group_key(
            sampling.to_dict(canonical=True)["problem"],
            "pauli",
            backend="sampling",
            shared_kwargs={"shots": 64},
        ) == "bcf000b406a4480246ab7029a5767def2401c875090c996ec0ef1153a3448755"

    def test_keys_survive_a_parse_and_a_warm_cache(self):
        # The same digests from a parsed (interned) copy, asked twice.
        problem = repro.SimulationProblem.from_dict(self.golden_problem().to_dict())
        for _ in range(2):
            assert problem.hamiltonian.content_key() == (
                "cde267eaf45d646455838f40f24dfe230bc5ceb0b8483c79d97b90ed18c67a44"
            )
            assert problem.content_key() == (
                "f2885bb6ab8a18a6668722fc26aa6cdf852e8c66eafd1bc9564cc264dc86ae95"
            )
