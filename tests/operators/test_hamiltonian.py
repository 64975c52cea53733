"""Unit tests for the Hamiltonian container and Hermitian fragments."""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.exceptions import OperatorError
from repro.operators import Hamiltonian, HermitianFragment, SCBTerm, hamiltonian_from_terms


def example_hamiltonian() -> Hamiltonian:
    ham = Hamiltonian(3)
    ham.add_label("nsd", 0.8)
    ham.add_label("ZZI", 0.3)
    ham.add_label("Xnm", 0.5j)
    return ham


class TestConstruction:
    def test_add_label_and_sparse(self):
        ham = Hamiltonian(3)
        ham.add_label("nIZ", 1.0)
        ham.add_sparse({0: "s", 2: "d"}, 0.5)
        assert ham.num_terms == 2
        assert ham.terms[1].label == "sId"

    def test_width_mismatch(self):
        ham = Hamiltonian(2)
        with pytest.raises(OperatorError):
            ham.add_term(SCBTerm.from_label("nnn"))

    def test_zero_coefficient_dropped(self):
        ham = Hamiltonian(1)
        ham.add_label("n", 0.0)
        assert ham.num_terms == 0

    def test_from_terms(self):
        ham = hamiltonian_from_terms([SCBTerm.from_label("ns", 1.0)])
        assert ham.num_qubits == 2

    def test_from_terms_empty(self):
        with pytest.raises(OperatorError):
            hamiltonian_from_terms([])

    def test_addition_and_scaling(self):
        a = Hamiltonian(2)
        a.add_label("nI", 1.0)
        b = Hamiltonian(2)
        b.add_label("In", 1.0)
        total = (a + b) * 2.0
        np.testing.assert_allclose(total.matrix(), 2.0 * (a.matrix() + b.matrix()))


class TestFragments:
    def test_auto_hc_flags(self):
        fragments = example_hamiltonian().hermitian_fragments()
        assert [f.include_hc for f in fragments] == [True, False, True]

    def test_fragment_matrices_are_hermitian(self):
        for fragment in example_hamiltonian().hermitian_fragments():
            matrix = fragment.matrix()
            np.testing.assert_allclose(matrix, matrix.conj().T, atol=1e-12)

    def test_fragment_to_pauli(self):
        fragment = HermitianFragment(SCBTerm.from_label("sd", 0.4), True)
        np.testing.assert_allclose(
            fragment.to_pauli().matrix(num_qubits=2), fragment.matrix(), atol=1e-12
        )

    def test_matrix_sums_fragments(self):
        ham = example_hamiltonian()
        total = sum(f.matrix() for f in ham.hermitian_fragments())
        np.testing.assert_allclose(ham.matrix(), total, atol=1e-12)

    def test_matrix_is_hermitian(self):
        matrix = example_hamiltonian().matrix()
        np.testing.assert_allclose(matrix, matrix.conj().T, atol=1e-12)

    def test_matrix_without_hc(self):
        ham = Hamiltonian(1)
        ham.add_label("s", 1.0)
        asym = ham.matrix(include_hc=False)
        assert asym[0, 1] == 0 and asym[1, 0] == 1

    def test_is_hermitian_as_written(self):
        sym = Hamiltonian(1)
        sym.add_label("s", 1.0)
        sym.add_label("d", 1.0)
        assert sym.is_hermitian_as_written()
        asym = Hamiltonian(1)
        asym.add_label("s", 1.0)
        assert not asym.is_hermitian_as_written()


class TestPhysics:
    def test_ground_state_of_z(self):
        ham = Hamiltonian(1)
        ham.add_label("Z", 1.0)
        vals, vecs = ham.ground_state()
        assert vals[0] == pytest.approx(-1.0)
        np.testing.assert_allclose(np.abs(vecs[:, 0]), [0, 1], atol=1e-9)

    def test_ground_state_sparse_path(self):
        ham = Hamiltonian(7)
        for q in range(7):
            ham.add_sparse({q: "Z"}, 1.0)
        vals, _ = ham.ground_state()
        assert vals[0] == pytest.approx(-7.0)

    def test_expectation_value(self):
        ham = Hamiltonian(1)
        ham.add_label("Z", 2.0)
        assert ham.expectation_value(np.array([1.0, 0.0])) == pytest.approx(2.0)

    def test_evolve_exact_matches_dense(self, rng):
        ham = example_hamiltonian()
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        expected = expm(-1j * 0.42 * ham.matrix()) @ psi
        np.testing.assert_allclose(ham.evolve_exact(psi, 0.42), expected, atol=1e-9)

    def test_term_order_histogram(self):
        assert example_hamiltonian().term_order_histogram() == {3: 2, 2: 1}

    def test_one_norm(self):
        assert example_hamiltonian().one_norm() == pytest.approx(0.8 + 0.3 + 0.5)

    def test_to_pauli_matches_matrix(self):
        ham = example_hamiltonian()
        np.testing.assert_allclose(
            ham.to_pauli().matrix(num_qubits=3), ham.matrix(), atol=1e-12
        )


class TestSerializationCaches:
    def payload(self):
        return example_hamiltonian().to_dict()

    def test_from_dict_returns_independent_objects(self):
        first = Hamiltonian.from_dict(self.payload())
        second = Hamiltonian.from_dict(self.payload())
        assert first is not second
        assert first.terms == second.terms
        key = second.content_key()
        first.add_label("IIZ", 0.1)
        assert first.num_terms == 4 and second.num_terms == 3
        assert first.content_key() != key
        assert second.content_key() == key
        third = Hamiltonian.from_dict(self.payload())
        assert third.num_terms == 3 and third.content_key() == key
        # Interned parses key like a plain build of the same terms.
        assert key == example_hamiltonian().content_key()

    def test_edit_of_the_first_parse_does_not_reach_the_next(self):
        first = Hamiltonian.from_dict(self.payload())
        first.add_label("IIZ", 0.1)
        first.content_key()
        second = Hamiltonian.from_dict(self.payload())
        assert second.num_terms == 3
        assert second.content_key() == example_hamiltonian().content_key()
        assert second.to_dict() == self.payload()

    def test_parse_memo_stays_within_its_cap(self, monkeypatch):
        from repro.operators import hamiltonian as module

        from repro.utils.memo import LRUMemo

        monkeypatch.setattr(module, "_PARSED", LRUMemo(2))
        for coefficient in (0.1, 0.2, 0.3):
            Hamiltonian.from_dict(Hamiltonian.from_labels(2, {"nZ": coefficient}).to_dict())
            assert len(module._PARSED) <= 2

    def test_to_dict_returns_fresh_containers(self):
        ham = example_hamiltonian()
        for canonical in (False, True):
            payload = ham.to_dict(canonical=canonical)
            expected = ham.to_dict(canonical=canonical)
            payload["terms"][0]["coefficient"][0] = 99.0
            payload["terms"][0]["label"] = "III"
            payload["terms"].append({"label": "ZZZ", "coefficient": [1.0, 0.0]})
            assert ham.to_dict(canonical=canonical) == expected

    def test_canonical_form_is_sorted_and_tracks_mutation(self):
        ham = example_hamiltonian()
        labels = [term["label"] for term in ham.to_dict(canonical=True)["terms"]]
        assert labels == sorted(labels)
        ham.add_label("IIZ", 0.1)
        assert len(ham.to_dict(canonical=True)["terms"]) == 4
        assert len(ham.to_dict()["terms"]) == 4

    def test_order_key_sees_term_order(self):
        forward = Hamiltonian.from_labels(2, [("XI", 0.7), ("ZZ", 0.4)])
        backward = Hamiltonian.from_labels(2, [("ZZ", 0.4), ("XI", 0.7)])
        assert forward.content_key() == backward.content_key()
        assert forward.order_key() != backward.order_key()
        key = forward.order_key()
        assert forward.order_key() == key
        forward.add_label("IX", 0.3)
        assert forward.order_key() != key
