"""Unit tests for SCBTerm."""

import numpy as np
import pytest

from repro.exceptions import OperatorError
from repro.operators import SCBOperator, SCBTerm
from repro.utils.linalg import kron_all


class TestConstruction:
    def test_from_label(self):
        term = SCBTerm.from_label("nXsd", 2.0)
        assert term.num_qubits == 4
        assert term.label == "nXsd"
        assert term.coefficient == 2.0

    def test_from_sparse_label(self):
        term = SCBTerm.from_sparse_label({1: "n", 3: "s"}, 5, -0.5)
        assert term.label == "InIsI"

    def test_sparse_label_out_of_range(self):
        with pytest.raises(OperatorError):
            SCBTerm.from_sparse_label({5: "n"}, 3)

    def test_identity(self):
        term = SCBTerm.identity(3, 0.7)
        np.testing.assert_allclose(term.matrix(), 0.7 * np.eye(8))

    def test_scalar_multiplication(self):
        term = 2.0 * SCBTerm.from_label("Z", 1.5)
        assert term.coefficient == 3.0


class TestStructure:
    def test_family_partition(self):
        term = SCBTerm.from_label("nmmXYdnsssdYZds")
        assert term.number_qubits == (0, 1, 2, 6)
        assert term.pauli_qubits == (3, 4, 11, 12)
        assert term.transition_qubits == (5, 7, 8, 9, 10, 13, 14)
        assert term.identity_qubits == ()

    def test_support_and_order(self):
        term = SCBTerm.from_label("InIX")
        assert term.support == (1, 3)
        assert term.order == 2

    def test_is_hermitian(self):
        assert SCBTerm.from_label("nXm", 0.5).is_hermitian
        assert not SCBTerm.from_label("nXm", 0.5j).is_hermitian
        assert not SCBTerm.from_label("s", 1.0).is_hermitian

    def test_is_diagonal(self):
        assert SCBTerm.from_label("nmZ").is_diagonal
        assert not SCBTerm.from_label("nmX").is_diagonal

    def test_transition_kets_complementary(self):
        term = SCBTerm.from_label("sdIds")
        ket, bra = term.transition_kets()
        width = len(term.transition_qubits)
        assert ket ^ bra == (1 << width) - 1

    def test_transition_kets_requires_transitions(self):
        with pytest.raises(OperatorError):
            SCBTerm.from_label("nmZ").transition_kets()

    def test_number_key(self):
        term = SCBTerm.from_label("nmn")
        assert term.number_key() == 0b101

    def test_pauli_substring(self):
        assert SCBTerm.from_label("XnYIZ").pauli_substring() == "XYZ"


class TestMatrices:
    def test_matrix_matches_kron(self):
        term = SCBTerm.from_label("ns", 1.3)
        expected = 1.3 * kron_all([SCBOperator.N.matrix, SCBOperator.SIGMA.matrix])
        np.testing.assert_allclose(term.matrix(), expected)

    def test_sparse_and_dense_agree(self):
        term = SCBTerm.from_label("Xsd", -0.4j)
        np.testing.assert_allclose(term.matrix(), term.matrix(sparse=True).todense())

    def test_hermitian_matrix(self):
        term = SCBTerm.from_label("ds", 0.5 + 0.2j)
        herm = term.hermitian_matrix()
        np.testing.assert_allclose(herm, herm.conj().T)
        np.testing.assert_allclose(herm, term.matrix() + term.matrix().conj().T)

    def test_dagger_matrix(self):
        term = SCBTerm.from_label("nsY", 0.3 - 0.7j)
        np.testing.assert_allclose(term.dagger().matrix(), term.matrix().conj().T)


class TestAlgebra:
    def test_compose_matches_matrix_product(self):
        a = SCBTerm.from_label("nXs", 1.5)
        b = SCBTerm.from_label("Zsd", -0.5j)
        product = a.compose(b)
        np.testing.assert_allclose(product.matrix(), a.matrix() @ b.matrix(), atol=1e-12)

    def test_compose_vanishing_product(self):
        a = SCBTerm.from_label("n")
        b = SCBTerm.from_label("m")
        assert a.compose(b) is None

    def test_compose_width_mismatch(self):
        with pytest.raises(OperatorError):
            SCBTerm.from_label("n").compose(SCBTerm.from_label("nn"))

    def test_embed(self):
        term = SCBTerm.from_label("ns", 0.8)
        embedded = term.embed(4, [1, 3])
        assert embedded.label == "InIs"
        sub = embedded.matrix()
        assert sub.shape == (16, 16)

    def test_embed_wrong_map(self):
        with pytest.raises(OperatorError):
            SCBTerm.from_label("ns").embed(4, [1])


class TestCachedLabel:
    def test_label_is_computed_once_and_leaves_identity_alone(self):
        import pickle

        term = SCBTerm.from_label("nsdZ", 0.5)
        assert term.label == "nsdZ"
        assert term.label is term.label
        twin = SCBTerm.from_label("nsdZ", 0.5)  # label not yet computed
        assert term == twin and hash(term) == hash(twin)
        restored = pickle.loads(pickle.dumps(term))
        assert restored == term and restored.label == "nsdZ"
        assert (term * 2).label == "nsdZ"
