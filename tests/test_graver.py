"""Tests for lattice-basis computation, decomposition, and norm certificates."""

import pytest

import parity
from repart.configs import config_matrix, pseudo_configurations
from repart.errors import InputError, InvariantViolation, ResourceLimitError
from repart.graver import (
    bareiss_determinant,
    certify_bounds,
    compute_graver,
    decompose,
    exp_ceiling,
    graver_basis_for,
    kernel_basis,
    max_subdeterminant,
    sign_compatible,
    sqsubseteq,
)


def test_sign_compatible():
    assert sign_compatible((1, -2, 0), (3, 0, 0))
    assert not sign_compatible((1, -2), (1, 2))
    assert not sign_compatible((1, 1, -1), (-1, -1, 1))


def test_sign_compatible_rejects_length_mismatch():
    with pytest.raises(InputError):
        sign_compatible((1, 0), (1, 0, 0))


def test_sqsubseteq():
    assert sqsubseteq((0, 1, -1), (0, 2, -1))
    assert not sqsubseteq((0, 2), (0, 1))
    assert sqsubseteq((1, -1), (1, -1))
    with pytest.raises(InputError):
        sqsubseteq((1,), (1, 0))


def test_kernel_basis_spans_kernel():
    matrix = config_matrix(2, (2, 1))
    basis = kernel_basis(matrix)
    assert len(basis) == 1
    for b in basis:
        assert matrix.mat_vec(b) == (0, 0)
        assert any(e != 0 for e in b)


def test_basis_k2_pair_pseudo():
    matrix = config_matrix(2, (2, 1))
    assert matrix.rows() == ((2, 0, 2), (0, 1, 1))
    basis = compute_graver(matrix)
    assert set(basis) == {(1, 1, -1), (-1, -1, 1)}


def test_basis_k2_double_pair_pseudo():
    matrix = config_matrix(2, (0, 2))
    assert matrix.rows() == ((2, 0, 0), (0, 1, 2))
    basis = compute_graver(matrix)
    assert set(basis) == {(0, 2, -1), (0, -2, 1)}


def test_basis_k1_degenerate():
    matrix = config_matrix(1, (2,))
    assert matrix.rows() == ((1, 2),)
    basis = compute_graver(matrix)
    assert set(basis) == {(2, -1), (-2, 1)}


def test_basis_elements_lie_in_kernel_and_close_under_negation():
    for k in range(1, 5):
        for pseudo in pseudo_configurations(k):
            matrix = config_matrix(k, pseudo)
            basis = graver_basis_for(k, pseudo)
            zero = (0,) * k
            for g in basis:
                assert matrix.mat_vec(g) == zero
                assert any(e != 0 for e in g)
                assert tuple(-e for e in g) in basis


def test_basis_is_conformal_minimal():
    for k in range(1, 4):
        for pseudo in pseudo_configurations(k):
            elements = tuple(graver_basis_for(k, pseudo))
            for g in elements:
                for h in elements:
                    if g != h:
                        assert not sqsubseteq(g, h)


def test_compute_graver_guard():
    with pytest.raises(ResourceLimitError):
        graver_basis_for(7, pseudo_configurations(7)[0])


def test_decompose_worked_examples():
    matrix = config_matrix(2, (2, 1))
    basis = graver_basis_for(2, (2, 1))
    assert decompose((2, 2, -2), basis, matrix) == [(1, 1, -1), (1, 1, -1)]
    for g in basis:
        assert decompose(g, basis, matrix) == [g]
    basis2 = graver_basis_for(2, (0, 2))
    assert decompose((0, -4, 2), basis2, config_matrix(2, (0, 2))) == [(0, -2, 1), (0, -2, 1)]


def test_decompose_rejects_bad_input():
    matrix = config_matrix(2, (2, 1))
    basis = graver_basis_for(2, (2, 1))
    with pytest.raises(InputError):
        decompose((0, 0, 0), basis, matrix)
    with pytest.raises(InputError):
        decompose((1, 0, 0), basis, matrix)  # not in the kernel
    with pytest.raises(InvariantViolation):
        decompose((2, 2, -2), ((-1, -1, 1),), matrix)  # no element conforms


def test_bareiss_determinant():
    assert bareiss_determinant([[2]]) == 2
    assert bareiss_determinant([[1, 2], [3, 4]]) == -2
    assert bareiss_determinant([[2, 0, 2], [0, 1, 1], [1, 1, 2]]) == 0
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1


def test_max_subdeterminant_examples():
    matrix = config_matrix(2, (2, 1))
    delta = max_subdeterminant(matrix)
    assert delta == 2
    assert delta >= max(max(row) for row in matrix.rows())
    assert max_subdeterminant(config_matrix(1, (2,))) == 2


def test_max_subdeterminant_guard():
    with pytest.raises(ResourceLimitError):
        max_subdeterminant(config_matrix(6, pseudo_configurations(6)[0]))


def test_exp_ceiling_small_values():
    assert [exp_ceiling(k) for k in range(6)] == [1, 3, 8, 21, 55, 149]


def test_certify_bounds_k2():
    matrix = config_matrix(2, (2, 1))
    basis = compute_graver(matrix)
    cert = certify_bounds(basis, matrix)
    assert cert.max_inf_norm == 1
    assert cert.q_delta == 6
    assert cert.delta == 2
    assert cert.exp_ceiling == 8
    assert cert.inf_norm_ok and cert.delta_ok and cert.ok


def test_graver_payloads_match_the_parity_manifest():
    # `repart graver` on every pseudo configuration at k <= 5: each basis,
    # its norms and its bound certificate
    assert parity.mismatches(parity.tier1("graver"), parity.read_manifest()) == []
