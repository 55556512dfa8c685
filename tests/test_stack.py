"""A tuple is one stack: ``MultiOperator`` owns its components' array,
their norms and their sum T, and every builder that reads it with stack
arithmetic gets the bits of the per-component loop it replaces.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isosym.construct import (JordanAugmentSpec, ScaledTupleSpec,
                              jordan_augment, jordan_augment_parts,
                              nilpotent_tuple, random_commuting_tuple,
                              reference_pair, scaled_tuple, tensor_sum,
                              tensor_sum_parts)
from isosym.defect import MultiOperator, op_sum
from isosym.errors import (CommutationViolated, DimensionMismatch,
                           InvalidParams, TooLarge)
from isosym.linalg import fro_norm, kron

_seeds = st.integers(0, 2 ** 32 - 1)
_random = st.builds(random_commuting_tuple, st.integers(1, 4),
                    st.integers(1, 9), _seeds)


@st.composite
def _nilpotent(draw):
    dim = draw(st.integers(1, 9))
    return nilpotent_tuple(draw(st.integers(1, 4)), dim,
                           draw(st.integers(1, dim)), draw(_seeds))


@st.composite
def _scaled(draw):
    base = random_commuting_tuple(1, draw(st.integers(1, 6)), draw(_seeds))
    beta = np.random.default_rng(draw(_seeds)).standard_normal(
        draw(st.integers(1, 4)))
    return scaled_tuple(ScaledTupleSpec(base=base.matrices[0],
                                        beta=tuple(beta / np.linalg.norm(beta))))


@st.composite
def _jordan(draw):
    base = draw(_random)
    mu = [complex(draw(st.floats(-2, 2)), draw(st.floats(-2, 2)))
          for _ in range(base.d)]
    return jordan_augment(JordanAugmentSpec(base_tuple=base, mu=mu,
                                            q=draw(st.integers(1, 3))))


@st.composite
def _tensor(draw):
    d = draw(st.integers(1, 3))
    return tensor_sum(random_commuting_tuple(d, draw(st.integers(1, 4)),
                                             draw(_seeds)),
                      nilpotent_tuple(d, 3, draw(st.integers(1, 3)),
                                      draw(_seeds)))


#: a tuple rebuilt from a writable 3-D array copy of another's stack
_from_array = st.one_of(_random, _nilpotent()).map(
    lambda r: MultiOperator(np.array(r.stack)))

_tuples = st.one_of(_random, _nilpotent(), _scaled(), _jordan(), _tensor(),
                    _from_array, st.just(reference_pair()))


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@given(_tuples)
@settings(max_examples=60, deadline=None)
def test_a_tuple_is_one_read_only_stack(r):
    stack = r.stack
    assert stack.shape == (r.d, r.dim, r.dim)
    assert stack.dtype == np.complex128
    assert stack.flags.c_contiguous and not stack.flags.writeable
    assert len(r.matrices) == r.d
    for j, m in enumerate(r.matrices):
        assert m.base is stack and not m.flags.writeable
        assert _same_bits(m, stack[j])
    loop = np.zeros((r.dim, r.dim), dtype=np.complex128)
    for m in r.matrices:
        loop = loop + m
    assert _same_bits(op_sum(r), loop)
    assert not op_sum(r).flags.writeable
    assert r.norms == tuple(fro_norm(m) for m in r.matrices)
    assert r.max_norm() == max(fro_norm(m) for m in r.matrices)
    # a list of its matrices and its stack build the same tuple
    for again in (MultiOperator(list(r.matrices)), MultiOperator(stack)):
        assert _same_bits(again.stack, stack)
        assert again.stack is not stack


def test_the_stack_is_a_copy_of_its_input():
    entries = np.eye(2, dtype=np.complex128)[None].copy()
    r = MultiOperator(entries)
    entries[0, 0, 0] = 5.0
    assert r.stack[0, 0, 0] == 1.0
    with pytest.raises(ValueError):
        r.stack[0, 0, 0] = 2.0
    with pytest.raises(AttributeError):
        r.stack = entries


@given(_random, _seeds)
@settings(max_examples=30, deadline=None)
def test_stack_arithmetic_is_the_per_component_loop(r, seed):
    """The builders' stacked forms equal the loops they replace, bit for
    bit: a sum, a conjugation, a scaling and a leading block."""
    q = random_commuting_tuple(r.d, r.dim, seed)
    assert _same_bits(r.stack + q.stack,
                      np.array([a + b for a, b in zip(r.matrices,
                                                      q.matrices)]))
    g = np.random.default_rng(seed).standard_normal((r.dim, 2 * r.dim))
    u = np.linalg.qr(g.view(np.complex128))[0]
    assert _same_bits(u @ r.stack @ u.conj().T,
                      np.array([u @ m @ u.conj().T for m in r.matrices]))
    beta = tuple(np.random.default_rng(seed).standard_normal(3))
    assert _same_bits(np.multiply.outer(beta, r.matrices[0]),
                      np.array([b * r.matrices[0] for b in beta]))
    h = (r.dim + 1) // 2
    assert _same_bits(r.stack[:, :h, :h],
                      np.array([m[:h, :h] for m in r.matrices]))


@given(_random, st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_constructions_match_their_component_loops(r, q):
    mu = tuple(complex(j + 1, -0.5 * j) for j in range(r.d))
    diag, nil = jordan_augment_parts(JordanAugmentSpec(base_tuple=r, mu=mu,
                                                       q=q))
    shift = kron(np.eye(q, k=1), np.eye(r.dim, dtype=np.complex128))
    assert _same_bits(nil.stack, np.array([z * shift for z in mu]))
    total = jordan_augment(JordanAugmentSpec(base_tuple=r, mu=mu, q=q))
    assert _same_bits(total.stack, np.array(
        [a + b for a, b in zip(diag.matrices, nil.matrices)]))
    left, right = tensor_sum_parts(r, r)
    assert _same_bits(tensor_sum(r, r).stack, np.array(
        [a + b for a, b in zip(left.matrices, right.matrices)]))


def _noncommuting():
    return [np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([1.0, 2.0])]


@pytest.mark.parametrize("components, array, error", [
    ([], np.zeros((0, 2, 2)), InvalidParams),
    ([np.eye(2), np.eye(3)], np.zeros((2, 2, 3)), DimensionMismatch),
    ([np.zeros((2, 3))] * 2, None, DimensionMismatch),
    ([np.ones(2)], None, DimensionMismatch),
    ([np.array([[np.nan, 0.0], [0.0, 1.0]])], None, ValueError),
    ([np.array([[1e160, 0.0], [0.0, 1.0]])] * 2, None, TooLarge),
    (_noncommuting(), None, CommutationViolated),
    ([np.zeros((0, 0))], None, DimensionMismatch),
], ids=["no-component", "mixed-shapes", "non-square", "not-a-matrix",
        "non-finite", "overflowing-norm", "non-commuting", "dim-0"])
def test_a_list_and_a_3d_array_are_refused_alike(components, array, error):
    """The same refusal for a list and for the array it stacks into (mixed
    shapes stack into none: a non-square array stands in for them)."""
    with pytest.raises(error):
        MultiOperator(components)
    with pytest.raises(error):
        MultiOperator(np.array(components) if array is None else array)
