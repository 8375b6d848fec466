import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    SIGMA_X,
    random_density_matrix,
    random_generator,
    random_hermitian,
    reference_superoperator,
)

import decohere.gksl
from decohere import (
    SIGMA_Z,
    ChoiMatrix,
    DensityMatrix,
    GkslGenerator,
    Superoperator,
    apply_generator,
    canonical_form,
    choi_of_propagator,
    integrate_constant,
    integrate_time_dependent,
    is_completely_positive,
    propagate_semigroup,
    semigroup_propagator,
    semigroup_trajectory,
    to_superoperator,
    unvec,
    vec,
)
from decohere.errors import (
    DimensionMismatchError,
    InvariantViolationError,
    NotHermitianError,
    ValidationError,
)
from decohere.gksl import _entrywise_kernel

PLUS = DensityMatrix.pure([1.0, 1.0])


def dephasing_generator(gamma):
    return GkslGenerator(np.zeros((2, 2)), (SIGMA_Z,), [[gamma]])


# ----------------------------------------------------------------------
# construction invariants
# ----------------------------------------------------------------------


def test_density_matrix_validation():
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([0.6, 0.6]))  # trace 1.2
    with pytest.raises(NotHermitianError):
        DensityMatrix(np.array([[0.5, 0.3], [0.0, 0.5]]))
    with pytest.raises(ValidationError):
        DensityMatrix(np.array([[1.2, 0.0], [0.0, -0.2]]))  # negative eigenvalue


def test_generator_rejects_non_psd_kossakowski():
    ops = (np.array([[0, 1], [0, 0]], dtype=complex),
           np.array([[0, 0], [1, 0]], dtype=complex))
    with pytest.raises(ValidationError):
        GkslGenerator(np.zeros((2, 2)), ops, [[1.0, 2.0], [2.0, 1.0]])


def test_generator_rejects_non_hermitian_hamiltonian():
    with pytest.raises(NotHermitianError):
        GkslGenerator(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_generator_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        GkslGenerator(np.zeros((2, 2)), (np.zeros((3, 3)),), [[1.0]])
    with pytest.raises(DimensionMismatchError):
        GkslGenerator(np.zeros((2, 2)), (SIGMA_Z,), [[1.0, 0.0], [0.0, 1.0]])


# ----------------------------------------------------------------------
# apply_generator
# ----------------------------------------------------------------------


def test_apply_unitary_part_only():
    gen = GkslGenerator(SIGMA_Z)
    out = apply_generator(gen, PLUS)
    expected = -1j * (SIGMA_Z @ PLUS.matrix - PLUS.matrix @ SIGMA_Z)
    assert np.abs(out - expected).max() < 1e-15
    # off-diagonals pick up -+ 2i times the entry, diagonals untouched
    assert abs(out[0, 1] - (-2j) * PLUS.matrix[0, 1]) < 1e-15
    assert abs(out[1, 0] - 2j * PLUS.matrix[1, 0]) < 1e-15
    assert abs(out[0, 0]) < 1e-15


def test_apply_dephasing_fixes_populations():
    gen = dephasing_generator(0.7)
    out = apply_generator(gen, DensityMatrix(np.diag([0.3, 0.7])))
    assert np.abs(out).max() < 1e-15


def test_apply_dephasing_damps_coherences():
    gamma = 0.8
    out = apply_generator(dephasing_generator(gamma), PLUS)
    # sigma_z rho sigma_z - rho flips the sign of coherences: -2 gamma
    assert abs(out[0, 1] - (-2 * gamma) * PLUS.matrix[0, 1]) < 1e-15
    assert abs(out[0, 0]) < 1e-15


def test_apply_output_hermitian_traceless():
    rng = np.random.default_rng(21)
    for d, m in ((2, 1), (3, 2), (4, 3)):
        gen = random_generator(rng, d, m)
        rho = random_density_matrix(rng, d)
        out = apply_generator(gen, rho)
        assert np.abs(out - out.conj().T).max() <= 1e-12
        assert abs(np.trace(out)) <= 1e-12


# ----------------------------------------------------------------------
# superoperator
# ----------------------------------------------------------------------


def test_superoperator_zero_generator():
    s = to_superoperator(GkslGenerator(np.zeros((2, 2))))
    assert np.abs(s.matrix).max() == 0.0


def test_superoperator_hamiltonian_vectorization_identity():
    s = to_superoperator(GkslGenerator(SIGMA_Z))
    eye = np.eye(2)
    expected = -1j * (np.kron(eye, SIGMA_Z) - np.kron(SIGMA_Z.T, eye))
    assert np.abs(s.matrix - expected).max() < 1e-15


def test_superoperator_dephasing_diagonal():
    gamma = 0.6
    s = to_superoperator(dephasing_generator(gamma))
    assert np.abs(s.matrix - np.diag([0.0, -2 * gamma, -2 * gamma, 0.0])).max() < 1e-15


def test_superoperator_matches_apply_on_random_states():
    rng = np.random.default_rng(33)
    for d, m in ((2, 1), (3, 3), (4, 2)):
        gen = random_generator(rng, d, m)
        s = to_superoperator(gen)
        for _ in range(5):
            rho = random_density_matrix(rng, d)
            direct = apply_generator(gen, rho)
            via_superop = unvec(s.matrix @ vec(rho.matrix), d)
            assert np.abs(direct - via_superop).max() < 1e-12


def test_superoperator_annihilates_trace_row():
    rng = np.random.default_rng(17)
    for d, m in ((2, 1), (4, 3)):
        s = to_superoperator(random_generator(rng, d, m)).matrix
        # vec(I)^dag S: the rate of change of the trace, which must vanish
        assert np.abs(vec(np.eye(d, dtype=complex)).conj() @ s).max() < 1e-12


def _dense_kossakowski_generator(rng, d, n, skew=0.0):
    """Hermitian H (plus ``skew`` times an anti-Hermitian part), n dense
    complex Lindblad operators, and a dense complex Hermitian Kossakowski
    matrix whose (0, 2) and (2, 0) entries are zero when n >= 3; PSD-ness is
    irrelevant to the assembly."""
    h = random_hermitian(rng, d, norm=rng.uniform(0.3, 3.0))
    h = h + skew * 1j * random_hermitian(rng, d)
    ops = tuple(rng.uniform(0.3, 2.0) / math.sqrt(d)
                * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) for _ in range(n))
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = b + b.conj().T
    if n >= 3:
        a[0, 2] = a[2, 0] = 0.0
    return GkslGenerator(h, ops, a, validate_psd=False)


@pytest.mark.parametrize("d", (1, 2, 3, 5, 8, 12))
def test_superoperator_matches_the_reference_assembly(d):
    rng = np.random.default_rng(100 + d)
    gens = [_dense_kossakowski_generator(rng, d, n) for n in range(5)]
    gens.append(_dense_kossakowski_generator(rng, d, 3, skew=1e-11))
    assert np.count_nonzero(gens[-1].hamiltonian - gens[-1].hamiltonian.conj().T)
    trace_row = vec(np.eye(d, dtype=complex)).conj()
    for gen in gens:
        s = to_superoperator(gen).matrix
        reference = reference_superoperator(gen)
        bound = 1e-14 * max(1.0, float(np.abs(reference).max()))
        assert np.abs(s - reference).max() <= bound
        assert np.abs(trace_row @ s).max() <= bound


# ----------------------------------------------------------------------
# semigroup propagation
# ----------------------------------------------------------------------


def test_propagate_t0_is_identity():
    rho = propagate_semigroup(dephasing_generator(1.0), PLUS, 0.0)
    assert rho is PLUS


def test_propagate_rejects_negative_time():
    with pytest.raises(ValidationError):
        propagate_semigroup(dephasing_generator(1.0), PLUS, -0.1)


def test_maximally_mixed_is_dephasing_fixed_point():
    rho = DensityMatrix.maximally_mixed(2)
    out = propagate_semigroup(dephasing_generator(0.9), rho, 2.0)
    assert np.abs(out.matrix - rho.matrix).max() < 1e-12


def test_propagate_dephasing_closed_form():
    rho = propagate_semigroup(dephasing_generator(0.5), PLUS, 1.0)
    assert abs(rho.matrix[0, 1] - 0.5 * math.exp(-1.0)) < 1e-12
    assert abs(rho.matrix[0, 0] - 0.5) < 1e-12


def test_propagate_unitary_phase():
    omega0 = 1.3
    t = math.pi / omega0
    gen = GkslGenerator(omega0 * SIGMA_Z)
    rho = propagate_semigroup(gen, PLUS, t)
    # matrix[0,1] rotates by exp(-2i omega0 t); its conjugate by the inverse
    expected = 0.5 * np.exp(-2j * omega0 * t)
    assert abs(rho.matrix[0, 1] - expected) < 1e-10
    assert abs(rho.matrix[1, 0] - np.conj(expected)) < 1e-10
    assert abs(abs(rho.matrix[0, 1]) - 0.5) < 1e-10


def test_semigroup_property():
    rng = np.random.default_rng(41)
    gen = random_generator(rng, 3, 2)
    rho = random_density_matrix(rng, 3)
    one_shot = propagate_semigroup(gen, rho, 1.7)
    two_step = propagate_semigroup(gen, propagate_semigroup(gen, rho, 0.4), 1.3)
    assert np.abs(one_shot.matrix - two_step.matrix).max() < 1e-9


def test_trace_preserved_over_long_times():
    rng = np.random.default_rng(43)
    gen = random_generator(rng, 4, 3)
    rho = random_density_matrix(rng, 4)
    for t in (0.1, 1.0, 10.0):
        out = propagate_semigroup(gen, rho, t)
        assert abs(np.trace(out.matrix) - 1.0) <= 1e-10


# ----------------------------------------------------------------------
# time-dependent integration
# ----------------------------------------------------------------------


def test_integrate_constant_matches_semigroup():
    # a random non-diagonal generator split into its Hamiltonian part and
    # its dissipator at rate 1: the superoperator path
    rng = np.random.default_rng(47)
    gen = random_generator(rng, 3, 2)
    rho0 = random_density_matrix(rng, 3)
    t_grid = np.linspace(0.0, 2.0, 9)
    trajectory = integrate_time_dependent(
        GkslGenerator(gen.hamiltonian),
        GkslGenerator(np.zeros((3, 3)), gen.lindblad_ops, gen.kossakowski),
        np.ones_like, rho0, t_grid,
    )
    for t, state in zip(t_grid, trajectory):
        reference = propagate_semigroup(gen, rho0, float(t))
        assert np.abs(state.matrix - reference.matrix).max() < 1e-7


def test_integrate_time_dependent_diagonal_generator_is_entrywise(monkeypatch):
    # dephasing at rate t/2 damps the coherence by exp(-t^2/2); a diagonal
    # generator never needs its superoperator
    def no_superoperator(gen):
        raise AssertionError("superoperator built for a diagonal generator")

    monkeypatch.setattr(decohere.gksl, "to_superoperator", no_superoperator)
    h = 0.7 * SIGMA_Z
    rho0 = DensityMatrix.pure([1.0, 1.0])
    t_grid = np.linspace(0.0, 2.0, 9)
    trajectory = integrate_time_dependent(
        GkslGenerator(h), dephasing_generator(0.5), lambda t: t, rho0, t_grid,
    )
    for t, state in zip(t_grid, trajectory):
        expected = 0.5 * np.exp(-2j * 0.7 * t - 0.5 * t * t)
        assert abs(state.matrix[0, 1] - expected) < 1e-7
        assert np.array_equal(np.diag(state.matrix), np.diag(rho0.matrix))


def test_integrate_time_dependent_mixed_parts_use_superoperators(monkeypatch):
    # a diagonal fixed part with a non-diagonal (bit-flip) varying part:
    # both become superoperators.  At bit-flip rate t/2 the population
    # difference decays as exp(-t^2/2) whatever H = 0.7 sigma_z does.
    built = []
    superoperator = decohere.gksl.to_superoperator
    monkeypatch.setattr(decohere.gksl, "to_superoperator",
                        lambda gen: built.append(gen) or superoperator(gen))
    rho0 = DensityMatrix(np.diag([1.0, 0.0]))
    t_grid = np.linspace(0.0, 2.0, 9)
    trajectory = integrate_time_dependent(
        GkslGenerator(0.7 * SIGMA_Z),
        GkslGenerator(np.zeros((2, 2)), (SIGMA_X,), [[0.5]]),
        lambda t: t, rho0, t_grid,
    )
    assert len(built) == 2
    for t, state in zip(t_grid, trajectory):
        assert abs(state.matrix[0, 0] - 0.5 * (1.0 + np.exp(-0.5 * t * t))) < 1e-7


def test_integrate_trivial_generator_constant_trajectory():
    gen = GkslGenerator(np.zeros((2, 2)), (SIGMA_Z,), [[0.0]])
    trajectory = integrate_time_dependent(
        gen, dephasing_generator(1.0), lambda t: 0.0, PLUS, np.linspace(0.0, 3.0, 7)
    )
    for state in trajectory:
        assert np.abs(state.matrix - PLUS.matrix).max() < 1e-9


@pytest.mark.parametrize("defect", [
    np.full((2, 2), np.nan),
    np.diag([1e-5, 0.0]),  # trace drift
    np.array([[0.0, 1e-5], [0.0, 0.0]]),  # Hermiticity drift
    np.array([[0.0, 1e-5], [1e-5, 0.0]]),  # positivity loss: |+><+| gains eigenvalue -1e-5
])
def test_integrate_drift_is_an_invariant_violation(monkeypatch, defect):
    def drifting(rhs, y0, t_grid, spec, *, before_step):
        return [y0, vec(unvec(y0, 2) + defect)]

    monkeypatch.setattr(decohere.gksl.numcore, "ode_solve", drifting)
    with pytest.raises(InvariantViolationError, match="invariant drift exceeded"):
        integrate_constant(dephasing_generator(1.0), PLUS, [0.0, 1.0])


def test_integrate_drift_stays_small():
    rng = np.random.default_rng(53)
    gen = random_generator(rng, 2, 2)
    trajectory = integrate_constant(
        gen, random_density_matrix(rng, 2), np.linspace(0.0, 5.0, 11)
    )
    for state in trajectory:
        assert abs(np.trace(state.matrix) - 1.0) <= 1e-8
        assert np.abs(state.matrix - state.matrix.conj().T).max() <= 1e-8


def random_diagonal_generator(rng, d, m):
    """Diagonal H and Lindblad operators with norms spread over [0.3, 3],
    coupled by a dense (non-diagonal) PSD Kossakowski matrix."""
    h = np.diag(rng.normal(size=d)) * rng.uniform(0.3, 3.0)
    ops = tuple(
        np.diag(rng.normal(size=d) + 1j * rng.normal(size=d)) * rng.uniform(0.3, 3.0)
        for _ in range(m)
    )
    b = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return GkslGenerator(h, ops, b @ b.conj().T)


def test_entrywise_kernel_is_superoperator_diagonal():
    rng = np.random.default_rng(71)
    for d in range(1, 9):
        for m in range(4):
            gen = random_diagonal_generator(rng, d, m)
            s = to_superoperator(gen).matrix
            kernel = _entrywise_kernel(gen)
            assert kernel.shape == (d, d)
            scale = max(1.0, float(np.abs(s).max()))
            assert np.abs(vec(kernel) - np.diag(s)).max() <= 1e-14 * scale
            assert np.count_nonzero(s - np.diag(np.diag(s))) == 0
            assert np.count_nonzero(np.diag(kernel)) == 0


def test_entrywise_kernel_none_for_non_diagonal_generators():
    rng = np.random.default_rng(73)
    assert _entrywise_kernel(random_generator(rng, 3, 2)) is None
    diag_h = np.diag([1.0, -1.0])
    assert _entrywise_kernel(GkslGenerator(SIGMA_X, (SIGMA_Z,), [[1.0]])) is None
    assert _entrywise_kernel(
        GkslGenerator(diag_h, (SIGMA_Z, SIGMA_X), np.eye(2))
    ) is None
    assert _entrywise_kernel(GkslGenerator(diag_h)) is not None


def test_integrate_constant_entrywise_matches_semigroup():
    rng = np.random.default_rng(79)
    gen = random_diagonal_generator(rng, 5, 3)
    rho0 = random_density_matrix(rng, 5)
    t_grid = np.linspace(0.0, 1.0, 5)
    for t, state in zip(t_grid, integrate_constant(gen, rho0, t_grid)):
        reference = propagate_semigroup(gen, rho0, float(t))
        assert np.abs(state.matrix - reference.matrix).max() < 1e-7
        assert np.array_equal(np.diag(state.matrix), np.diag(rho0.matrix))


# ----------------------------------------------------------------------
# Choi / complete positivity
# ----------------------------------------------------------------------


def test_choi_identity_channel():
    choi = choi_of_propagator(Superoperator(np.eye(4)))
    w = np.linalg.eigvalsh(choi.matrix)
    assert np.allclose(w, [0.0, 0.0, 0.0, 2.0], atol=1e-12)
    assert is_completely_positive(choi).passed


def test_choi_full_dephasing_channel():
    # coherences -> 0: Choi = E00 kron E00 + E11 kron E11, eigenvalues
    # {1, 1, 0, 0} (their sum is the trace-preservation value d = 2)
    choi = choi_of_propagator(Superoperator(np.diag([1.0, 0.0, 0.0, 1.0])))
    w = np.linalg.eigvalsh(choi.matrix)
    assert np.allclose(w, [0.0, 0.0, 1.0, 1.0], atol=1e-12)
    assert is_completely_positive(choi).passed


def test_choi_unitary_conjugation_rank_one():
    choi = choi_of_propagator(Superoperator(np.kron(SIGMA_X.T, SIGMA_X)))
    w = np.linalg.eigvalsh(choi.matrix)
    assert np.allclose(w, [0.0, 0.0, 0.0, 2.0], atol=1e-12)
    result = is_completely_positive(choi)
    assert result.passed and result.min_eigenvalue > -1e-12


def test_choi_transpose_map_not_cp():
    swap = np.eye(4)[[0, 2, 1, 3]]  # vec(m) -> vec(m.T)
    choi = choi_of_propagator(Superoperator(swap))
    w = np.linalg.eigvalsh(choi.matrix)
    assert np.allclose(sorted(w), [-1.0, 1.0, 1.0, 1.0], atol=1e-12)
    result = is_completely_positive(choi)
    assert not result.passed
    assert abs(result.min_eigenvalue + 1.0) < 1e-12


def test_choi_of_semigroup_is_psd():
    rng = np.random.default_rng(59)
    for d, m in ((2, 1), (3, 2), (4, 3)):
        gen = random_generator(rng, d, m)
        for t in (0.1, 1.0, 10.0):
            choi = choi_of_propagator(semigroup_propagator(gen, t))
            result = is_completely_positive(choi, tol=1e-9)
            assert result.passed, f"d={d} t={t}: min eig {result.min_eigenvalue}"


def test_choi_reshuffle_equals_map_loop():
    rng = np.random.default_rng(83)
    for d in (2, 5, 8, 12):
        prop = Superoperator(
            rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        )
        reference = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                e_ij = np.zeros((d, d), dtype=complex)
                e_ij[i, j] = 1.0
                reference += np.kron(e_ij, prop.apply(e_ij))
        assert np.array_equal(choi_of_propagator(prop).matrix, reference)


def test_is_cp_requires_hermitian_choi():
    from decohere import ChoiMatrix

    with pytest.raises(NotHermitianError):
        is_completely_positive(ChoiMatrix(np.triu(np.ones((4, 4)))))


# ----------------------------------------------------------------------
# canonical form
# ----------------------------------------------------------------------


def test_canonical_form_diagonal_input_unchanged_up_to_permutation():
    ops = (np.array([[0, 1], [0, 0]], dtype=complex), SIGMA_Z.copy())
    gen = GkslGenerator(np.zeros((2, 2)), ops, np.diag([2.0, 1.0]))
    canon = canonical_form(gen)
    assert np.allclose(sorted(np.diag(canon.kossakowski).real), [1.0, 2.0])
    assert np.abs(np.diag(np.diag(canon.kossakowski)) - canon.kossakowski).max() < 1e-14


def test_canonical_form_rank_one_coupling():
    l1 = np.array([[0, 1], [0, 0]], dtype=complex)
    l2 = np.array([[0, 0], [1, 0]], dtype=complex)
    gen = GkslGenerator(np.zeros((2, 2)), (l1, l2), [[1.0, 1.0], [1.0, 1.0]])
    canon = canonical_form(gen)
    rates = np.diag(canon.kossakowski).real
    assert abs(max(rates) - 2.0) < 1e-12
    assert abs(min(rates)) < 1e-12
    combined = canon.lindblad_ops[int(np.argmax(rates))]
    target = (l1 + l2) / math.sqrt(2.0)
    # eigenvectors carry an arbitrary phase
    phase = combined[0, 1] / target[0, 1]
    assert abs(abs(phase) - 1.0) < 1e-12
    assert np.abs(combined - phase * target).max() < 1e-12


generator_draws = dict(
    d=st.integers(2, 6),
    m=st.integers(1, 4),
    norms=st.lists(st.floats(0.3, 3.0), min_size=6, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)


def drawn_generator(d, m, norms, seed):
    """A non-diagonal generator from one draw of generator_draws: operator
    norms from norms, a PSD Kossakowski matrix; and the rng it leaves."""
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, d, norms[0])
    ops = []
    for norm in norms[1:m + 1]:
        op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        ops.append(norm * op / np.linalg.norm(op, 2))
    b = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    a = b @ b.conj().T
    return GkslGenerator(h, tuple(ops), norms[-1] * a / np.linalg.norm(a, 2)), rng


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**generator_draws)
def test_random_generator_canonical_form_and_cp(d, m, norms, seed):
    gen, rng = drawn_generator(d, m, norms, seed)
    assert _entrywise_kernel(gen) is None

    canon = canonical_form(gen)
    for _ in range(3):
        rho = random_density_matrix(rng, d)
        want = apply_generator(gen, rho)
        got = apply_generator(canon, rho)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    for t in (0.1, 1.0):
        result = is_completely_positive(choi_of_propagator(semigroup_propagator(gen, t)))
        assert result.min_eigenvalue >= -1e-8


@settings(max_examples=50, deadline=None, derandomize=True)
@given(**generator_draws)
def test_random_generator_ode_matches_semigroup(d, m, norms, seed):
    gen, rng = drawn_generator(d, m, norms, seed)
    rho0 = random_density_matrix(rng, d)
    t_grid = np.linspace(0.0, 2.0, 9)
    for t, state in zip(t_grid, integrate_constant(gen, rho0, t_grid)):
        reference = propagate_semigroup(gen, rho0, float(t))
        assert np.abs(state.matrix - reference.matrix).max() <= 1e-6


def _assert_trajectory_matches_per_time(gen, rho0, t_grid):
    dt = float(t_grid[1] - t_grid[0])
    trajectory = semigroup_trajectory(gen, rho0, dt, len(t_grid))
    assert len(trajectory) == len(t_grid) and trajectory[0] is rho0
    for t, state in zip(t_grid, trajectory):
        reference = propagate_semigroup(gen, rho0, float(t))
        assert np.abs(state.matrix - reference.matrix).max() <= 1e-12


@settings(max_examples=50, deadline=None, derandomize=True)
@given(**generator_draws)
def test_random_generator_trajectory_matches_per_time_semigroup(d, m, norms, seed):
    gen, rng = drawn_generator(d, m, norms, seed)
    _assert_trajectory_matches_per_time(gen, random_density_matrix(rng, d),
                                        np.linspace(0.0, 2.0, 9))


def test_stiff_damped_qubit_trajectory_matches_per_time_semigroup():
    # amplitude damping at rate 60: a triangular superoperator whose step
    # exp(dt L) nearly empties the upper level
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    gen = GkslGenerator(0.9 * SIGMA_Z, (lower,), [[60.0]])
    assert np.count_nonzero(np.tril(to_superoperator(gen).matrix, -1)) == 0
    for rho0 in (DensityMatrix.pure([1.0, 0.0]), PLUS):
        _assert_trajectory_matches_per_time(gen, rho0, np.linspace(0.0, 0.5, 11))


def test_canonical_form_equivalence_on_random_states():
    rng = np.random.default_rng(61)
    gen = random_generator(rng, 3, 3)
    canon = canonical_form(gen)
    assert np.abs(np.diag(np.diag(canon.kossakowski)) - canon.kossakowski).max() < 1e-14
    assert np.all(np.diag(canon.kossakowski).real >= 0.0)
    for _ in range(20):
        rho = random_density_matrix(rng, 3)
        assert np.abs(
            apply_generator(gen, rho) - apply_generator(canon, rho)
        ).max() < 1e-10


# ----------------------------------------------------------------------
# misc
# ----------------------------------------------------------------------


def test_superoperator_apply_roundtrip():
    rng = np.random.default_rng(67)
    s = Superoperator(np.eye(9))
    rho = random_density_matrix(rng, 3)
    assert np.abs(s.apply(rho.matrix) - rho.matrix).max() == 0.0


@pytest.mark.parametrize("cls, name", [(Superoperator, "superoperator"),
                                       (ChoiMatrix, "Choi matrix")])
def test_map_matrices_share_validation(cls, name):
    assert cls(np.eye(4, dtype=int)).matrix.dtype == np.complex128
    with pytest.raises(DimensionMismatchError, match=f"{name} must be square"):
        cls(np.eye(4)[:3])
    with pytest.raises(DimensionMismatchError, match=f"{name} size 8 is not a perfect square"):
        cls(np.eye(8))
    with pytest.raises(ValidationError, match=f"{name} contains non-finite entries"):
        cls(np.full((4, 4), np.nan))


def test_dimension_mismatch_in_apply():
    gen = dephasing_generator(1.0)
    with pytest.raises(DimensionMismatchError):
        apply_generator(gen, np.eye(3) / 3.0)
    with pytest.raises(DimensionMismatchError):
        integrate_constant(gen, DensityMatrix.maximally_mixed(3), [0.0, 1.0])


@pytest.mark.parametrize("fixed_dim, varying_dim, state_dim", [(2, 2, 3), (3, 2, 2), (2, 3, 2)])
def test_dimension_mismatch_in_time_dependent_parts(fixed_dim, varying_dim, state_dim):
    fixed = GkslGenerator(np.eye(fixed_dim))
    varying = GkslGenerator(np.zeros((varying_dim,) * 2), (np.eye(varying_dim),), [[1.0]])
    with pytest.raises(DimensionMismatchError, match="state dimension"):
        integrate_time_dependent(fixed, varying, lambda t: 1.0,
                                 DensityMatrix.maximally_mixed(state_dim), [0.0, 1.0])
