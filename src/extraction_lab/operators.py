"""Dense complex Hermitian operator algebra for small dimensions.

Operators are plain numpy complex arrays.  Every module checks numeric
input through the validators and tolerances here: one for operators, one
for probability vectors, one for unit traces.  Eigendecompositions are
delegated to LAPACK via numpy (eigenvalues ascending).  Operator powers
map the kernel to zero (the pseudo-inverse convention) so that
expressions like sigma^{-1/4} rho sigma^{-1/4} are well defined for
singular sigma.  Every sigma-weighted quantity takes its powers from
:func:`_sigma_powers`, which also tests, per sigma of a stack, whether
ker sigma meets the state, where such an expression means nothing; every
unit-trace test is :func:`check_unit_traces`.  Entropies are taken per
stack (:func:`von_neumann_entropies`): one eigvalsh per stack, each member
bit for bit what it gives alone, and :func:`von_neumann_entropy` is a batch
of one.
"""

from __future__ import annotations

import numpy as np

# The package's one numeric-input policy; no module restates a threshold.
HERMITICITY_ATOL = 1e-12  # max |A - A^dagger| entry of a Hermitian operator
TRACE_ATOL = 1e-9         # |tr - 1| of a normalized state, |sum - 1| of a distribution
PROBABILITY_ATOL = 1e-12  # most negative entry a probability vector may hold
KERNEL_RTOL = 1e-10       # eigenvalues <= KERNEL_RTOL * lambda_max count as kernel
KERNEL_LEAK_ATOL = 1e-9   # tr(P rho P) above this, P the kernel projector of sigma, meets rho
DIAG_ATOL = 1e-12         # largest off-diagonal |entry| of a block that counts as classical
COMPLETENESS_ATOL = 1e-12 # largest |I - sum_x E_x| entry a measurement is left with
PSD_RTOL = 1e-10          # lambda_min >= -PSD_RTOL * max(1, |lambda_max|) counts as PSD
MAX_EIG_DIM = 4096


def as_operator(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("operator has non-finite entries")
    return m


def check_hermitian(a) -> np.ndarray:
    """``a`` as a complex operator; ValueError unless finite, square and Hermitian."""
    return hermitian_stack(np.asarray(a, dtype=complex)[None])[0]


def hermitian_stack(stack, name=None) -> np.ndarray:
    """``stack`` as a complex (N, d, d) array of finite Hermitian operators, tested at once.

    ValueError names the first bad one, i, as ``block for name(i)`` if ``name`` is given.
    """
    m = np.asarray(stack, dtype=complex)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError(f"expected an (N, d, d) stack of square operators, got shape {m.shape}")
    dev = np.abs(m - m.conj().swapaxes(-1, -2))
    if not dev.max(initial=0.0) <= HERMITICITY_ATOL:    # NaN whenever an entry is not finite
        dev = dev.max(axis=(-2, -1))
        i = int(np.argmax(~(dev <= HERMITICITY_ATOL)))
        what = "operator" if name is None else f"block for {name(i)}"
        if not np.isfinite(m[i]).all():
            raise ValueError(f"{what} has non-finite entries")
        raise ValueError(f"{what} is not Hermitian (max deviation {dev[i]:.3e})")
    return m


def probability_vector(values, what: str = "distribution") -> list:
    """``values`` as a list; ValueError unless its sum is within TRACE_ATOL of 1 and no
    entry is below -PROBABILITY_ATOL (so an empty or non-finite vector is refused).
    """
    p = list(values)
    total = float(sum(p))
    if not abs(total - 1.0) <= TRACE_ATOL:      # NaN for a non-finite entry
        raise ValueError(f"{what} sums to {total}, not 1")
    if min(p) < -PROBABILITY_ATOL:
        raise ValueError(f"negative probability in {what}")
    return p


def check_unit_traces(traces, what: str, names=None) -> None:
    """ValueError for the first of ``traces`` that is not 1 within TRACE_ATOL, as
    ``<what> <names[i]> is not normalized``, or ``<what> is not normalized`` without names."""
    off = np.abs(np.asarray(traces) - 1.0) > TRACE_ATOL
    if off.any():
        i = int(np.argmax(off))
        what = what if names is None else f"{what} {names[i]}"
        raise ValueError(f"{what} is not normalized (trace {traces[i]:.6g})")


# The package's one PSD test, kernel cut, diagonal test and Hermitian part.
# Every module imports these rather than restating a threshold; they are not
# public API.

def _not_psd(w: np.ndarray):
    """Whether ascending eigenvalues ``w`` fall below the PSD tolerance: a truth value
    for one operator's, a bool array for the rows of a stack's."""
    if w.ndim == 1:     # the single-operator fast path
        return bool(w.size and w[0] < -PSD_RTOL * max(1.0, float(abs(w[-1]))))
    return w[..., 0] < -PSD_RTOL * np.maximum(1.0, np.abs(w[..., -1]))


def _kernel_mask(w: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues ``w`` (per row) at or below the relative kernel threshold."""
    if w.ndim == 1:     # the single-operator fast path
        return w <= KERNEL_RTOL * max(float(w[-1]) if w.size else 0.0, 0.0)
    return w <= KERNEL_RTOL * np.maximum(w[..., -1:], 0.0)


def _diagonal(stack: np.ndarray) -> bool:
    """True when no operator of an (N, d, d) stack has an off-diagonal |entry| above DIAG_ATOL."""
    return not np.any(np.abs(stack[:, ~np.eye(stack.shape[-1], dtype=bool)]) > DIAG_ATOL)


def _herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part of an operator, or of each operator in a stack."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def eigh(h):
    """Eigendecomposition of a Hermitian operator, or of each operator of an (N, d, d) stack.

    Returns (eigenvalues ascending, eigenvector matrix V) with
    H = V diag(w) V^dagger, with a leading axis for a stack.
    """
    m = np.asarray(h, dtype=complex)
    hermitian_stack(m if m.ndim == 3 else m[None])
    if m.shape[-1] > MAX_EIG_DIM:
        raise ValueError(f"dimension {m.shape[-1]} exceeds cap {MAX_EIG_DIM}")
    return np.linalg.eigh(m)


def _psd_eigh(h):
    """Eigendecomposition of an operator, or of each of a stack, that must be PSD."""
    return _checked_psd(*eigh(h))


def _trusted_psd_eigh(h: np.ndarray):
    """_psd_eigh for a Hermitian complex operator the package built itself.

    Solver loops call this on their own iterates: it skips the finiteness
    and Hermiticity checks of :func:`eigh` and keeps the PSD check.
    """
    return _checked_psd(*np.linalg.eigh(h))


def _checked_psd(w: np.ndarray, v: np.ndarray):
    """(w, v) as given; ValueError for the first operator (row of ``w``) that is not PSD."""
    low = _not_psd(w)
    if w.ndim > 1 and low.any():
        w, low = w[low][0], True
    if w.ndim == 1 and low:     # the truth value, so a numpy bool refuses as well
        raise ValueError(f"operator is not PSD (min eigenvalue {w[0]:.3e})")
    return w, v


def _spectral_power(w: np.ndarray, v: np.ndarray, p: float) -> np.ndarray:
    """H^p from the eigenpairs (w ascending, V) of a PSD operator H, or of each of a stack.

    Eigenvalues at or below the relative kernel threshold map to 0
    (Moore-Penrose convention for p < 0), so p = 0 gives the support projector.
    """
    fw = np.zeros_like(w)
    live = ~_kernel_mask(w)
    fw[live] = w[live] ** p
    return (v * fw[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _sigma_powers(sigmas, p: float, states: np.ndarray):
    """Each sigma_i^p of a PSD (K, d, d) stack, as :func:`op_power` gives it, from one
    stacked eigh, and whether ker sigma_i meets the (N, d, d) stack states[i]: some
    tr(P rho P) > KERNEL_LEAK_ATOL, P the kernel projector.  Only a sigma with a
    kernel is tested."""
    w, v = _psd_eigh(sigmas)
    dead = _kernel_mask(w)
    leaks = np.zeros(len(w), dtype=bool)
    for i in np.flatnonzero(dead.any(axis=-1)):
        kernel = v[i][:, dead[i]]
        proj = kernel @ kernel.conj().T
        leaks[i] = np.any((proj @ states[i] @ proj).trace(axis1=-2, axis2=-1).real
                          > KERNEL_LEAK_ATOL)
    return _spectral_power(w, v, p), leaks


def op_power(h, p: float) -> np.ndarray:
    """Spectral power H^p of a positive semidefinite operator.

    Eigenvalues at or below the relative kernel threshold map to 0
    (Moore-Penrose convention for p < 0; p = 0 gives the support
    projector).
    """
    return _spectral_power(*_psd_eigh(h), p)


def hermitian_trace_norm(s) -> float:
    """Trace norm of a Hermitian matrix via its eigenvalues (cheaper than SVD)."""
    return float(hermitian_trace_norms(as_operator(s)[None])[0])


def hermitian_trace_norms(stack) -> np.ndarray:
    """Trace norm of each Hermitian matrix in an (N, d, d) stack, from one stacked eigvalsh."""
    return np.sum(np.abs(np.linalg.eigvalsh(hermitian_stack(stack))), axis=-1)


def trace_distance(rho, sigma, check_trace: bool = True) -> float:
    """Half the trace norm of rho - sigma."""
    a = as_operator(rho)
    b = as_operator(sigma)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if check_trace:
        check_unit_traces([a.trace()], "rho")
        check_unit_traces([b.trace()], "sigma")
    return 0.5 * hermitian_trace_norm(a - b)


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two operators, or of each pair of two stacks (leading axes
    broadcast), as one elementwise product: np.kron's entries, bit for bit."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``, of one operator or of each operator
    of an (N, D, D) stack of Hermitian operators (checked by :func:`hermitian_stack`).

    ``dims`` are the subsystem dimensions in tensor order, ``keep`` the
    indices (0-based) of the subsystems to retain, in their tensor order.
    """
    m = as_operator(rho) if np.ndim(rho) == 2 else hermitian_stack(rho)
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    if m.shape[-1] != total:
        raise ValueError(f"operator dim {m.shape[-1]} != product of subsystem dims {total}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} subsystems")
    k = len(dims)
    lead = m.shape[:-2]
    tensor_form = m.reshape(lead + dims + dims)
    # Contract each traced subsystem's row index with its column index.
    traced = [i for i in range(k) if i not in keep]
    for count, idx in enumerate(traced):
        axis = len(lead) + idx - count          # axes shift as we trace
        tensor_form = np.trace(tensor_form, axis1=axis, axis2=axis + (k - count))
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return tensor_form.reshape(lead + (d_keep, d_keep))


def von_neumann_entropy(rho, check_trace: bool = True) -> float:
    """Entropy -sum(lambda log2 lambda) of a PSD operator, with 0 log 0 = 0."""
    m = check_hermitian(rho)
    if check_trace:
        check_unit_traces([m.trace()], "density operator")
    return float(von_neumann_entropies(m[None])[0])


def von_neumann_entropies(stack: np.ndarray) -> np.ndarray:
    """:func:`von_neumann_entropy` of each operator of an (N, d, d) stack of Hermitian
    operators, tested for neither Hermiticity nor trace, from one stacked eigvalsh;
    ValueError for the first that is not PSD.

    Each row's sum runs over that row's positive eigenvalues alone, as a
    single operator's does: a masked sum over the whole stack would add
    in another order and move the last bits.
    """
    w, _ = _checked_psd(np.linalg.eigvalsh(stack), None)
    live = w > 0
    values = w[live]
    terms = values * np.log2(values)
    ends = np.cumsum(np.count_nonzero(live, axis=-1)).tolist()
    return -np.array([np.add.reduce(terms[lo:hi]) for lo, hi in zip([0] + ends, ends)],
                     dtype=float)


def random_densities(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` full-rank random density operators (Wishart-normalized), (count, dim, dim).

    One standard-normal draw of shape (count, 2, dim, dim) holds each
    operator's real and imaginary Ginibre parts, in the order that
    ``count`` single draws take them, so the operators and the generator's
    state are those of ``count`` calls of :func:`random_density`.
    """
    return ginibre_densities(rng.standard_normal((count, 2, dim, dim)))


def ginibre_densities(x: np.ndarray) -> np.ndarray:
    """g g^dagger / tr(g g^dagger) for each g = x[i, 0] + 1j x[i, 1] of an (N, 2, d, d)
    array of standard normals; each operator is what a batch of one gives it."""
    g = x[:, 0] + 1j * x[:, 1]
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / rho.trace(axis1=-2, axis2=-1).real[:, None, None]


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density operator: :func:`random_densities` of a batch of one."""
    return random_densities(1, dim, rng)[0]


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())
