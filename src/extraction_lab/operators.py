"""Dense complex Hermitian operator algebra for small dimensions.

Operators are plain numpy complex arrays.  Functions here assume (and
where cheap, verify) Hermiticity; eigendecompositions are delegated to
LAPACK via numpy, which returns eigenvalues in ascending order.  Operator
powers map the kernel to zero (the pseudo-inverse convention) so that
expressions like sigma^{-1/4} rho sigma^{-1/4} are well defined for
singular sigma.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_ATOL = 1e-12
KERNEL_RTOL = 1e-10       # eigenvalues <= KERNEL_RTOL * lambda_max count as kernel
PSD_RTOL = 1e-10          # lambda_min >= -PSD_RTOL * max(1, |lambda_max|) counts as PSD
MAX_EIG_DIM = 4096


def as_operator(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("operator has non-finite entries")
    return m


def check_hermitian(a, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    m = as_operator(a)
    dev = float(_hermitian_deviation(m))
    if dev > atol:
        raise ValueError(f"operator is not Hermitian (max deviation {dev:.3e})")
    return m


# The package's one PSD test, kernel cut and Hermitian part.  Every module
# imports these rather than restating a threshold; they are not public API.

def _not_psd(w: np.ndarray) -> bool:
    """True when ascending eigenvalues ``w`` fall below the PSD tolerance."""
    return bool(w.size and w[0] < -PSD_RTOL * max(1.0, float(abs(w[-1]))))


def _kernel_mask(w: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues ``w`` at or below the relative kernel threshold."""
    top = float(w[-1]) if w.size else 0.0
    return w <= KERNEL_RTOL * max(top, 0.0)


def _hermitian_deviation(a: np.ndarray) -> np.ndarray:
    """Largest entry of |A - A^dagger|, for an operator or each operator in a stack."""
    return np.abs(a - np.swapaxes(a.conj(), -1, -2)).max(axis=(-2, -1), initial=0.0)


def _herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part of an operator, or of each operator in a stack."""
    return 0.5 * (a + np.swapaxes(a.conj(), -1, -2))


def _max_eig(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(_herm(h))[-1])


def eigh(h):
    """Eigendecomposition of a Hermitian operator.

    Returns (eigenvalues ascending, eigenvector matrix V) with
    H = V diag(w) V^dagger.
    """
    m = check_hermitian(h)
    if m.shape[0] > MAX_EIG_DIM:
        raise ValueError(f"dimension {m.shape[0]} exceeds cap {MAX_EIG_DIM}")
    w, v = np.linalg.eigh(m)
    return w, v


def _psd_eigh(h):
    """Eigendecomposition of an operator that must be positive semidefinite."""
    return _checked_psd(*eigh(h))


def _trusted_psd_eigh(h: np.ndarray):
    """_psd_eigh for a Hermitian complex operator the package built itself.

    Solver loops call this on their own iterates: it skips the finiteness
    and Hermiticity checks of :func:`eigh` and keeps the PSD check.
    """
    return _checked_psd(*np.linalg.eigh(h))


def _checked_psd(w: np.ndarray, v: np.ndarray):
    if _not_psd(w):
        raise ValueError(f"operator is not PSD (min eigenvalue {w[0]:.3e})")
    return w, v


def _spectral_power(w: np.ndarray, v: np.ndarray, p: float) -> np.ndarray:
    """H^p from the eigenpairs (w ascending, V) of a PSD operator H.

    Eigenvalues at or below the relative kernel threshold map to 0
    (Moore-Penrose convention for p < 0).
    """
    fw = np.zeros_like(w)
    live = ~_kernel_mask(w)
    if p == 0:
        fw[live] = 1.0                      # support projector convention
    elif p > 0:
        fw[live] = np.clip(w[live], 0.0, None) ** p
    else:
        fw[live] = w[live] ** p
    return (v * fw) @ v.conj().T


def op_power(h, p: float) -> np.ndarray:
    """Spectral power H^p of a positive semidefinite operator.

    Eigenvalues at or below the relative kernel threshold map to 0
    (Moore-Penrose convention for p < 0; p = 0 gives the support
    projector).
    """
    return _spectral_power(*_psd_eigh(h), p)


def trace_norm(s) -> float:
    """Sum of singular values of a square matrix."""
    m = as_operator(s)
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def hermitian_trace_norm(s) -> float:
    """Trace norm of a Hermitian matrix via its eigenvalues (cheaper than SVD)."""
    return float(hermitian_trace_norms(as_operator(s)[None])[0])


def hermitian_trace_norms(stack) -> np.ndarray:
    """Trace norm of each Hermitian matrix in an (N, d, d) stack.

    One finiteness and Hermiticity check (within 1e-9) covers the whole
    stack, and one stacked eigvalsh gives every spectrum.
    """
    m = np.asarray(stack, dtype=complex)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError(f"expected an (N, d, d) stack, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("operator has non-finite entries")
    dev = float(_hermitian_deviation(m).max(initial=0.0))
    if dev > 1e-9:
        raise ValueError(f"operator is not Hermitian (max deviation {dev:.3e})")
    return np.sum(np.abs(np.linalg.eigvalsh(m)), axis=-1)


def trace_distance(rho, sigma, check_trace: bool = True) -> float:
    """Half the trace norm of rho - sigma."""
    a = as_operator(rho)
    b = as_operator(sigma)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if check_trace:
        for name, op in (("rho", a), ("sigma", b)):
            t = complex(np.trace(op))
            if abs(t - 1.0) > 1e-9:
                raise ValueError(f"{name} is not trace-normalized (trace {t:.6g}); "
                                 "pass check_trace=False for subnormalized inputs")
    return 0.5 * hermitian_trace_norm(a - b)


def tensor(a, b) -> np.ndarray:
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    ``dims`` are the subsystem dimensions in tensor order, ``keep`` the
    indices (0-based) of the subsystems to retain, in their tensor order.
    """
    m = as_operator(rho)
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    if m.shape[0] != total:
        raise ValueError(f"operator dim {m.shape[0]} != product of subsystem dims {total}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} subsystems")
    k = len(dims)
    tensor_form = m.reshape(dims + dims)
    # Contract each traced subsystem's row index with its column index.
    traced = [i for i in range(k) if i not in keep]
    for count, idx in enumerate(traced):
        axis = idx - count                      # axes shift as we trace
        tensor_form = np.trace(tensor_form, axis1=axis, axis2=axis + (k - count))
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return tensor_form.reshape(d_keep, d_keep)


def von_neumann_entropy(rho, check_trace: bool = True) -> float:
    """Entropy -sum(lambda log2 lambda), with 0 log 0 = 0."""
    m = check_hermitian(rho, atol=1e-9)
    if check_trace and abs(complex(np.trace(m)) - 1.0) > 1e-9:
        raise ValueError("density operator must have unit trace")
    w = np.linalg.eigvalsh(m)
    w = np.clip(w, 0.0, None)
    live = w > 0
    return float(-np.sum(w[live] * np.log2(w[live])))


def conditional_mutual_information(rho, dims) -> float:
    """I(A:B|C) = S(AC) + S(BC) - S(ABC) - S(C) in bits for dims (dA, dB, dC)."""
    if len(dims) != 3:
        raise ValueError("dims must be (d_A, d_B, d_C)")
    s_ac = von_neumann_entropy(partial_trace(rho, dims, keep=(0, 2)), check_trace=False)
    s_bc = von_neumann_entropy(partial_trace(rho, dims, keep=(1, 2)), check_trace=False)
    s_abc = von_neumann_entropy(rho, check_trace=False)
    s_c = von_neumann_entropy(partial_trace(rho, dims, keep=(2,)), check_trace=False)
    return s_ac + s_bc - s_abc - s_c


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density operator (Wishart-normalized)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())
