"""Fourier transform on finite abelian groups and the Gowers U2 norm.

Convention: fhat(r) = E_x f(x) * conj(chi_r(x)) with chi_r(x) =
exp(2*pi*i * sum_j r_j x_j / m_j), i.e. average on the group side and plain
sum on the dual side.  All downstream formulas (Parseval, U2, density
evaluation) assume this normalization.
"""

from __future__ import annotations

import numpy as np

from .errors import check_budget, refuse_overflow
from .functions import DenseFn, SparseFn
from .groups import GroupSpec

TRUNCATION = 1e-14

U2_DIRECT_MAX_ORDER = 4096


@refuse_overflow("the spectrum")
def spectrum_array(f: DenseFn) -> np.ndarray:
    """Full (untruncated) spectrum as a flat array in dual enumeration
    order.  The dual of a finite group shares its moduli, so indexing
    matches GroupSpec.elements()."""
    return fft_rows(f.values[None], f.group)[0] / f.group.order


def fft_rows(X: np.ndarray, group: GroupSpec) -> np.ndarray:
    """Unnormalized transform over the group of each row of the (R, N)
    array X, as an (R, N) array: one np.fft.fft per group axis, last axis
    first as np.fft.fftn takes them, so the result equals fftn's bit for
    bit without its wrapper or a complex copy of a real X."""
    out = X.reshape((len(X),) + group.moduli)
    for axis in range(group.rank, 0, -1):
        out = np.fft.fft(out, axis=axis)
    return out.reshape(len(X), -1)


def dft(f: DenseFn) -> SparseFn:
    """Fourier transform; entries below 1e-14 in magnitude are dropped and
    the full l2 mass is preserved in declared_l2 for Parseval accounting."""
    spec = spectrum_array(f)
    dual = f.group.dual()
    entries = {r: v for r, v, kept in zip(dual.elements(), spec.tolist(),
                                          (np.abs(spec) > TRUNCATION).tolist()) if kept}
    return SparseFn(dual, entries, declared_l2=f.l2_norm(), truncation=TRUNCATION)


def dft_naive(f: DenseFn) -> np.ndarray:
    """Plain character-sum transform, kept as an independent cross-check
    for the FFT path."""
    G = f.group
    n = G.order
    elems = list(G.elements())
    out = np.zeros(n, dtype=np.complex128)
    for ri, r in enumerate(elems):
        acc = 0.0 + 0.0j
        for xi, x in enumerate(elems):
            phase = sum(rj * xj / m for rj, xj, m in zip(r, x, G.moduli))
            acc += f.values[xi] * np.exp(-2j * np.pi * phase)
        out[ri] = acc / n
    return out


def idft(fhat: SparseFn) -> DenseFn:
    """Inverse transform f(x) = sum_r fhat(r) chi_r(x) on a finite dual."""
    G = fhat.group
    spec = np.zeros(G.order, dtype=np.complex128)
    spec[G.flat_index(np.reshape(list(fhat.entries), (-1, G.rank)))] = list(fhat.entries.values())
    grid = np.fft.ifftn(spec.reshape(G.moduli)) * G.order
    return DenseFn(G, grid.reshape(-1))


def _rescaled(norm, a: np.ndarray, degree: float) -> float:
    """norm(a) for magnitudes a >= 0, norm being homogeneous of the given
    degree.  Only where norm's powers or sums overflow is a first divided
    by a power of four s that leaves its largest entry in [1, 4), and the
    result multiplied back by s**degree, a power of two for degree 1 or
    1/2."""
    try:
        return float(norm(a))
    except FloatingPointError:
        s = 4.0 ** ((int(np.frexp(np.max(a))[1]) - 1) // 2)
        return float(norm(a / s) * s**degree)


@refuse_overflow("the U2 norm")
def u2_fourier(f: DenseFn) -> float:
    """U2 norm via the spectral formula: the l4 norm of the spectrum."""
    return _rescaled(lambda a: np.sum(a**4) ** 0.25, np.abs(spectrum_array(f)), 1)


@refuse_overflow("the U2 norm")
def u2_direct(f: DenseFn, max_order: int = U2_DIRECT_MAX_ORDER) -> float:
    """U2 norm from its defining triple average
    E_{x,a,b} f(x) f(x+a)* f(x+b)* f(x+a+b), evaluated without any Fourier
    machinery.  The triple sum is regrouped exactly as
    E_a |E_x f(x) f(x+a)*|^2, which is the same finite sum with the x and b
    averages factored out; cost O(|A|^2)."""
    G = f.group
    n = G.order
    check_budget(n, max_order, f"u2_direct on a group of order {n}", "use u2_fourier")
    coords = G.coord_array()
    vals = f.values
    # scalar abs and powers added in index order: NumPy's vector forms
    # round some of them differently in the last bit
    autocorr = np.array([abs(np.mean(vals * np.conj(vals[G.flat_index(coords + a)])))
                         for a in coords])
    return _rescaled(lambda c: (sum(x**2 for x in c) / n) ** 0.25, autocorr, 0.5)
