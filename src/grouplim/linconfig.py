"""Linear configurations and their densities in function systems.

A configuration is a list of integer-coefficient linear forms in n
variables; its density in a function system is the average over all
uniform variable assignments of the product of the functions evaluated at
the forms.

All Fourier-side work runs on one engine: the dual constraint lattice
{r : Lambda^T r = 0}, enumerated once as an (S, k) array by
dual_constraint_solutions.  The density is a gather and product over its
rows (density_fourier).  For a stack of real functions one gather gives
the densities and their gradients in the values, each gradient one FFT of
the leave-one-out products (dual_density_and_gradient), which the
optimizer in extremal and its density_gradient use.  Direct summation
(density_brute) is kept as the independent oracle, and Monte Carlo
sampling as an estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DENSITY_BUDGET,
    ValidationError,
    check_budget,
    check_count,
    check_int,
    check_seed,
    refuse_overflow,
)
from .functions import DenseFn
from .groups import GroupSpec, make_group
from .intlattice import lattice_points_mod, rank, relation_lattice_basis, triangular_basis
from .spectral import fft_rows, spectrum_array

# bound on the bytes (32 MiB) a chunk of assignments holds at its peak
CHUNK_BYTES = 1 << 25
# assignments summed by one np.sum, whatever the chunks
BLOCK = 1 << 16


@dataclass(frozen=True)
class LinearForm:
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not any(self.coeffs):
            raise ValidationError("a linear form needs at least one nonzero coefficient")

    @property
    def arity(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class ConfigSystem:
    forms: tuple[LinearForm, ...]
    name: Optional[str] = None

    def __post_init__(self):
        if not self.forms:
            raise ValidationError("configuration needs at least one form")
        arities = {f.arity for f in self.forms}
        if len(arities) != 1:
            raise ValidationError(f"forms have mixed arities: {arities}")

    @property
    def arity(self) -> int:
        return self.forms[0].arity

    @property
    def size(self) -> int:
        return len(self.forms)

    def matrix(self) -> list[list[int]]:
        """k x n coefficient matrix, one row per form."""
        return [list(f.coeffs) for f in self.forms]

    def to_json(self) -> dict:
        return {"forms": self.matrix()}

    @classmethod
    def from_json(cls, obj: dict) -> "ConfigSystem":
        try:
            forms = tuple(
                LinearForm(tuple(check_int(c, "coefficients") for c in row))
                for row in obj["forms"]
            )
        except (KeyError, TypeError, ValueError):
            raise ValidationError("config JSON needs 'forms': [[c1, ..., cn], ...]")
        return cls(forms)


def config_from_forms(rows: Sequence[Sequence[int]], name: Optional[str] = None) -> ConfigSystem:
    return ConfigSystem(tuple(LinearForm(tuple(int(c) for c in r)) for r in rows), name)


def graph_config(edges: Sequence[tuple[int, int]], nvars: Optional[int] = None) -> ConfigSystem:
    """The system {x_i + x_j : (i,j) an edge} attached to a graph."""
    if not edges:
        raise ValidationError("graph configuration needs at least one edge")
    n = nvars if nvars is not None else max(max(e) for e in edges) + 1
    rows = []
    for i, j in edges:
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ValidationError(f"bad edge ({i},{j})")
        row = [0] * n
        row[i] += 1
        row[j] += 1
        rows.append(row)
    return config_from_forms(rows, name="graph")


def builtin_config(name: str) -> ConfigSystem:
    """Named configurations: ap3, parallelogram, or graph:<edge list> with
    edges like graph:0-1,1-2,2-0."""
    if name == "ap3":
        return config_from_forms([[1, 0], [1, 1], [1, 2]], name="ap3")
    if name == "parallelogram":
        return config_from_forms(
            [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]], name="parallelogram"
        )
    if name.startswith("graph:"):
        spec = name[len("graph:"):]
        edges = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                i, j = part.split("-")
                edges.append((int(i), int(j)))
            except ValueError:
                raise ValidationError(f"cannot parse graph edge '{part}'")
        return graph_config(edges)
    raise ValidationError(f"unknown configuration name '{name}'")


def _as_system(F, k: int, group: Optional[GroupSpec]) -> tuple[list[DenseFn], GroupSpec]:
    """The k functions of a system, or one function that stands for all k
    as the single row that form_products broadcasts, and the group they
    share."""
    if isinstance(F, DenseFn):
        Fs = [F]
    else:
        Fs = list(F)
        if len(Fs) != k:
            raise ValidationError(f"function system has {len(Fs)} entries, need {k}")
    if group is None:
        group = Fs[0].group
    if any(f.group != group for f in Fs):
        raise ValidationError("all functions must live on the same group")
    return Fs, group


def form_products(tables: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Row-wise products prod_j tables[j, idx[:, j]] for an (L, k) index
    array.  Row j of tables belongs to form j; a single row serves every
    form."""
    return np.prod(np.take_along_axis(tables, idx.T, axis=1), axis=0)


def _form_indices(config: ConfigSystem, group: GroupSpec, var_idx: np.ndarray) -> np.ndarray:
    """Flat element index of every form at each assignment: var_idx is
    (L, n) element indices of the variables, the result is (L, k).  The
    forms are evaluated one coordinate factor at a time, on the variables'
    digits in that factor, with the coefficients reduced mod its modulus,
    and folded in as mixed-radix digits, the first factor slowest."""
    flat = np.zeros((len(var_idx), config.size), dtype=np.int64)
    forms, digits = np.empty_like(flat), np.empty_like(var_idx)
    stride = group.order
    for m in group.moduli:
        stride //= m
        np.floor_divide(var_idx, stride, out=digits)
        digits %= m
        lam_t = np.array([[c % m for c in f.coeffs] for f in config.forms], dtype=np.int64).T
        np.matmul(digits, lam_t, out=forms)
        forms %= m
        flat *= m
        flat += forms
    return flat


@refuse_overflow("the mean over assignments")
def mean_over_assignments(N: int, n: int, row_entries: int, products, budget: int) -> complex:
    """Mean of products(var_idx) over the N**n assignments of n variables
    to a group of order N, the sum behind both brute-force oracles.
    var_idx is a chunk's (L, n) element indices, and a chunk holds at most
    row_entries int64-sized entries an assignment.  Products are summed in
    blocks of BLOCK assignments, so the value does not depend on
    CHUNK_BYTES, and computed in chunks that hold under CHUNK_BYTES with
    the block's products, which are held twice."""
    # past budget's bit length, n is over budget, and N**n would hold n*log2(N) bits
    total = math.inf if N > 1 and n > budget.bit_length() else N**n
    check_budget(total, budget, f"|A|^n = {N}^{n} assignments")
    chunk = max(1, (CHUNK_BYTES - 32 * BLOCK) // (8 * row_entries))
    acc = 0.0 + 0.0j
    for first in range(0, total, BLOCK):
        last = min(first + BLOCK, total)
        prods = []
        for start in range(first, last, chunk):
            flat = np.arange(start, min(start + chunk, last), dtype=np.int64)
            prods.append(products(np.stack(np.unravel_index(flat, (N,) * n), axis=-1)))
        acc += np.sum(np.concatenate(prods))
    return complex(acc / total)


def density_brute(
    config: ConfigSystem,
    F,
    group: Optional[GroupSpec] = None,
    budget: int = DENSITY_BUDGET,
) -> complex:
    """Exact configuration density by direct summation over all variable
    assignments.  Independent of the Fourier side, so it is the oracle for
    the dual-lattice routes; over budget, use density_fourier or sampling.
    An assignment holds at most 2n + 3k + 3 int64-sized entries: its flat
    and variable indices, and either their digits with the forms' indices
    in one factor, or the forms' indices, gathered complex values and
    complex product."""
    Fs, group = _as_system(F, config.size, group)
    values = np.stack([f.values for f in Fs])
    n, k = config.arity, config.size
    return mean_over_assignments(
        group.order, n, 2 * n + 3 * k + 3,
        lambda var_idx: form_products(values, _form_indices(config, group, var_idx)), budget)


def dual_constraint_solutions(
    config: ConfigSystem, group: GroupSpec, budget: int = DENSITY_BUDGET
) -> np.ndarray:
    """All dual assignments (r_1..r_k) that satisfy sum_j lambda_{j,m} r_j
    = 0 in the dual for every variable m, as an (S, k) array of flat
    dual-element indices.

    The congruences decouple across the coordinate factors of the dual.
    In Z_m they are the relations among the forms in (Z_m)^n: one
    triangular basis per factor counts and enumerates them, and its rows
    fold into the flat indices as mixed-radix digits, first factor slowest.

    S = N^k / |im Lambda^T|.  For ap3, parallelogram and every graph up to
    K5 that is at most the N^n assignments density_brute sums over; denser
    graphs have more (K6 on Z_5: 5^9 points against 5^6 assignments).

    budget bounds the int64 entries held at the peak, counted as (2k+1) S
    before anything is enumerated.  The peak holds the result, the flat
    indices of the factors before and the current factor's solutions,
    about 2kS entries at most."""
    if not group.is_finite:
        raise ValidationError("density evaluation needs a finite group")
    k, forms = config.size, config.matrix()
    tris = [triangular_basis(relation_lattice_basis(forms, make_group([m] * config.arity)))
            for m in group.moduli]
    total = math.prod(m // abs(t[j][j]) for m, t in zip(group.moduli, tris) for j in range(k))
    entries = total * (2 * k + 1)
    check_budget(entries, budget, f"dual constraint lattice has {total} points, and "
                                  f"enumerating them holds {entries} int64 entries")
    flat = np.zeros((1, k), dtype=np.int64)
    for m, tri in zip(group.moduli, tris):
        flat *= m
        flat = (flat[:, None, :] + lattice_points_mod(tri, m)).reshape(-1, k)
    return flat


def dual_density_and_gradient(
    sols: np.ndarray, spec: np.ndarray, group: GroupSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Densities t(L, f) = sum_r prod_j fhat(r_j) and their gradients with
    respect to the value tables, for a stack of real functions f given by
    their spectra: spec is (R, N), the densities (R,) and the gradients
    (R, N).  Both come from the same spectrum values gathered at the dual
    solutions.

    d fhat(r) / d f(a) = conj(chi_r(a)) / N, so a gradient is fftn(G) / N
    where G(r) sums, over forms j and solutions with r_j = r, the product
    of the other forms' spectrum values.  Prefix and suffix products along
    the form axis give these leave-one-out products for every j; one
    bincount with row offsets and one FFT per group axis finish all
    rows.  Memory is O(R*S*k): callers bound R."""
    R, N = spec.shape
    k = sols.shape[1]
    spec = spec.ravel()
    # (k, R, S) flat indices into spec; the arrays below are contiguous in
    # this layout, so each row's arithmetic does not depend on R
    idx = sols.T[:, None, :] + N * np.arange(R)[:, None]
    # loo[j] is first the product of the forms before j, then the product
    # of the forms after j is multiplied in; a form's spectrum values are
    # gathered where they are used, not held for all forms at once
    loo = np.empty(idx.shape, dtype=np.complex128)
    loo[0] = 1.0
    for j in range(1, k):
        np.multiply(loo[j - 1], spec[idx[j - 1]], out=loo[j])
    suffix = spec[idx[-1]]
    densities = np.sum(loo[-1] * suffix, axis=-1)
    for j in range(k - 2, -1, -1):
        loo[j] *= suffix
        if j:
            suffix *= spec[idx[j]]
    del suffix  # freed before the bincounts copy out their weights
    flat, loo = idx.ravel(), loo.ravel()
    G = np.bincount(flat, loo.real, R * N) + 1j * np.bincount(flat, loo.imag, R * N)
    grads = fft_rows(G.reshape(R, N), group).real / N
    return densities, grads


@refuse_overflow("the density")
def density_fourier(
    config: ConfigSystem,
    F,
    group: Optional[GroupSpec] = None,
    budget: int = DENSITY_BUDGET,
) -> complex:
    """Configuration density by character orthogonality: the sum over the
    dual constraint lattice of the product of spectrum values."""
    Fs, group = _as_system(F, config.size, group)
    specs = np.stack([spectrum_array(f) for f in Fs])
    sols = dual_constraint_solutions(config, group, budget=budget)
    return complex(np.sum(form_products(specs, sols)))


@refuse_overflow("the sampled density")
def density_monte_carlo(
    config: ConfigSystem,
    F,
    samples: int,
    seed: int = 0,
    group: Optional[GroupSpec] = None,
) -> tuple[complex, float]:
    """Unbiased sampled estimate of the density with its standard error.

    Per sample the peak holds the variables' indices (n int64 entries)
    and either their digits in one factor with the forms' flat indices and
    values in that factor (n + 2k) or the forms' flat indices, gathered
    complex values and complex product (3k + 2): at most 2n + 3k + 2
    entries whatever the group's rank, counted against DENSITY_BUDGET
    before drawing."""
    check_count(samples, "samples")
    check_seed(seed)
    Fs, group = _as_system(F, config.size, group)
    n, k = config.arity, config.size
    entries = samples * (2 * n + 3 * k + 2)
    check_budget(entries, DENSITY_BUDGET, f"{samples} samples hold {entries} int64-sized entries")
    rng = np.random.Generator(np.random.Philox(key=seed))
    var_idx = rng.integers(0, group.order, size=(samples, n))
    prod = form_products(np.stack([f.values for f in Fs]), _form_indices(config, group, var_idx))
    return complex(np.mean(prod)), float(np.std(prod) / math.sqrt(samples))


def cs_complexity_at_most_1(config: ConfigSystem) -> tuple[bool, list[bool]]:
    """Sufficient check that the configuration has complexity at most 1:
    for every form, the remaining forms admit a bipartition with neither
    class's rational span containing the excluded form.  Exact integer
    rank computations, exhaustive over all bipartitions."""
    k = config.size
    check_budget(k, 16, f"the cs complexity check of {k} forms")
    if k < 2:
        raise ValidationError("cs complexity check needs at least 2 forms")
    rows = config.matrix()
    per_form = []
    for i, target in enumerate(rows):
        others = rows[:i] + rows[i + 1:]
        # the bits of mask split the others into the classes 1 and 0
        per_form.append(any(
            all(not _in_span(target, [r for b, r in enumerate(others) if (mask >> b & 1) == side])
                for side in (1, 0))
            for mask in range(2 ** len(others))))
    return all(per_form), per_form


def _in_span(vec, vecs) -> bool:
    """vec is in the rational span of vecs iff appending it leaves the
    rank unchanged."""
    return rank(vecs, len(vec)) == rank(vecs + [vec], len(vec))
