"""Polynomial-size dynamics of emitters in the coupled |J, M> basis, and the
one generator assembly and pulse driver of every emission experiment.

The density matrix of n identical emitters under collective and local
channels stays block-diagonal over total spin J.  Blocks are stored per
multiplicity copy (the d_n(J) copies of a J block are identical by
symmetry); observables weight each block by its degeneracy.  Local emission
and dephasing couple J to J' in {J-1, J, J+1} with (n, J, M) coefficients,
checked against the full-space solver in the test suite.

An ensemble is a :class:`GroupSpace`: emitters with equal (detuning, g)
form a group, and the space is the product of the groups' block spaces
(Xu, Tieri & Holland, PRA 87, 062101 (2013)); n identical emitters are its
one-group case.  States live in real coordinates: a Hermitian vector q is
held as r = Re q + Im q (:func:`to_complex` maps back), and a complex
generator L acts on r as Re L + Im L P (:func:`real_generator`), P
transposing each block.  One cache entry of real matrices is the only
record of a space's drive-off state (:func:`_drive_off`): the map of the
complex sum of each group's :func:`block_parts` and the cross-group terms,
and its restriction to the sector where the total m - m' is zero, the only
one <J+J-> reads and one the drive-off generator keeps (for one group, the
populations).  :func:`group_generator` adds the real map of each group's
drive to it, and :func:`group_pulse`, the one pulse driver, runs the
detection window on the sector.  At delta_c = 0 the emission is even in
the detuning, so :func:`cavens.ensemble.incoherent_scurve` solves mirror
bins once.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .core import (
    CapabilityError,
    CavityParams,
    DecoherenceParams,
    ParameterError,
    PulseRun,
    check_drive,
    propagate,
    pulse_protocol,
)

#: Largest operator-space dimension: C(n+3, 3) of n identical emitters, or
#: the group space or 2^N generator of :mod:`cavens.lindblad` (8 distinct).
DIM_MAX = 4**8

BLOCK_TRACE_TOL = 1e-10
BLOCK_POSITIVITY_TOL = 1e-8


@dataclass(frozen=True, eq=False)  # eq would compare the arrays; one instance per n
class DickeBasis:
    """J blocks for n emitters: J from n/2 down to 0 or 1/2, with
    multiplicities d_n(J); sum_J d_n(J) (2J+1) = 2^n exactly.

    The block vector concatenates the per-copy blocks, each stored
    row-major, from J = n/2 downward: block k has ``dims[k]`` = 2J+1 rows
    and occupies ``offsets[k]:offsets[k + 1]``; ``order`` holds m - m' of
    every entry (0 on the populations); ``transpose`` is the permutation P
    that transposes every block."""

    n: int
    j_values: tuple[float, ...]
    degeneracies: tuple[int, ...]
    dims: tuple[int, ...]
    offsets: np.ndarray
    order: np.ndarray
    transpose: np.ndarray


def state_degeneracy(n: int, j: float) -> int:
    """Multiplicity d_n(j) = C(n, n/2 - j) - C(n, n/2 - j - 1)."""
    k = n / 2.0 - j
    if k < 0 or abs(k - round(k)) > 1e-9:
        raise ParameterError(f"invalid j={j} for n={n}")
    k = int(round(k))
    second = math.comb(n, k - 1) if k >= 1 else 0
    return math.comb(n, k) - second


@lru_cache(maxsize=None)
def dicke_basis(n: int) -> DickeBasis:
    """The block layout for n emitters (cached: callers must not mutate it)."""
    dim = math.comb(n + 3, 3)
    if n < 1 or dim > DIM_MAX:
        raise CapabilityError(f"{n} emitters: dimension {dim}, outside [4, DIM_MAX = {DIM_MAX}]")
    js = tuple(n / 2.0 - k for k in range(n // 2 + 1))
    degs = tuple(state_degeneracy(n, j) for j in js)
    dims = tuple(int(round(2 * j)) + 1 for j in js)
    assert sum(d * b for d, b in zip(degs, dims)) == 2**n
    offsets = np.cumsum([0] + [b * b for b in dims])
    order = np.concatenate([(np.arange(b) - np.arange(b)[:, None]).reshape(-1) for b in dims])
    perm = np.concatenate([lo + np.arange(b * b).reshape(b, b).T.reshape(-1)
                           for lo, b in zip(offsets[:-1], dims)])
    offsets.flags.writeable = order.flags.writeable = perm.flags.writeable = False
    return DickeBasis(n=n, j_values=js, degeneracies=degs, dims=dims, offsets=offsets,
                      order=order, transpose=perm)


def to_complex(x: np.ndarray, transpose: np.ndarray) -> np.ndarray:
    """The block vector q of real coordinates r, or the row w with
    w . r = x . q of a block-vector row x (the same map)."""
    return 0.5 * ((1 + 1j) * x + (1 - 1j) * x[transpose])


def real_generator(m: sp.csr_matrix, transpose: np.ndarray) -> sp.csr_matrix:
    """A complex generator L as it acts on the real coordinates: Re L + Im L P.
    P is an involution, so Im L P is Im L with column c renamed P[c]: the
    arrays of ``m.imag[:, transpose]``, without its index search."""
    im_p = sp.csr_matrix((m.data.imag, transpose[m.indices], m.indptr), shape=m.shape)
    return (m.real + im_p).tocsr()


@lru_cache(maxsize=None)
def spin_block(j: float) -> dict:
    """Spin-j matrices ``jz``, ``jm`` (J-), ``jp`` (J+) and the m values
    ``m``; row k holds m = j - k.  Cached: callers must not mutate them."""
    dim = int(round(2 * j)) + 1
    m = j - np.arange(dim)
    jminus = np.zeros((dim, dim))
    jminus[np.arange(1, dim), np.arange(dim - 1)] = np.sqrt((j + m[:-1]) * (j - m[:-1] + 1.0))
    return {"jz": np.diag(m), "jm": jminus, "jp": jminus.T.copy(), "m": m}


@dataclass
class DickeBlockState:
    """Per-copy block density matrices q_J (``blocks``), held as the real
    coordinates r of the block vector (``vec``); the physical (folded) weight
    of a block is d_n(J) tr(q_J), and sum_J d_n(J) tr(q_J) = 1."""

    n: int
    vec: np.ndarray

    @classmethod
    def all_ground(cls, n: int) -> "DickeBlockState":
        vec = np.zeros(int(dicke_basis(n).offsets[-1]))
        vec[dicke_basis(n).dims[0] ** 2 - 1] = 1.0  # top block, m = -n/2
        return cls(n, vec)

    @property
    def blocks(self) -> list[np.ndarray]:
        """The blocks q_J, Hermitian by construction."""
        b = dicke_basis(self.n)
        return [x.reshape(d, d) for x, d in zip(np.split(to_complex(self.vec, b.transpose),
                                                          b.offsets[1:-1]), b.dims)]

    def validate(self) -> None:
        degs, blocks = dicke_basis(self.n).degeneracies, self.blocks
        trace = sum(d * np.trace(b).real for d, b in zip(degs, blocks))
        if abs(trace - 1.0) > BLOCK_TRACE_TOL:
            raise ParameterError("degeneracy-weighted trace differs from 1")
        for b in blocks:
            if np.linalg.eigvalsh(b).min() < -BLOCK_POSITIVITY_TOL:
                raise ParameterError("block not positive within tolerance")

    def to_vec(self) -> np.ndarray:
        return self.vec.copy()

    @classmethod
    def from_vec(cls, n: int, vec: np.ndarray) -> "DickeBlockState":
        return cls(n, np.array(vec, dtype=float))

    def jm_populations(self) -> dict:
        """Folded populations per (J, M)."""
        basis = dicke_basis(self.n)
        pops = {}
        for j, deg, b in zip(basis.j_values, basis.degeneracies, self.blocks):
            for k, m in enumerate(spin_block(j)["m"]):
                pops[(j, float(m))] = deg * b[k, k].real
        return pops

    def subspace_weights(self) -> dict:
        """{'ground', 'superradiant_ladder', 'subradiant'} aggregate weights."""
        basis = dicke_basis(self.n)
        top, *rest = self.blocks
        ground = top[-1, -1].real
        ladder = np.trace(top).real - ground
        sub = sum(d * np.trace(b).real for d, b in zip(basis.degeneracies[1:], rest))
        return {"ground": float(ground), "superradiant_ladder": float(ladder),
                "subradiant": float(sub)}


class BlockLiouvillian:
    """Sparse generator on the concatenated per-copy block space.  It and
    the block wrappers below are called only by perfbench and the tests."""

    def __init__(self, n: int, matrix: sp.csr_matrix, purcell: float):
        self.n = n
        self.matrix = matrix
        self.purcell = purcell
        self.dim = matrix.shape[0]


@dataclass(frozen=True)
class BlockParts:
    """The pieces of the block generator for one (n, g, cavity,
    decoherence): L = l0 + detuning * lz + g sqrt(mu) * ld on q (complex).

    ``l0`` holds the dissipators and the exchange term, ``lz`` the J_z
    commutator and ``ld`` the commutator with -(J+ + J-) at unit drive."""

    l0: sp.csr_matrix
    lz: sp.csr_matrix
    ld: sp.csr_matrix
    purcell: float


@lru_cache(maxsize=128)
def block_parts(n: int, g: float, cavity: CavityParams,
                dec: DecoherenceParams) -> BlockParts:
    """Assemble the three generator parts for n identical emitters
    (coupling g).

    Drive and collective decay are block-local; local emission and dephasing
    move weight between neighbouring J blocks with (N, J, M) coefficients in
    the per-copy convention (folded rates scaled by d_src/d_dest).  Results
    are cached (callers must not mutate them).
    """
    basis = dicke_basis(n)
    dims, offsets = basis.dims, basis.offsets
    dim = int(offsets[-1])

    dc = cavity.delta_c
    denom = (0.5 * cavity.kappa) ** 2 + dc**2
    rate_col = cavity.kappa * g**2 / denom  # Gamma_c at delta_c = 0
    exch = dc * g**2 / denom
    y_l = dec.gamma_s
    y_d = 2.0 * dec.gamma_d  # rate of D[sz/2] matching (gamma_d/2)(sz rho sz - rho)

    # per part: row, column and value arrays of its COO triplets
    l0: tuple[list, list, list] = ([], [], [])
    lz: tuple[list, list, list] = ([], [], [])
    ld: tuple[list, list, list] = ([], [], [])

    def add_kron(part, dst: int, src: int, a: np.ndarray, b: np.ndarray,
                 coeff: complex) -> None:
        """coeff * kron(a, b) into the (dst block, src block) superop slot;
        row-major vec convention: vec(A q B^T) = kron(A, B) vec(q).  The
        triplets are those of ``sp.kron`` in its order, built in numpy."""
        (ar, ac), (br, bc) = np.nonzero(a), np.nonzero(b)
        if len(ar) and len(br):
            part[0].append((ar[:, None] * b.shape[0] + br).ravel() + offsets[dst])
            part[1].append((ac[:, None] * b.shape[1] + bc).ravel() + offsets[src])
            part[2].append((a[ar, ac][:, None] * b[br, bc]).ravel() * coeff)

    def add_commutator(part, k: int, h: np.ndarray, eye: np.ndarray) -> None:
        """-i[h, q] within block k."""
        add_kron(part, k, k, h, eye, -1j)
        add_kron(part, k, k, eye, h.T, 1j)

    def add_transfer(k: int, ks: int, rate: float, num: float, den: float, shift: float,
                     amp2) -> None:
        """K q_src K^T from block ks into block k at rate * num / den per
        copy, where K maps m + shift of block ks to m of block k with
        amplitude sqrt(amp2(m)); shift is 1 for emission, 0 for dephasing."""
        if not rate:
            return
        j_src = basis.j_values[ks]
        m = basis.j_values[k] - np.arange(dims[k])
        rows = np.flatnonzero(np.abs(m + shift) <= j_src + 1e-9)
        kmat = np.zeros((dims[k], dims[ks]))
        kmat[rows, np.round(j_src - (m[rows] + shift)).astype(int)] = np.sqrt(amp2(m[rows]))
        deg_ratio = basis.degeneracies[ks] / basis.degeneracies[k]
        add_kron(l0, k, ks, kmat, kmat, rate * num / den * deg_ratio)

    half_n = n / 2.0
    for k, j in enumerate(basis.j_values):
        blk = spin_block(j)
        jz, jm, jp, mvals = blk["jz"], blk["jm"], blk["jp"], blk["m"]
        eye = np.eye(dims[k])

        add_commutator(l0, k, exch * (jp @ jm), eye)
        add_commutator(lz, k, jz, eye)
        add_commutator(ld, k, -(jp + jm), eye)

        if rate_col:
            add_kron(l0, k, k, jm, jm, rate_col)
            jpjm = jp @ jm
            add_kron(l0, k, k, jpjm, eye, -0.5 * rate_col)
            add_kron(l0, k, k, eye, jpjm.T, -0.5 * rate_col)

        # at j = 0, jm and jz vanish and add no term
        c0 = (half_n + 1.0) / (2.0 * j * (j + 1.0)) if j > 0 else 0.0
        if y_l:
            add_kron(l0, k, k, np.diag(half_n + mvals), eye, -0.5 * y_l)
            add_kron(l0, k, k, eye, np.diag(half_n + mvals), -0.5 * y_l)
            add_kron(l0, k, k, jm, jm, y_l * c0)
        if y_d:
            add_kron(l0, k, k, eye, eye, -y_d * half_n / 2.0)
            add_kron(l0, k, k, jz, jz, y_d * c0)

        if k > 0:  # from the J+1 block
            num, den = j + 2.0 + half_n, 2.0 * (j + 1.0) * (2.0 * j + 3.0)
            add_transfer(k, k - 1, y_l, num, den, 1.0, lambda m: (j + m + 1.0) * (j + m + 2.0))
            add_transfer(k, k - 1, y_d, num, den, 0.0, lambda m: (j + 1.0 - m) * (j + 1.0 + m))
        if k + 1 < len(dims):  # from the J-1 block
            num, den = half_n - j + 1.0, 2.0 * j * (2.0 * j - 1.0)
            add_transfer(k, k + 1, y_l, num, den, 1.0, lambda m: (j - m - 1.0) * (j - m))
            add_transfer(k, k + 1, y_d, num, den, 0.0, lambda m: (j - m) * (j + m))

    def to_csr(part) -> sp.csr_matrix:
        rows, cols, vals = part
        if not rows:
            return sp.csr_matrix((dim, dim), dtype=complex)
        return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(dim, dim)).tocsr()

    return BlockParts(l0=to_csr(l0), lz=to_csr(lz), ld=to_csr(ld),
                      purcell=4.0 * g**2 / cavity.kappa)


def build_block_generator(n: int, g: float, mu: float, cavity: CavityParams,
                          dec: DecoherenceParams, detuning: float = 0.0) -> BlockLiouvillian:
    """Generator for n identical emitters (coupling g) at ``detuning``
    (emitter minus laser) on the real coordinates: :func:`group_generator`
    of their one group.  ``cavity.delta_c`` is taken as configured.  Above
    ``DIM_MAX``, :func:`dicke_basis` raises :class:`CapabilityError`.  Only
    perfbench and the tests call it."""
    space = GroupSpace(np.full(n, detuning), np.full(n, g))
    return BlockLiouvillian(n, group_generator(space, mu, cavity, dec), 4.0 * g**2 / cavity.kappa)


# The generator cache is the parts cache: its misses count the assemblies.
build_block_generator.cache_info = block_parts.cache_info  # type: ignore[attr-defined]


def block_evolve(gen: BlockLiouvillian, state: DickeBlockState,
                 times: Sequence[float]) -> list[DickeBlockState]:
    """Propagate through the time-independent block generator at the given
    times (non-decreasing, measured from the state's present).  Only
    perfbench and the tests call it."""
    return [DickeBlockState.from_vec(gen.n, v)
            for v in propagate(gen.matrix, state.to_vec(), times)]


@lru_cache(maxsize=None)
def _observable_rows(n: int) -> dict:
    """Weight vectors x with <O> = x . q, x_J = d_J vec(O_J^T), for
    O = J+J-, Jz, J-, J+, the individual excitation n/2 + Jz and the
    identity (``trace``) (cached: callers must not mutate them)."""
    basis = dicke_basis(n)
    rows = {name: np.zeros(int(basis.offsets[-1]), dtype=complex)
            for name in ("jpjm", "jz", "jm", "jp", "individual", "trace")}
    for k, (j, deg) in enumerate(zip(basis.j_values, basis.degeneracies)):
        blk = spin_block(j)
        eye = np.eye(basis.dims[k])
        ops = {"jpjm": blk["jp"] @ blk["jm"], "jz": blk["jz"], "jm": blk["jm"],
               "jp": blk["jp"], "individual": n / 2.0 * eye + blk["jz"], "trace": eye}
        for name, op in ops.items():
            rows[name][basis.offsets[k]:basis.offsets[k + 1]] = deg * op.T.reshape(-1)
    return rows


def block_observables(gen: BlockLiouvillian) -> dict:
    """Observable rows w with <O> = w . r on the real coordinates r of
    :class:`DickeBlockState`: the rows of its one group (:attr:`GroupSpace.rows`).
    Only perfbench and the tests call it."""
    return _group_rows((gen.n,))


@lru_cache(maxsize=None)
def block_ladder(n: int) -> dict:
    """The sparse block-diagonal superoperators q -> J- q (``lm``), J+ q (``lp``),
    q J- (``rm``) and q J+ (``rp``) on the block vector of n emitters, with
    vec(A q B^T) = kron(A, B) vec(q) (cached: callers must not mutate them)."""
    blocks: dict = {name: [] for name in ("lm", "lp", "rm", "rp")}
    for j in dicke_basis(n).j_values:
        blk = spin_block(j)
        eye = sp.identity(len(blk["m"]))
        for side, op in (("m", blk["jm"]), ("p", blk["jp"])):
            blocks["l" + side].append(sp.kron(op, eye))
            blocks["r" + side].append(sp.kron(eye, op.T))
    ladder = {name: sp.block_diag(mats, format="csr") for name, mats in blocks.items()}
    for m in ladder.values():
        m.eliminate_zeros()
    return ladder


# ---------------------------------------------------------------------------
# Permutation-symmetric group space
# ---------------------------------------------------------------------------


class GroupSpace:
    """Kronecker product of the block spaces (:func:`dicke_basis`) of the
    emitter groups, in the order of their first appearance.  ``transpose``
    is the product of the groups' P; a group of n sites has dimension
    C(n+3, 3), so N distinct emitters give 4^N.  A space above ``DIM_MAX``
    raises :class:`CapabilityError`.  Spaces with equal groups compare
    equal."""

    def __init__(self, deltas: np.ndarray, gs: np.ndarray):
        if not np.isfinite(deltas).all():
            raise ParameterError("detunings must be finite")
        sites: dict = {}
        for k, key in enumerate(zip(np.asarray(deltas, float).tolist(),
                                    np.asarray(gs, float).tolist())):
            sites.setdefault(key, []).append(k)
        self.n = len(gs)
        self.groups = tuple((delta, g, tuple(ks)) for (delta, g), ks in sites.items())
        self.bases = [dicke_basis(len(ks)) for _, _, ks in self.groups]
        self.dims = [int(b.offsets[-1]) for b in self.bases]
        self.dim = math.prod(self.dims)
        if self.dim > DIM_MAX:  # a parametric line of N ions gives N groups, so keep it short
            sizes = ", ".join(f"{count} of size {size}" for size, count
                              in Counter(len(ks) for _, _, ks in self.groups).items())
            dim = self.dim if self.dim < 10**15 else f"about 10^{math.log10(self.dim):.0f}"
            raise CapabilityError(f"the group space of {len(self.groups)} groups ({sizes}) has "
                                  f"dimension {dim}, above DIM_MAX = {DIM_MAX}")
        self.transpose = _product_index(lambda a, b: a * len(b) + b, [b.transpose for b in self.bases])

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupSpace) and self.groups == other.groups

    def __hash__(self) -> int:
        return hash(self.groups)

    def embed(self, ops: dict) -> sp.csr_matrix:
        """The Kronecker product of ``ops[k]`` over the groups k, with the
        identity for every group not in ``ops``."""
        return reduce(lambda a, b: sp.kron(a, b, format="csr"),
                      [ops[k] if k in ops else sp.identity(d) for k, d in enumerate(self.dims)])

    def ground(self) -> np.ndarray:
        """|g...g><g...g|: the m = -n/2 population of every group's top block."""
        return reduce(np.kron, [DickeBlockState.all_ground(len(ks)).vec for *_, ks in self.groups])

    def sector(self) -> np.ndarray:
        """The entries with sum_g (m - m') = 0, the only ones <J+J-> reads."""
        return np.flatnonzero(_product_index(np.add, [b.order for b in self.bases]) == 0)

    @property
    def rows(self) -> dict:
        """The rows w with <O> = w . r for O = J+J-, Jz, J-, J+, sum_j sp_j sm_j
        (``individual``) and the identity (``trace``) of the whole ensemble,
        real but for J- and J+ (cached: callers must not mutate them)."""
        return _group_rows(tuple(len(ks) for *_, ks in self.groups))

    def reduced(self, vec: np.ndarray) -> tuple[DickeBlockState, ...]:
        """Each group's reduced state, in ``groups`` order: the real
        coordinates with every other group's axis contracted against that
        group's (real) ``trace`` observable row."""
        x = np.asarray(vec).reshape(self.dims)
        traces = [_group_rows((len(ks),))["trace"] for _, _, ks in self.groups]
        others = [reduce(np.kron, traces[:k] + traces[k + 1:], np.ones(1)) for k in range(len(traces))]
        return tuple(DickeBlockState.from_vec(len(ks), np.moveaxis(x, k, 0).reshape(d, -1) @ rest)
                     for k, ((_, _, ks), d, rest) in enumerate(zip(self.groups, self.dims, others)))


def _product_index(combine, arrays: list) -> np.ndarray:
    """``combine`` of the per-group arrays over the product space."""
    return reduce(lambda a, b: combine(a[:, None], b).reshape(-1), arrays)


@lru_cache(maxsize=16)
def _group_rows(sizes: tuple[int, ...]) -> dict:
    obs = [_observable_rows(n) for n in sizes]
    transpose = _product_index(lambda a, b: a * len(b) + b, [dicke_basis(n).transpose for n in sizes])
    terms = {name: [{k: o[name]} for k, o in enumerate(obs)]
             for name in ("jpjm", "jz", "jm", "jp", "individual")}
    terms["jpjm"] += [{k: obs[k]["jm"], l: obs[l]["jp"]}  # <J+_l J-_k>
                      for k, l in itertools.permutations(range(len(obs)), 2)]
    terms["trace"] = [{}]
    rows = {}
    for name, products in terms.items():  # a group a product leaves out enters by its trace
        x = sum(reduce(np.kron, [t.get(k, o["trace"]) for k, o in enumerate(obs)]) for t in products)
        w = to_complex(x, transpose)
        # contiguous, so that dot products sum in the same order for every row
        rows[name] = w if name in ("jm", "jp") else np.ascontiguousarray(w.real)
    return rows


def group_generator(space: GroupSpace, mu: float, cavity: CavityParams,
                    dec: DecoherenceParams) -> sp.csr_matrix:
    """The adiabatically eliminated generator on ``space`` at drive mu, on the
    real coordinates: the cached drive-off generator (:func:`_drive_off`; at
    mu = 0 that matrix itself, which callers must not mutate) plus, for each
    group k, :func:`real_generator` of g_k sqrt(mu) ld_k from
    :func:`block_parts`.  Every ld is imaginary and shares no entry with an
    imaginary entry of the drive-off sum, which are diagonal or change two
    groups, so this is the real map of the whole complex sum, bit for bit.
    Raises :class:`ParameterError` for a negative or non-finite mu."""
    check_drive(mu)
    gen_off = _drive_off(space, cavity, dec)[0]
    if not mu:
        return gen_off
    return gen_off + reduce(operator.add, (
        real_generator(space.embed({k: (g * math.sqrt(mu)) * block_parts(len(ks), g, cavity, dec).ld}),
                       space.transpose)
        for k, (_, g, ks) in enumerate(space.groups)))


# One entry: a power sweep drives one space many times in a row.
@lru_cache(maxsize=1)
def _drive_off(space: GroupSpace, cavity: CavityParams,
               dec: DecoherenceParams) -> tuple[sp.csr_matrix, np.ndarray, sp.csr_matrix]:
    """The drive-off generator of ``space`` on the real coordinates, its
    sector (:meth:`GroupSpace.sector`) and the generator restricted to the
    sector, where the detection window runs (cached, all real: callers must
    not mutate them).  The complex sum is mapped once and not kept.  Each
    group's terms are its :func:`block_parts`, l0 + detuning * lz.  With
    Jg- = sum_k g_k J-_k, the cross-group parts of (kappa / denom) D[Jg-]
    - i (Delta_c / denom) [Jg+ Jg-, .] are, for each ordered pair k != l,
    g_k g_l times (kappa / denom) (L(J-_k) R(J+_l) - L(J+_l) L(J-_k) / 2
    - R(J-_k) R(J+_l) / 2) - i (Delta_c / denom) (L(J+_l) L(J-_k)
    - R(J-_k) R(J+_l)), with L(A) q = A q and R(A) q = q A
    (:func:`block_ladder`)."""
    def terms():  # made one at a time, so that only the running sum is held
        for k, (delta, g, ks) in enumerate(space.groups):
            parts = block_parts(len(ks), g, cavity, dec)
            yield space.embed({k: parts.l0 + delta * parts.lz if delta else parts.l0})
        denom = (0.5 * cavity.kappa) ** 2 + cavity.delta_c**2
        rate, exch = cavity.kappa / denom, cavity.delta_c / denom
        for k, l in itertools.permutations(range(len(space.groups)), 2):
            (_, g_k, ks), (_, g_l, ls) = space.groups[k], space.groups[l]
            lm, rm = block_ladder(len(ks))["lm"], block_ladder(len(ks))["rm"]
            lp, rp = block_ladder(len(ls))["lp"], block_ladder(len(ls))["rp"]
            yield g_k * g_l * (space.embed({k: lm, l: rate * rp - (0.5 * rate + 1j * exch) * lp})
                               + space.embed({k: rm, l: (1j * exch - 0.5 * rate) * rp}))

    gen = real_generator(reduce(operator.add, terms()), space.transpose)
    sector = space.sector()
    return gen, sector, gen[sector][:, sector]


def group_pulse(space: GroupSpace, mu: float, cavity: CavityParams, dec: DecoherenceParams,
                pulse_length: float, purcell: float, observe_times: Sequence[float] = (),
                compute_counts: bool = True) -> PulseRun:
    """The one pulse driver: :func:`cavens.core.pulse_protocol` from the
    ground state of ``space``, under :func:`group_generator` at mu, then
    with the drive off, whose detection window runs on the cached sector
    (:meth:`GroupSpace.sector`) and window of :func:`_drive_off`.  Gamma_c
    is ``purcell``."""
    gen_on = group_generator(space, mu, cavity, dec)
    gen_off, sector, window = _drive_off(space, cavity, dec)
    return pulse_protocol(gen_on, gen_off, space.ground(), pulse_length, space.rows["jpjm"],
                          purcell, observe_times, compute_counts, off_window=(sector, window))


@dataclass(frozen=True)
class BlockPulseResult:
    peak_instant: float
    peak_counts: float
    weights: dict
    state_end: DickeBlockState


def pulsed_block_emission(n: int, g: float, mu: float, cavity: CavityParams,
                          dec: DecoherenceParams, pulse_length: float,
                          detuning: float = 0.0,
                          compute_counts: bool = True) -> BlockPulseResult:
    """Drive n identical emitters at ``detuning`` (emitter minus laser) from
    the ground state for ``pulse_length``; report Gamma_c <J+J-> at pulse
    end (instant) and its integral over the detection window after
    switch-off (counts; skipped when ``compute_counts`` is false).  This is
    :func:`group_pulse` on their one group."""
    run = group_pulse(GroupSpace(np.full(n, detuning), np.full(n, g)), mu, cavity, dec,
                      pulse_length, 4.0 * g**2 / cavity.kappa, compute_counts=compute_counts)
    q_end = DickeBlockState.from_vec(n, run.end)
    return BlockPulseResult(peak_instant=run.peak_instant, peak_counts=run.peak_counts,
                            weights=q_end.subspace_weights(), state_end=q_end)


# ---------------------------------------------------------------------------
# Rate map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateEntry:
    j_from: float
    m_from: float
    j_to: float
    m_to: float
    rate: float
    channel: str


@dataclass(frozen=True)
class RateMap:
    n: int
    entries: tuple[RateEntry, ...]
    dark_states: tuple[tuple[float, float], ...]

    def out_rates(self, j: float, m: float, channel: Optional[str] = None) -> float:
        return sum(e.rate for e in self.entries
                   if e.j_from == j and e.m_from == m
                   and (channel is None or e.channel == channel))

    def to_rows(self) -> list[tuple]:
        """CSV rows (J_from, M_from, J_to, M_to, rate_hz, channel)."""
        return [(e.j_from, e.m_from, e.j_to, e.m_to, e.rate / (2.0 * math.pi), e.channel)
                for e in self.entries]


RATE_MAP_N_MAX = 12


def rate_map(n: int, gamma_c: float, gamma_s: float, gamma_d: float) -> RateMap:
    """Population-transfer rates between |J, M> levels (folded convention:
    the rates move observable population between the aggregated levels).

    Channels: collective (J, M) -> (J, M-1); emission (J, M) -> (J', M-1)
    with J' in {J-1, J, J+1}; dephasing (J, M) -> (J +/- 1, M).  States
    (J, -J) with J < N/2 have zero collective out-rate (dark states).
    """
    if n > RATE_MAP_N_MAX:
        raise CapabilityError(f"exhaustive rate map limited to {RATE_MAP_N_MAX} emitters")
    basis = dicke_basis(n)
    half_n = n / 2.0
    y_d = 2.0 * gamma_d
    entries: list[RateEntry] = []
    have = set(basis.j_values)
    for j in basis.j_values:
        for m in map(float, spin_block(j)["m"]):
            r = gamma_c * (j + m) * (j - m + 1.0)
            if r > 0:
                entries.append(RateEntry(j, m, j, m - 1.0, r, "collective"))
            if gamma_s > 0:
                if j > 0 and m > -j:
                    r = gamma_s * (half_n + 1.0) * (j - m + 1.0) * (j + m) / (2.0 * j * (j + 1.0))
                    if r > 0:
                        entries.append(RateEntry(j, m, j, m - 1.0, r, "emission"))
                if (j - 1.0) in have and j + m >= 2.0 - 1e-9:
                    r = gamma_s * (j + m - 1.0) * (j + m) * (j + 1.0 + half_n) / (2.0 * j * (2.0 * j + 1.0))
                    if r > 0:
                        entries.append(RateEntry(j, m, j - 1.0, m - 1.0, r, "emission"))
                if (j + 1.0) in have:
                    r = gamma_s * (j - m + 1.0) * (j - m + 2.0) * (half_n - j) / (2.0 * (j + 1.0) * (2.0 * j + 1.0))
                    if r > 0:
                        entries.append(RateEntry(j, m, j + 1.0, m - 1.0, r, "emission"))
            if y_d > 0:
                if (j - 1.0) in have and abs(m) <= j - 1.0 + 1e-9 and j > 0:
                    r = y_d * (j - m) * (j + m) * (j + 1.0 + half_n) / (2.0 * j * (2.0 * j + 1.0))
                    if r > 0:
                        entries.append(RateEntry(j, m, j - 1.0, m, r, "dephasing"))
                if (j + 1.0) in have:
                    r = y_d * (j - m + 1.0) * (j + m + 1.0) * (half_n - j) / (2.0 * (j + 1.0) * (2.0 * j + 1.0))
                    if r > 0:
                        entries.append(RateEntry(j, m, j + 1.0, m, r, "dephasing"))
    dark = tuple((j, -j) for j in basis.j_values if j < half_n)
    return RateMap(n=n, entries=tuple(entries), dark_states=dark)


__all__ = [
    "DIM_MAX",
    "CapabilityError",
    "DickeBasis",
    "state_degeneracy",
    "dicke_basis",
    "to_complex",
    "real_generator",
    "spin_block",
    "DickeBlockState",
    "BlockLiouvillian",
    "BlockParts",
    "block_parts",
    "build_block_generator",
    "block_evolve",
    "block_observables",
    "block_ladder",
    "GroupSpace",
    "group_generator",
    "group_pulse",
    "BlockPulseResult",
    "pulsed_block_emission",
    "RateEntry",
    "RateMap",
    "rate_map",
]
