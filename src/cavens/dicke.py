"""Polynomial-size dynamics of identical emitters in the coupled |J, M> basis.

The density matrix of N identical emitters evolving under collective and
local (single-emitter) channels stays block-diagonal over total spin J.
Blocks are stored per multiplicity copy (the d_N(J) copies of a J block are
identical by symmetry); observables weight each block by its degeneracy.

Collective channels (drive, exchange, collective decay) act within a block
with the standard spin-J matrix elements.  Local emission and dephasing
couple J to J' in {J-1, J, J+1} with coefficient functions of (N, J, M)
that factorize into per-side amplitudes; the complete coefficient table is
hard-verified against the full-space solver for N = 2..6 in the test suite
(the load-bearing oracle-equivalence check).

The generator is affine in the emitter-minus-laser detuning and in the drive
amplitude g sqrt(mu), so :func:`block_parts` assembles three sparse parts
once per (n, g, cavity, decoherence) and caches them; the observable rows
depend on n alone and are cached per n.  :func:`build_block_generator` only
sums the parts.  ``cavity.delta_c`` is taken as configured.  With the drive
off, every term keeps m - m' fixed, so the populations (m = m') form an
invariant sector on which <J+J-> lives: the detection window after a pulse
runs on the population rate matrix of dimension sum_J (2J+1), which depends
on neither detuning.  At delta_c = 0 the emission is even in the detuning,
which lets :func:`cavens.ensemble.incoherent_scurve` solve mirror bins once.

:func:`pulsed_block_emission` is the one pulse driver of the block
experiments: the S-curve runners call it once per power (and bin), and
``dicke-populations`` and ``beat-note`` start from its pulse-end state.
The emitter-group space of :mod:`cavens.lindblad` is the product of these
block spaces, one per group, built from :func:`block_parts` and, for the
collective terms between groups, :func:`block_ladder`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .core import (
    CapabilityError,
    CavityParams,
    DecoherenceParams,
    ParameterError,
    propagate,
    pulse_protocol,
)

BASIS_N_MAX = 64

BLOCK_TRACE_TOL = 1e-10
BLOCK_POSITIVITY_TOL = 1e-8


@dataclass(frozen=True, eq=False)  # eq would compare the arrays; one instance per n
class DickeBasis:
    """J blocks for n emitters: J from n/2 down to 0 or 1/2, with
    multiplicities d_n(J); sum_J d_n(J) (2J+1) = 2^n exactly.

    The block vector concatenates the per-copy blocks, each stored
    row-major, from J = n/2 downward: block k has ``dims[k]`` = 2J+1 rows
    and occupies ``offsets[k]:offsets[k + 1]``; ``populations`` indexes its
    m = m' entries."""

    n: int
    j_values: tuple[float, ...]
    degeneracies: tuple[int, ...]
    dims: tuple[int, ...]
    offsets: np.ndarray
    populations: np.ndarray


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
    if not (1 <= n <= BASIS_N_MAX):
        raise CapabilityError(f"emitter count must be in [1, {BASIS_N_MAX}], got {n}")
    js = tuple(n / 2.0 - k for k in range(n // 2 + 1))
    degs = tuple(state_degeneracy(n, j) for j in js)
    dims = tuple(int(round(2 * j)) + 1 for j in js)
    assert sum(d * b for d, b in zip(degs, dims)) == 2**n
    offsets = np.cumsum([0] + [b * b for b in dims])
    pops = np.concatenate([off + np.arange(b) * (b + 1) for off, b in zip(offsets[:-1], dims)])
    offsets.flags.writeable = pops.flags.writeable = False
    return DickeBasis(n=n, j_values=js, degeneracies=degs, dims=dims, offsets=offsets,
                      populations=pops)


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
    """Per-copy block density matrices q_J; the physical (folded) weight of a
    block is d_n(J) tr(q_J), and sum_J d_n(J) tr(q_J) = 1."""

    n: int
    blocks: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def all_ground(cls, n: int) -> "DickeBlockState":
        blocks = [np.zeros((d, d), dtype=complex) for d in dicke_basis(n).dims]
        blocks[0][-1, -1] = 1.0  # top block, m = -n/2
        return cls(n=n, blocks=blocks)

    def validate(self) -> None:
        degs = dicke_basis(self.n).degeneracies
        trace = sum(d * np.trace(b).real for d, b in zip(degs, self.blocks))
        if abs(trace - 1.0) > BLOCK_TRACE_TOL:
            raise ParameterError("degeneracy-weighted trace differs from 1")
        for b in self.blocks:
            if np.max(np.abs(b - b.conj().T)) > 1e-9:
                raise ParameterError("block not Hermitian")
            if np.linalg.eigvalsh(0.5 * (b + b.conj().T)).min() < -BLOCK_POSITIVITY_TOL:
                raise ParameterError("block not positive within tolerance")

    def to_vec(self) -> np.ndarray:
        return np.concatenate([b.reshape(-1) for b in self.blocks])

    @classmethod
    def from_vec(cls, n: int, vec: np.ndarray) -> "DickeBlockState":
        basis = dicke_basis(n)
        return cls(n=n, blocks=[vec[lo:hi].reshape(d, d).copy() for lo, hi, d
                                in zip(basis.offsets[:-1], basis.offsets[1:], basis.dims)])

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
        top = self.blocks[0]
        ground = top[-1, -1].real
        ladder = np.trace(top).real - ground
        sub = sum(d * np.trace(b).real
                  for d, b in zip(basis.degeneracies[1:], self.blocks[1:]))
        return {"ground": float(ground), "superradiant_ladder": float(ladder),
                "subradiant": float(sub)}


class BlockLiouvillian:
    """Sparse generator on the concatenated per-copy block space."""

    def __init__(self, n: int, matrix: sp.csr_matrix, purcell: float):
        self.n = n
        self.matrix = matrix
        self.purcell = purcell
        self.dim = matrix.shape[0]


@dataclass(frozen=True)
class BlockParts:
    """The pieces of the block generator for one (n, g, cavity,
    decoherence): L = l0 + detuning * lz + g sqrt(mu) * ld.

    ``l0`` holds the dissipators and the exchange term, ``lz`` the J_z
    commutator and ``ld`` the commutator with -(J+ + J-) at unit drive.
    ``window`` is ``l0`` restricted to the ``populations`` (the m = m'
    entries of every block): with the drive off, no entry couples
    populations and coherences and the population block depends on neither
    detuning, so the detection window runs on this rate matrix.
    ``observables`` holds the :func:`block_observables` rows.
    """

    l0: sp.csr_matrix
    lz: sp.csr_matrix
    ld: sp.csr_matrix
    purcell: float
    populations: np.ndarray
    window: sp.csr_matrix
    observables: dict


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

    mat0 = to_csr(l0)
    pops = basis.populations
    return BlockParts(l0=mat0, lz=to_csr(lz), ld=to_csr(ld), purcell=4.0 * g**2 / cavity.kappa,
                      populations=pops, window=mat0[pops][:, pops].tocsr(),
                      observables=_observable_rows(n))


def build_block_generator(n: int, g: float, mu: float, cavity: CavityParams,
                          dec: DecoherenceParams, detuning: float = 0.0) -> BlockLiouvillian:
    """Generator for n identical emitters (coupling g) at ``detuning``
    (emitter minus laser), summed from the cached :func:`block_parts`:
    l0 + detuning * lz + g sqrt(mu) * ld.  ``cavity.delta_c`` is taken as
    configured.  Beyond ``BASIS_N_MAX`` emitters, :func:`dicke_basis` raises
    :class:`CapabilityError`."""
    if not (mu >= 0 and math.isfinite(mu)):
        raise ParameterError(f"mu must be finite and >= 0, got {mu}")
    if not math.isfinite(detuning):
        raise ParameterError(f"detuning must be finite, got {detuning}")
    parts = block_parts(n, g, cavity, dec)
    mat = parts.l0
    if detuning:
        mat = mat + detuning * parts.lz
    if mu:
        mat = mat + (g * math.sqrt(mu)) * parts.ld
    return BlockLiouvillian(n, mat, purcell=parts.purcell)


# The generator cache is the parts cache: its misses count the assemblies.
build_block_generator.cache_info = block_parts.cache_info  # type: ignore[attr-defined]


def block_evolve(gen: BlockLiouvillian, state: DickeBlockState,
                 times: Sequence[float]) -> list[DickeBlockState]:
    """Propagate through the time-independent block generator at the given
    times (non-decreasing, measured from the state's present)."""
    return [DickeBlockState.from_vec(gen.n, v)
            for v in propagate(gen.matrix, state.to_vec(), times)]


@lru_cache(maxsize=None)
def _observable_rows(n: int) -> dict:
    """Weight vectors w with <O> = w . vec(q), w_J = d_J vec(O_J^T), for
    O = J+J-, Jz, J-, J+, the individual excitation n/2 + Jz and the
    identity (``trace``) (cached per n: callers must not mutate them)."""
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
    """Observable weight vectors (see :func:`_observable_rows`)."""
    return _observable_rows(gen.n)


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
# Pulsed protocol
# ---------------------------------------------------------------------------

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
    switch-off (counts; skipped when ``compute_counts`` is false).  The
    window runs on the population rate matrix of :class:`BlockParts`.  See
    :func:`cavens.core.pulse_protocol`."""
    gen_on = build_block_generator(n, g, mu, cavity, dec, detuning=detuning)
    parts = block_parts(n, g, cavity, dec)
    run = pulse_protocol(gen_on.matrix, parts.window,
                         DickeBlockState.all_ground(n).to_vec(), pulse_length,
                         parts.observables["jpjm"], gen_on.purcell,
                         compute_counts=compute_counts, off_sector=parts.populations)
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
    "BASIS_N_MAX",
    "CapabilityError",
    "DickeBasis",
    "state_degeneracy",
    "dicke_basis",
    "spin_block",
    "DickeBlockState",
    "BlockLiouvillian",
    "BlockParts",
    "block_parts",
    "build_block_generator",
    "block_evolve",
    "block_observables",
    "block_ladder",
    "BlockPulseResult",
    "pulsed_block_emission",
    "RateEntry",
    "RateMap",
    "rate_map",
]
