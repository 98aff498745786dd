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
once per (n, g, cavity, decoherence) and caches them with the observable
rows; :func:`build_block_generator` only sums them.  ``cavity.delta_c`` is
taken as configured.  With the drive off, every term keeps m - m' fixed, so
the populations (m = m') form an invariant sector on which <J+J-> lives:
the detection window after a pulse runs on the population rate matrix of
dimension sum_J (2J+1), which depends on neither detuning.  At delta_c = 0
the emission is even in the detuning, which lets
:func:`cavens.ensemble.incoherent_scurve` solve mirror bins once.
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
    SystemModel,
    mu_from_power,
    propagate,
    pulse_protocol,
)

BASIS_N_MAX = 64

BLOCK_TRACE_TOL = 1e-10
BLOCK_POSITIVITY_TOL = 1e-8


@dataclass(frozen=True)
class DickeBasis:
    """J blocks for n emitters: J from n/2 down to 0 or 1/2, with
    multiplicities d_n(J); sum_J d_n(J) (2J+1) = 2^n exactly."""

    n: int
    j_values: tuple[float, ...]
    degeneracies: tuple[int, ...]

    def block_dims(self) -> tuple[int, ...]:
        return tuple(int(round(2 * j)) + 1 for j in self.j_values)


def state_degeneracy(n: int, j: float) -> int:
    """Multiplicity d_n(j) = C(n, n/2 - j) - C(n, n/2 - j - 1)."""
    k = n / 2.0 - j
    if k < 0 or abs(k - round(k)) > 1e-9:
        raise ParameterError(f"invalid j={j} for n={n}")
    k = int(round(k))
    second = math.comb(n, k - 1) if k >= 1 else 0
    return math.comb(n, k) - second


def dicke_basis(n: int) -> DickeBasis:
    if not (1 <= n <= BASIS_N_MAX):
        raise CapabilityError(f"emitter count must be in [1, {BASIS_N_MAX}], got {n}")
    j_top = n / 2.0
    js = []
    j = j_top
    while j >= -1e-9:
        js.append(round(j * 2) / 2)
        j -= 1.0
    js = [j for j in js if j >= 0]
    degs = tuple(state_degeneracy(n, j) for j in js)
    assert sum(d * (int(round(2 * j)) + 1) for j, d in zip(js, degs)) == 2**n
    return DickeBasis(n=n, j_values=tuple(js), degeneracies=degs)


def _spin_matrices(j: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Jz, J-, J+) for one block; row k holds m = j - k."""
    dim = int(round(2 * j)) + 1
    m = j - np.arange(dim)
    jz = np.diag(m)
    amp = np.sqrt((j + m[:-1]) * (j - m[:-1] + 1.0))  # J-|j,m_k> for k=0..dim-2
    jminus = np.zeros((dim, dim))
    jminus[np.arange(1, dim), np.arange(dim - 1)] = amp
    return jz, jminus, jminus.T.copy()


def spin_block(j: float) -> dict:
    jz, jminus, jplus = _spin_matrices(j)
    return {"jz": jz, "jm": jminus, "jp": jplus, "m": j - np.arange(int(round(2 * j)) + 1)}


@dataclass
class DickeBlockState:
    """Per-copy block density matrices q_J; the physical (folded) weight of a
    block is d_n(J) tr(q_J), and sum_J d_n(J) tr(q_J) = 1."""

    n: int
    blocks: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def all_ground(cls, n: int) -> "DickeBlockState":
        basis = dicke_basis(n)
        blocks = [np.zeros((d, d), dtype=complex) for d in basis.block_dims()]
        blocks[0][-1, -1] = 1.0  # top block, m = -n/2
        return cls(n=n, blocks=blocks)

    def weighted_trace(self) -> float:
        basis = dicke_basis(self.n)
        return float(sum(d * np.trace(b).real for d, b in zip(basis.degeneracies, self.blocks)))

    def validate(self, trace_tol: float = BLOCK_TRACE_TOL,
                 positivity_tol: float = BLOCK_POSITIVITY_TOL) -> None:
        if abs(self.weighted_trace() - 1.0) > trace_tol:
            raise ParameterError("degeneracy-weighted trace differs from 1")
        for b in self.blocks:
            if np.max(np.abs(b - b.conj().T)) > 1e-9:
                raise ParameterError("block not Hermitian")
            if np.linalg.eigvalsh(0.5 * (b + b.conj().T)).min() < -positivity_tol:
                raise ParameterError("block not positive within tolerance")

    def to_vec(self) -> np.ndarray:
        return np.concatenate([b.reshape(-1) for b in self.blocks])

    @classmethod
    def from_vec(cls, n: int, vec: np.ndarray) -> "DickeBlockState":
        basis = dicke_basis(n)
        blocks = []
        off = 0
        for d in basis.block_dims():
            blocks.append(vec[off:off + d * d].reshape(d, d).copy())
            off += d * d
        return cls(n=n, blocks=blocks)

    def jm_populations(self) -> dict:
        """Folded populations per (J, M)."""
        basis = dicke_basis(self.n)
        pops = {}
        for j, deg, b in zip(basis.j_values, basis.degeneracies, self.blocks):
            ms = j - np.arange(b.shape[0])
            for k, m in enumerate(ms):
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
        self.basis = dicke_basis(n)
        self.matrix = matrix
        self.purcell = purcell
        dims = self.basis.block_dims()
        self.dim = sum(d * d for d in dims)
        self._offsets = np.cumsum([0] + [d * d for d in dims])

    def observable_vector(self, per_block_ops: Sequence[np.ndarray]) -> np.ndarray:
        """Weight vector w with <O> = w . vec(q): w_J = d_J vec(O_J^T)."""
        w = np.zeros(self.dim, dtype=complex)
        for k, (deg, op) in enumerate(zip(self.basis.degeneracies, per_block_ops)):
            w[self._offsets[k]:self._offsets[k + 1]] = deg * op.T.reshape(-1)
        return w


def _block_index(basis: DickeBasis) -> dict:
    return {j: k for k, j in enumerate(basis.j_values)}


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
    dims = basis.block_dims()
    offsets = np.cumsum([0] + [d * d for d in dims])
    dim = int(offsets[-1])
    idx_of = _block_index(basis)

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
        row-major vec convention: vec(A q B^T) = kron(A, B) vec(q)."""
        term = sp.kron(sp.csr_matrix(a), sp.csr_matrix(b), format="coo") * coeff
        if term.nnz:
            part[0].append(term.row + offsets[dst])
            part[1].append(term.col + offsets[src])
            part[2].append(term.data)

    def add_commutator(part, k: int, h: np.ndarray, eye: np.ndarray) -> None:
        """-i[h, q] within block k."""
        add_kron(part, k, k, h, eye, -1j)
        add_kron(part, k, k, eye, h.T, 1j)

    half_n = n / 2.0
    for k, j in enumerate(basis.j_values):
        blk = spin_block(j)
        jz, jm, jp, mvals = blk["jz"], blk["jm"], blk["jp"], blk["m"]
        b = dims[k]
        eye = np.eye(b)

        add_commutator(l0, k, exch * (jp @ jm), eye)
        add_commutator(lz, k, jz, eye)
        add_commutator(ld, k, -(jp + jm), eye)

        if rate_col:
            add_kron(l0, k, k, jm, jm, rate_col)
            jpjm = jp @ jm
            add_kron(l0, k, k, jpjm, eye, -0.5 * rate_col)
            add_kron(l0, k, k, eye, jpjm.T, -0.5 * rate_col)

        if y_l:
            add_kron(l0, k, k, np.diag(half_n + mvals), eye, -0.5 * y_l)
            add_kron(l0, k, k, eye, np.diag(half_n + mvals), -0.5 * y_l)
            if j > 0:
                e0 = (half_n + 1.0) / (2.0 * j * (j + 1.0))
                add_kron(l0, k, k, jm, jm, y_l * e0)
        if y_d:
            add_kron(l0, k, k, eye, eye, -y_d * half_n / 2.0)
            if j > 0:
                d0 = (half_n + 1.0) / (2.0 * j * (j + 1.0))
                add_kron(l0, k, k, jz, jz, y_d * d0)

        # transfers from the j+1 block (if present)
        j_src = j + 1.0
        if j_src in idx_of and (y_l or y_d):
            ks = idx_of[j_src]
            deg_ratio = basis.degeneracies[ks] / basis.degeneracies[k]
            b_src = dims[ks]
            m_dst = j - np.arange(b)
            if y_l:
                amp = np.sqrt((j + m_dst + 1.0) * (j + m_dst + 2.0))
                kmat = np.zeros((b, b_src))
                src_col = np.round(j_src - (m_dst + 1.0)).astype(int)
                kmat[np.arange(b), src_col] = amp
                c3 = y_l * (j + 2.0 + half_n) / (2.0 * (j + 1.0) * (2.0 * j + 3.0))
                add_kron(l0, k, ks, kmat, kmat, c3 * deg_ratio)
            if y_d:
                amp = np.sqrt((j_src - m_dst) * (j_src + m_dst))
                kmat = np.zeros((b, b_src))
                src_col = np.round(j_src - m_dst).astype(int)
                kmat[np.arange(b), src_col] = amp
                c5 = y_d * (j + 2.0 + half_n) / (2.0 * (j + 1.0) * (2.0 * j + 3.0))
                add_kron(l0, k, ks, kmat, kmat, c5 * deg_ratio)

        # transfers from the j-1 block (if present)
        j_src = j - 1.0
        if j_src in idx_of and j >= 1.0 and (y_l or y_d):
            ks = idx_of[j_src]
            deg_ratio = basis.degeneracies[ks] / basis.degeneracies[k]
            b_src = dims[ks]
            m_dst = j - np.arange(b)
            if y_l:
                amp = np.sqrt(np.clip((j - m_dst - 1.0) * (j - m_dst), 0.0, None))
                valid = (m_dst + 1.0 <= j_src + 1e-9) & (m_dst + 1.0 >= -j_src - 1e-9)
                kmat = np.zeros((b, b_src))
                rows_i = np.where(valid)[0]
                src_col = np.round(j_src - (m_dst[rows_i] + 1.0)).astype(int)
                kmat[rows_i, src_col] = amp[rows_i]
                c4 = y_l * (half_n - j + 1.0) / (2.0 * j * (2.0 * j - 1.0))
                add_kron(l0, k, ks, kmat, kmat, c4 * deg_ratio)
            if y_d:
                amp = np.sqrt(np.clip((j - m_dst) * (j + m_dst), 0.0, None))
                valid = np.abs(m_dst) <= j_src + 1e-9
                kmat = np.zeros((b, b_src))
                rows_i = np.where(valid)[0]
                src_col = np.round(j_src - m_dst[rows_i]).astype(int)
                kmat[rows_i, src_col] = amp[rows_i]
                c6 = y_d * (half_n - j + 1.0) / (2.0 * j * (2.0 * j - 1.0))
                add_kron(l0, k, ks, kmat, kmat, c6 * deg_ratio)

    def to_csr(part) -> sp.csr_matrix:
        rows, cols, vals = part
        if not rows:
            return sp.csr_matrix((dim, dim), dtype=complex)
        return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(dim, dim)).tocsr()

    mat0 = to_csr(l0)
    pops = np.concatenate([off + np.arange(d) * (d + 1) for off, d in zip(offsets[:-1], dims)])
    purcell = 4.0 * g**2 / cavity.kappa
    return BlockParts(l0=mat0, lz=to_csr(lz), ld=to_csr(ld), purcell=purcell,
                      populations=pops, window=mat0[pops][:, pops].tocsr(),
                      observables=block_observables(BlockLiouvillian(n, mat0, purcell)))


def build_block_generator(n: int, g: float, mu: float, cavity: CavityParams,
                          dec: DecoherenceParams, detuning: float = 0.0,
                          n_max: int = BASIS_N_MAX) -> BlockLiouvillian:
    """Generator for n identical emitters (coupling g) at ``detuning``
    (emitter minus laser), summed from the cached :func:`block_parts`:
    l0 + detuning * lz + g sqrt(mu) * ld.  ``cavity.delta_c`` is taken as
    configured."""
    if n > n_max:
        raise CapabilityError(f"block solver limited to {n_max} emitters, got {n}")
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


def block_observables(gen: BlockLiouvillian) -> dict:
    """Observable weight vectors: <J+J->, <Jz>, <J->, individual excitation."""
    basis = gen.basis
    jpjm, jz, jm, ind = [], [], [], []
    for j in basis.j_values:
        blk = spin_block(j)
        jpjm.append(blk["jp"] @ blk["jm"])
        jz.append(blk["jz"])
        jm.append(blk["jm"])
        ind.append(gen.n / 2.0 * np.eye(blk["jz"].shape[0]) + blk["jz"])
    return {
        "jpjm": gen.observable_vector(jpjm),
        "jz": gen.observable_vector(jz),
        "jm": gen.observable_vector(jm),
        "individual": gen.observable_vector(ind),
    }


# ---------------------------------------------------------------------------
# Pulsed protocol and S-curves
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


@dataclass(frozen=True)
class SCurveResult:
    powers: np.ndarray
    mu: np.ndarray
    peaks: np.ndarray
    peak_instants: np.ndarray
    ground: np.ndarray
    superradiant_ladder: np.ndarray
    subradiant: np.ndarray


def scurve(n: int, power_grid: Sequence[float], pulse_length: float, model: SystemModel,
           *, detuning: float = 0.0, peak_mode: str = "counts",
           power_scale: float = 1.0) -> SCurveResult:
    """Peak emission against drive power for n identical emitters, plus the
    Dicke-subspace split at pulse end.  ``power_grid`` is in watts; the
    ensemble's (single) coupling sets g.

    ``peak_mode``: "counts" integrates the 128 ns detection window (default),
    "instant" reports Gamma_c <J+J-> right at pulse end.
    """
    if peak_mode not in ("counts", "instant"):
        raise ParameterError("peak_mode must be 'counts' or 'instant'")
    g = model.ensemble.g if model.ensemble.g is not None else float(model.ensemble.couplings()[0])
    powers = np.asarray(power_grid, dtype=float)
    mus = np.array([mu_from_power(power_scale * p, model.cavity) for p in powers])
    peaks = np.empty(len(powers))
    instants = np.empty(len(powers))
    grounds = np.empty(len(powers))
    ladders = np.empty(len(powers))
    subs = np.empty(len(powers))
    for i, mu in enumerate(mus):
        res = pulsed_block_emission(n, g, mu, model.cavity, model.decoherence,
                                    pulse_length, detuning=detuning,
                                    compute_counts=peak_mode == "counts")
        peaks[i] = res.peak_counts if peak_mode == "counts" else res.peak_instant
        instants[i] = res.peak_instant
        grounds[i] = res.weights["ground"]
        ladders[i] = res.weights["superradiant_ladder"]
        subs[i] = res.weights["subradiant"]
    return SCurveResult(powers=powers, mu=mus, peaks=peaks, peak_instants=instants,
                        ground=grounds, superradiant_ladder=ladders, subradiant=subs)


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


def rate_map(n: int, gamma_c: float, gamma_s: float, gamma_d: float,
             n_max: int = RATE_MAP_N_MAX) -> RateMap:
    """Population-transfer rates between |J, M> levels (folded convention:
    the rates move observable population between the aggregated levels).

    Channels: collective (J, M) -> (J, M-1); emission (J, M) -> (J', M-1)
    with J' in {J-1, J, J+1}; dephasing (J, M) -> (J +/- 1, M).  States
    (J, -J) with J < N/2 have zero collective out-rate (dark states).
    """
    if n > n_max:
        raise CapabilityError(f"exhaustive rate map limited to {n_max} emitters")
    basis = dicke_basis(n)
    half_n = n / 2.0
    y_d = 2.0 * gamma_d
    entries: list[RateEntry] = []
    have = set(basis.j_values)
    for j in basis.j_values:
        for m in (j - np.arange(int(round(2 * j)) + 1)):
            m = float(m)
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
    "BlockPulseResult",
    "pulsed_block_emission",
    "SCurveResult",
    "scurve",
    "RateEntry",
    "RateMap",
    "rate_map",
]
