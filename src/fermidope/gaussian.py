"""Fermionic Gaussian unitaries as executable gate programs.

A Gaussian unitary G_O is pinned down (up to a global phase) by its
Heisenberg action on Majorana operators,

    G^dag gamma_mu G = sum_nu O[mu, nu] gamma_nu,      O in O(2n),

and composes as G_{O1} G_{O2} = G_{O1 @ O2}.  Compilation factors O into
plane rotations; the rotation in plane (mu, nu) by angle theta is realized
as exp(i * theta/2 * P) with P the Hermitian form of -i gamma_mu gamma_nu,
and a det = -1 factor is realized by applying gamma_1 = X_1 as a gate.  The
test suite checks the angle/sign convention against the Heisenberg identity
on dense matrices (see ``heisenberg_matrix``).

Under Jordan-Wigner, P is a two-qubit gate dressed by a Z-string (Jozsa &
Miyake 2008), so ``rotate_plane`` applies it in place on a reshaped view
of the amplitudes; ``rotation_generator`` and ``apply_pauli_rotation`` give
the same rotation on the dense Pauli path, the oracle the tests hold it to.

The Givens chain of ``ortho.givens_decompose`` gives a dense O only
adjacent planes (mu, mu + 1), i.e. gates on one or two neighbouring qubits
(a nearest-neighbour matchgate circuit).  Compilation therefore fuses the
rotations, moving those on disjoint qubits past each other, into dense
2^m x 2^m blocks on windows of m <= FUSE_QUBITS adjacent qubits, and
``apply`` runs each block as one matrix product over the amplitudes.  A
plane wider than the window stays a single ``rotate_plane`` pass.  The
window assignment depends only on the plane sequence, which repeats (every
dense O at one n has the same staircase), so it is planned once per
sequence and cached; the blocks of one size are then built together.
G and G^dag come in pairs (rotate by G^dag, reassemble with G), and the
second of the two derives its program from the first's.  Both share one
program cell (``GaussianUnitary.sharing``), the single mechanism by which
instances share programs; ``metrology`` keeps one such cell per commuting
group and n, so each group's basis change compiles once per n.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import ortho
from .pauli import PauliString, majorana, pauli_mul
from .states import StateVector, apply_pauli_rotation, operator_matrix  # noqa: F401

FUSE_QUBITS = 4  # widest window of adjacent qubits fused into one dense block
FUSION_PLANS = 64  # plane sequences whose fusion plan stays cached


def rotation_generator(mu: int, nu: int, n: int) -> PauliString:
    """Hermitian Pauli string -i gamma_mu gamma_nu."""
    if mu == nu:
        raise ValueError("rotation plane needs two distinct Majorana indices")
    g = pauli_mul(majorana(mu, n), majorana(nu, n))
    p = PauliString(g.n, g.x_mask, g.z_mask, g.phase_exp + 3)  # multiply by -i
    if not p.is_hermitian:
        raise AssertionError("rotation generator failed to be Hermitian")
    return p


@cache
def _parity_signs(n: int) -> np.ndarray:
    """(-1)^popcount(m) for m < 2^(n-2): the sign of a Z-string on the middle bits m."""
    signs = np.ones(1)
    for _ in range(n - 2):
        signs = np.concatenate([signs, -signs])
    signs.setflags(write=False)
    return signs


def rotate_plane(amps: np.ndarray, n: int, mu: int, nu: int, phi: float) -> None:
    """amps <- exp(i * phi * P) amps in place, P = -i gamma_mu gamma_nu, mu < nu.

    With k = ceil(mu/2) and l = ceil(nu/2), P = Z_k when k = l; otherwise
    P = (-Y_k if mu is odd else X_k) Z_{k+1..l-1} (X_l if nu is odd else Y_l),
    which flips bits k and l and multiplies by edge factors of the output
    bits and the Z-string parity of the bits between them.  An adjacent
    plane (2k, 2k + 1) is X_k X_{k+1}: no Z-string and both edge factors 1.
    """
    k, l = (mu + 1) // 2, (nu + 1) // 2
    if k == l:
        v = amps.reshape(2 ** (k - 1), 2, 2 ** (n - k))
        phase = cmath.exp(1j * phi)
        v[:, 0] *= phase
        v[:, 1] *= phase.conjugate()
        return
    if nu == mu + 1:
        v = amps.reshape(2 ** (k - 1), 2, 2, 2 ** (n - l))
        flipped = v[:, ::-1, ::-1] * (1j * math.sin(phi))
        v *= math.cos(phi)
        v += flipped
        return
    middle = 2 ** (l - k - 1)
    v = amps.reshape(2 ** (k - 1), 2, middle, 2, 2 ** (n - l))
    y_edge = np.array([-1j, 1j])  # <b| Y |1-b> = -i (-1)^b
    left = -y_edge if mu % 2 else np.ones(2)
    right = np.ones(2) if nu % 2 else y_edge
    coef = (1j * math.sin(phi)) * left[:, None, None] * _parity_signs(n)[:middle, None] * right
    flipped = coef[..., None] * v[:, ::-1, :, ::-1, :]
    v *= math.cos(phi)
    v += flipped


class Block(NamedTuple):
    """A dense 2^m x 2^m unitary on the adjacent qubits lo, ..., lo + m - 1."""

    lo: int
    u: np.ndarray


@dataclass(frozen=True)
class GateProgram:
    """A compiled Gaussian unitary.

    ``rotations`` and ``reflect_first`` are its Givens program (see
    ``ortho.GivensProgram``).  ``ops`` runs the same rotations after the
    reflection: each op is a ``Block`` or, for a plane spanning more than
    FUSE_QUBITS qubits, one (mu, nu, theta) rotation.
    """

    rotations: tuple
    reflect_first: bool
    ops: tuple


@cache
def _window_generators(m: int) -> tuple:
    """Every plane (mu, nu) of an m-qubit register as a signed permutation.

    Returns (ids, src, coef): ids maps the plane to its row of the stacked
    (src, coef) of ``rotation_generator(mu, nu, m).action()``.
    """
    planes = [(mu, nu) for mu in range(1, 2 * m + 1) for nu in range(mu + 1, 2 * m + 1)]
    actions = [rotation_generator(mu, nu, m).action() for mu, nu in planes]
    src, coef = (np.array([action[i] for action in actions]) for i in (0, 1))
    src.setflags(write=False)
    coef.setflags(write=False)
    return {plane: i for i, plane in enumerate(planes)}, src, coef


class _FusionPlan(NamedTuple):
    """How ``_fuse`` groups one plane sequence; angles are not part of it.

    ``order`` lists the ops: (m, lo, row) for the block of size m on qubits
    lo .. lo + m - 1, built in row ``row`` of its size's stack, or (0, k, 0)
    for the unfused rotation k.  ``sizes`` holds per block size m the rows'
    rotation indices and window-relative generator ids, step by step, rows
    ordered longest window first; ``active[s]`` rows have a step s.
    """

    order: tuple
    sizes: tuple  # (m, rotation indices (B, S), generator ids (B, S), active (S,)) per size


@lru_cache(maxsize=FUSION_PLANS)
def _fusion_plan(planes: tuple, n: int) -> _FusionPlan:
    """Group planes into windows of <= FUSE_QUBITS adjacent qubits.

    The plane (mu, nu) acts on the qubits ceil(mu/2) .. ceil(nu/2), Z-string
    included.  Each rotation joins the last window that shares a qubit with
    it, when the joint window still fits: it commutes with every window
    after that one, so only rotations on disjoint qubits move past each
    other.  Otherwise it opens a new window at the end.
    """
    windows = []  # [lo, hi, rotation indices]
    last = [-1] * (n + 1)  # per qubit, the index of the last window covering it
    for index, (mu, nu) in enumerate(planes):
        lo, hi = (mu + 1) // 2, (nu + 1) // 2
        k = max(last[lo:hi + 1])
        if k >= 0 and max(hi, windows[k][1]) - min(lo, windows[k][0]) < FUSE_QUBITS:
            window = windows[k]
            window[0], window[1] = min(lo, window[0]), max(hi, window[1])
            window[2].append(index)
        else:
            k = len(windows)
            windows.append([lo, hi, [index]])
        last[lo:hi + 1] = [k] * (hi - lo + 1)

    by_size = {}  # m -> the windows of that size, in op order
    for w, (lo, hi, _) in enumerate(windows):
        if hi - lo < FUSE_QUBITS:
            by_size.setdefault(hi - lo + 1, []).append(w)
    rows, sizes = {}, []
    for m, members in sorted(by_size.items()):
        ids = _window_generators(m)[0]
        members.sort(key=lambda w: -len(windows[w][2]))
        table = np.zeros((2, len(members), len(windows[members[0]][2])), dtype=np.intp)
        for row, w in enumerate(members):
            lo, _, indices = windows[w]
            shift = 2 * (lo - 1)
            gens = [ids[planes[i][0] - shift, planes[i][1] - shift] for i in indices]
            table[:, row, :len(indices)] = indices, gens
            rows[w] = row
        lengths = np.array([len(windows[w][2]) for w in members])
        active = tuple((lengths[:, None] > np.arange(table.shape[2])).sum(axis=0).tolist())
        table.setflags(write=False)
        sizes.append((m, table[0], table[1], active))
    order = tuple(
        (hi - lo + 1, lo, rows[w]) if w in rows else (0, indices[0], 0)
        for w, (lo, hi, indices) in enumerate(windows)
    )
    return _FusionPlan(order, tuple(sizes))


def _fuse(rotations: tuple, n: int) -> tuple:
    """The ops of a program: dense blocks on windows of adjacent qubits, and wide planes.

    All blocks of one size m are built together from the identity, one
    vectorised step per rotation of the longest window: u <- cos(phi) u +
    i sin(phi) P u over the blocks that still have a rotation, with P u the
    signed row permutation of the window-relative generator.
    """
    plan = _fusion_plan(tuple((mu, nu) for mu, nu, _ in rotations), n)
    phis = np.array([theta / 2.0 for *_, theta in rotations])
    blocks = {}
    for m, indices, gens, active in plan.sizes:
        _, src, coef = _window_generators(m)
        cos, isin = np.cos(phis[indices]), 1j * np.sin(phis[indices])
        u = np.tile(np.eye(2**m, dtype=complex), (len(indices), 1, 1))
        rows = np.arange(len(indices))[:, None]
        for step, count in enumerate(active):
            v, g = u[:count], gens[:count, step]
            flipped = v[rows[:count], src[g]]  # (P u)[r] = coef[r] u[src[r]], per block
            flipped *= (isin[:count, step, None] * coef[g])[..., None]
            v *= cos[:count, step, None, None]
            v += flipped
        u.setflags(write=False)
        blocks[m] = u
    return tuple(
        Block(lo, blocks[m][row]) if m else rotations[lo] for m, lo, row in plan.order
    )


def _adjoint_program(prog: GateProgram) -> GateProgram:
    """The program of G^dag from the program of G.

    G = ops X_1^r, so G^dag = X_1^r ops^dag: the ops reversed, each block
    u -> u^dag and each angle negated.  With the reflection, G^dag =
    (X_1 ops^dag X_1) X_1, and conjugating by X_1 = gamma_1 negates the
    angle of a plane with mu = 1 once more and flips the leading qubit of
    a block on qubit 1.
    """
    flip = prog.reflect_first

    def inverse(mu, nu, theta):
        return mu, nu, theta if flip and mu == 1 else -theta

    ops = []
    for op in reversed(prog.ops):
        if not isinstance(op, Block):
            ops.append(inverse(*op))
            continue
        u = op.u.conj().T
        if flip and op.lo == 1:
            half = np.arange(len(u)) ^ (len(u) // 2)
            u = u[half][:, half]
        u = np.ascontiguousarray(u)
        u.setflags(write=False)
        ops.append(Block(op.lo, u))
    rotations = tuple(inverse(*rot) for rot in reversed(prog.rotations))
    return GateProgram(rotations, flip, tuple(ops))


class GaussianUnitary:
    """A Gaussian unitary, built from its orthogonal matrix.

    The gate program is compiled lazily and cached; instances are immutable.
    Each instance reads and fills one slot of a cell [program of G, program
    of G^dag], its own unless built by ``sharing``: a filled slot is taken
    as is, an empty one is derived from the other slot when that is filled,
    and only when both are empty does ``program`` compile.
    """

    def __init__(self, o: np.ndarray, check: bool = True):
        o = np.array(o, dtype=float)
        if o.ndim != 2 or o.shape[0] != o.shape[1] or o.shape[0] % 2 != 0:
            raise ValueError(f"expected a square even-dimensional matrix, got {o.shape}")
        if check and not ortho.is_orthogonal(o):
            raise ValueError("matrix is not orthogonal within tolerance")
        o.setflags(write=False)
        self.O = o
        self._programs, self._side = [None, None], 0

    @property
    def n(self) -> int:
        return self.O.shape[0] // 2

    @cached_property
    def program(self) -> GateProgram:
        programs, side = self._programs, self._side
        if programs[side] is None:
            if programs[1 - side] is not None:
                programs[side] = _adjoint_program(programs[1 - side])
            else:
                givens = ortho.givens_decompose(self.O)
                ops = _fuse(givens.rotations, self.n)
                programs[side] = GateProgram(givens.rotations, givens.reflect_first, ops)
        return programs[side]

    @classmethod
    def sharing(cls, o: np.ndarray, cell: list, side: int = 0) -> "GaussianUnitary":
        """The Gaussian unitary of ``o`` whose program lives in ``cell[side]``.

        The one way programs are shared between instances: ``cell`` is a
        [program of G, program of G^dag] list, and ``o`` must be the O of
        G (side 0) or of G^dag (side 1).  Every instance built on one cell
        reads the same program objects, so a cell kept across calls
        compiles once for all of them.
        """
        out = cls(o, check=False)
        out._programs, out._side = cell, side
        return out

    def adjoint(self) -> "GaussianUnitary":
        return GaussianUnitary.sharing(self.O.T, self._programs, 1 - self._side)

    def __matmul__(self, other: "GaussianUnitary") -> "GaussianUnitary":
        """Composition: (self @ other) applies ``other`` first."""
        return GaussianUnitary(self.O @ other.O, check=False)

    def apply(self, psi: StateVector) -> StateVector:
        if psi.n != self.n:
            raise ValueError(f"state has {psi.n} qubits, unitary expects {self.n}")
        n, prog = self.n, self.program
        # the one copy; the reflection gamma_1 = X_1 swaps the halves on qubit 1
        source = psi.amps.reshape(2, -1)[::-1] if prog.reflect_first else psi.amps
        amps = source.copy().reshape(-1)
        spare = np.empty_like(amps)
        for op in prog.ops:
            if not isinstance(op, Block):
                rotate_plane(amps, n, op[0], op[1], op[2] / 2.0)
                continue
            # a window touching either end of the register is one GEMM
            dim = len(op.u)
            front = 2 ** (op.lo - 1)
            if front == 1:
                np.matmul(op.u, amps.reshape(dim, -1), out=spare.reshape(dim, -1))
            elif front * dim == amps.size:
                np.matmul(amps.reshape(-1, dim), op.u.T, out=spare.reshape(-1, dim))
            else:
                shape = (front, dim, -1)
                np.matmul(op.u, amps.reshape(shape), out=spare.reshape(shape))
            amps, spare = spare, amps
        return StateVector(n, amps)

    def matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n unitary; for oracle checks at small n."""
        return operator_matrix(self.apply, self.n)


def identity_gaussian(n: int) -> GaussianUnitary:
    return GaussianUnitary(np.eye(2 * n), check=False)


def heisenberg_matrix(g: GaussianUnitary) -> np.ndarray:
    """Recover O from the dense conjugation action G^dag gamma_mu G."""
    n = g.n
    u = g.matrix()
    out = np.zeros((2 * n, 2 * n))
    gammas = [majorana(mu, n).to_matrix() for mu in range(1, 2 * n + 1)]
    dim = 2**n
    for mu in range(2 * n):
        conj = u.conj().T @ gammas[mu] @ u
        for nu in range(2 * n):
            out[mu, nu] = (np.trace(gammas[nu] @ conj) / dim).real
    return out
