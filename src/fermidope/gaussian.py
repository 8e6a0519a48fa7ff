"""Fermionic Gaussian unitaries as executable gate programs.

A Gaussian unitary G_O is pinned down (up to a global phase) by its
Heisenberg action on Majorana operators,

    G^dag gamma_mu G = sum_nu O[mu, nu] gamma_nu,      O in O(2n),

and composes as G_{O1} G_{O2} = G_{O1 @ O2}.  Compilation factors O into
plane rotations; the rotation in plane (mu, nu) by angle theta is realized
as exp(i * theta/2 * P) with P the Hermitian form of -i gamma_mu gamma_nu,
and a det = -1 factor is realized by applying gamma_1 as a gate
(``majorana(1, n).times``).  The test suite checks the angle/sign
convention against the Heisenberg identity on dense matrices (see
``heisenberg_matrix``).

Under Jordan-Wigner, P is a two-qubit gate dressed by a Z-string (Jozsa &
Miyake 2008); an unfused plane runs through the in-place kernel
``rotation_generator(mu, nu, n).rotate``, which the tests hold to the
dense oracle ``apply_pauli_rotation``.

The Givens chain of ``ortho.givens_decompose`` gives a dense O only
adjacent planes (mu, mu + 1), i.e. gates on one or two neighbouring qubits
(a nearest-neighbour matchgate circuit).  Compilation therefore fuses the
rotations into dense 2^m x 2^m blocks, all on windows of the same m =
min(FUSE_QUBITS, n) adjacent qubits.  The packer is greedy: each step,
every window walks the pending rotations in order with a mask of blocked
Majoranas, taking each rotation inside it on no blocked Majorana and
blocking the two Majoranas of every other one, and the window that takes
the most (the lowest on a tie) becomes the next block.  Rotations on
disjoint Majorana pairs commute, even where their Z-strings share qubits,
so the blocks keep the product; a Haar layer at n = 12 is 15 blocks.
``apply`` runs each block as one matrix product over the amplitudes: a
single GEMM when the block touches either end of the register, 2^(lo-1)
small batched ones otherwise.  A plane wider than the window stays a
single kernel pass.  The packing depends only on the plane sequence, which
repeats (every dense O at one n has the same staircase), so it is planned
once per sequence and cached; all blocks are then built together in one
stack, a block longer than the median block in rows of the median length
multiplied at the end.
G and G^dag come in pairs (rotate by G^dag, reassemble with G), and the
pair has one program: G = ops gamma_1^r, so G^dag = gamma_1^r ops^dag runs
the same ops backwards, each block as u^dag and each wide plane at the
negated angle, and applies the reflection gamma_1 last.  Both read one
program cell (``GaussianUnitary.sharing``), the single mechanism by which
instances share programs; ``metrology`` keeps two such cells per n, the first step
and the repeated step of its grouped-sampling walk, so each compiles once
per n.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from . import ortho
from .pauli import PauliString, majorana, pauli_mul
# apply_pauli_rotation is unused here: bench/test_bench.py reads gaussian.apply_pauli_rotation,
# so the import stays until that oracle leaves src/ (ROADMAP item 13)
from .states import StateVector, apply_pauli_rotation, operator_matrix  # noqa: F401

FUSE_QUBITS = 4  # widest window of adjacent qubits fused into one dense block
FUSION_PLANS = 64  # plane sequences whose fusion plan stays cached


@cache
def rotation_generator(mu: int, nu: int, n: int) -> PauliString:
    """Hermitian Pauli string -i gamma_mu gamma_nu, built once per plane and n."""
    if mu == nu:
        raise ValueError("rotation plane needs two distinct Majorana indices")
    g = pauli_mul(majorana(mu, n), majorana(nu, n))
    return PauliString(g.n, g.x_mask, g.z_mask, g.phase_exp + 3)  # multiply by -i


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
    (src, coef) of ``rotation_generator(mu, nu, m).action()``, the source
    the wide planes read too.
    """
    ids = {plane: i for i, plane in enumerate(combinations(range(1, 2 * m + 1), 2))}
    actions = [rotation_generator(mu, nu, m).action() for mu, nu in ids]
    src, coef = np.array([s for s, _ in actions]), np.array([c for _, c in actions], dtype=complex)
    src.setflags(write=False)
    coef.setflags(write=False)
    return ids, src, coef


class _FusionPlan(NamedTuple):
    """How ``_fuse`` groups one plane sequence; angles are not part of it.

    Every block spans the same ``width`` qubits and is built in one or more
    rows of a stack, each row a run of its rotations.  ``order`` lists the
    ops: (lo, rows) for the block on qubits lo .. lo + width - 1, the
    product of its ``rows`` in order, or (0, (k,)) for the unfused rotation k.
    ``rotations`` and ``generators`` hold per row its rotation indices and
    window-relative generator ids, step by step, rows ordered longest first;
    ``active[s]`` rows have a step s.
    """

    width: int
    order: tuple
    rotations: np.ndarray  # (rows, steps)
    generators: np.ndarray  # (rows, steps)
    active: tuple


def _pack(planes: tuple, n: int, width: int) -> list:
    """Pack planes greedily into windows of ``width`` adjacent qubits, in dependency order.

    The plane (mu, nu) acts on the qubits ceil(mu/2) .. ceil(nu/2), Z-string
    included, and commutes with every plane on two other Majoranas, even one
    on the same qubits.  A window can take a pending rotation that lies
    inside it when it can also take every earlier pending rotation sharing a
    Majorana with it; those taken then move together ahead of the rest.
    Each step takes all it can in the window that can take the most (lowest
    first qubit on a tie).  When no window can take anything, the earliest
    pending rotation is a plane wider than the window and goes alone.
    Returns (lo, rotation indices) per op, lo = 0 for an unfused plane.

    A window finds what it can take in one walk over the pending rotations
    with a mask of blocked Majoranas: a rotation inside the window on no
    blocked Majorana is taken, any other blocks its two Majoranas, and the
    walk stops once all 2 * width Majoranas of the window are blocked.
    """
    spans = [(2 << (nu + 1) // 2) - (1 << (mu + 1) // 2) for mu, nu in planes]  # qubit bit masks
    ends = [1 << mu | 1 << nu for mu, nu in planes]  # Majorana bit masks
    pending, ops = list(range(len(planes))), []
    while pending:
        lo, best = 0, []
        for k in range(1, n - width + 2):
            window, blocked, taken = ((1 << width) - 1) << k, 0, []
            majoranas = ((1 << 2 * width) - 1) << (2 * k - 1)
            for i in pending:
                if ends[i] & blocked or spans[i] & ~window:
                    blocked |= ends[i]
                    if not majoranas & ~blocked:
                        break
                else:
                    taken.append(i)
            if len(taken) > len(best):
                lo, best = k, taken
        best = best or pending[:1]
        ops.append((lo, best))
        gone = set(best)
        pending = [i for i in pending if i not in gone]
    return ops


@lru_cache(maxsize=FUSION_PLANS)
def _fusion_plan(planes: tuple, n: int) -> _FusionPlan:
    """Pack planes into blocks on windows of min(FUSE_QUBITS, n) adjacent qubits (``_pack``).

    The stack takes one step per rotation of its longest row, and a Haar
    staircase packs blocks of uneven length (at n = 12: one of 28
    rotations, four of 22, ten of 16).  So a block longer than the median
    block length is split into rows of that length, multiplied at the end:
    a Haar stack at n = 8 or 12 takes 16 steps.
    """
    width = min(FUSE_QUBITS, n)
    ops = _pack(planes, n, width)
    lengths = sorted((len(indices) for lo, indices in ops if lo), reverse=True)
    cap = lengths[len(lengths) // 2] if lengths else 0
    runs = [(j, indices[k:k + cap]) for j, (lo, indices) in enumerate(ops) if lo
            for k in range(0, len(indices), cap)]
    runs.sort(key=lambda run: -len(run[1]))  # stable: a block's runs stay in order
    steps = len(runs[0][1]) if runs else 0
    ids = _window_generators(width)[0]
    index_rows, generator_rows, rows = [], [], {}
    for row, (j, indices) in enumerate(runs):
        shift, fill = 2 * (ops[j][0] - 1), [0] * (steps - len(indices))
        index_rows += indices + fill
        generator_rows += [ids[planes[i][0] - shift, planes[i][1] - shift] for i in indices] + fill
        rows.setdefault(j, []).append(row)
    table = np.array(index_rows + generator_rows, dtype=np.intp).reshape(2, len(runs), steps)
    table.setflags(write=False)
    negated = [-len(indices) for _, indices in runs]  # ascending
    active = tuple(bisect.bisect_left(negated, -step) for step in range(steps))
    order = tuple((lo, tuple(rows[j]) if lo else tuple(indices)) for j, (lo, indices) in enumerate(ops))
    return _FusionPlan(width, order, table[0], table[1], active)


def _fuse(rotations: tuple, n: int) -> tuple:
    """The ops of a program: dense blocks on windows of adjacent qubits, and wide planes.

    All rows of the plan are built together from the identity, one
    vectorised step per rotation of the longest row: u <- cos(phi) u +
    i sin(phi) P u over the rows that still have a rotation, with P u the
    signed row permutation of the window-relative generator.  A block is the
    product of its rows.
    """
    plan = _fusion_plan(tuple((mu, nu) for mu, nu, _ in rotations), n)
    phis = np.array([theta / 2.0 for *_, theta in rotations])
    _, src, coef = _window_generators(plan.width)
    indices, gens = plan.rotations, plan.generators
    cos = np.cos(phis[indices])
    scale = (1j * np.sin(phis[indices]))[..., None] * coef[gens]  # (P u)[r] = coef[r] u[src[r]]
    sources = src[gens]
    u = np.tile(np.eye(2**plan.width, dtype=complex), (len(indices), 1, 1))
    rows = np.arange(len(indices))[:, None]
    for step, count in enumerate(plan.active):
        v = u[:count]
        flipped = v[rows[:count], sources[:count, step]]
        flipped *= scale[:count, step, :, None]
        v *= cos[:count, step, None, None]
        v += flipped
    u.setflags(write=False)
    return tuple(
        Block(lo, _product(u, stack_rows)) if lo else rotations[stack_rows[0]]
        for lo, stack_rows in plan.order
    )


def _product(u: np.ndarray, rows: tuple) -> np.ndarray:
    """u[rows[-1]] @ ... @ u[rows[0]], read-only: a block built in several rows."""
    out = u[rows[0]]
    for row in rows[1:]:
        out = u[row] @ out
    out.setflags(write=False)
    return out


class GaussianUnitary:
    """A Gaussian unitary, built from its orthogonal matrix.

    The gate program is compiled lazily and cached; instances are immutable.
    G and G^dag = G_{O^T} share one program cell [program], its own unless
    built by ``sharing`` or ``adjoint``: the program is compiled once, from
    the O of the instance the cell was built for, and the adjoint runs it
    backwards (``apply``).
    """

    def __init__(self, o: np.ndarray, check: bool = True):
        o = np.array(o, dtype=float)
        if o.ndim != 2 or o.shape[0] != o.shape[1] or o.shape[0] % 2 != 0:
            raise ValueError(f"expected a square even-dimensional matrix, got {o.shape}")
        if check and not ortho.is_orthogonal(o):
            raise ValueError("matrix is not orthogonal within tolerance")
        o.setflags(write=False)
        self.O = o
        self._cell, self._inverse = [None], False

    @property
    def n(self) -> int:
        return self.O.shape[0] // 2

    @cached_property
    def program(self) -> GateProgram:
        """The pair's one program, whose rotations realise the O of G: ``self.O.T`` on an adjoint."""
        cell = self._cell
        if cell[0] is None:
            givens = ortho.givens_decompose(self.O.T if self._inverse else self.O)
            cell[0] = GateProgram(givens.rotations, givens.reflect_first, _fuse(givens.rotations, self.n))
        return cell[0]

    @classmethod
    def sharing(cls, o: np.ndarray, cell: list) -> "GaussianUnitary":
        """The Gaussian unitary of ``o`` whose program lives in ``cell``, a [program] list.

        The one way programs are shared between instances: every instance
        built on one cell, and every adjoint of one, reads the same program
        object, so a cell kept across calls compiles once for all of them.
        """
        out = cls(o, check=False)
        out._cell = cell
        return out

    def adjoint(self) -> "GaussianUnitary":
        out = GaussianUnitary.sharing(self.O.T, self._cell)
        out._inverse = not self._inverse
        return out

    def apply(self, psi: StateVector) -> StateVector:
        """G psi, or on an adjoint G^dag psi = gamma_1^r ops^dag psi: the ops reversed, each inverted."""
        if psi.n != self.n:
            raise ValueError(f"state has {psi.n} qubits, unitary expects {self.n}")
        n, prog, inverse = self.n, self.program, self._inverse
        # the one copy; G = ops gamma_1^r applies the reflection gamma_1 first, G^dag last
        reflect = majorana(1, n).times if prog.reflect_first else None
        amps = reflect(psi.amps) if reflect and not inverse else psi.amps.copy()
        spare = np.empty_like(amps)
        for op in reversed(prog.ops) if inverse else prog.ops:
            if not isinstance(op, Block):
                phi = op[2] / 2.0
                rotation_generator(op[0], op[1], n).rotate(amps, -phi if inverse else phi)
                continue
            u = op.u.conj().T if inverse else op.u
            dim, front = len(u), 2 ** (op.lo - 1)
            if front > 1 and front * dim == amps.size:  # a window at the register end: one GEMM
                np.matmul(amps.reshape(-1, dim), u.T, out=spare.reshape(-1, dim))
            else:  # 2^(lo-1) batched GEMMs, one at qubit 1
                shape = (front, dim, -1)
                np.matmul(u, amps.reshape(shape), out=spare.reshape(shape))
            amps, spare = spare, amps
        if reflect and inverse:
            amps = reflect(amps)
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
