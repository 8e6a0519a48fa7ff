"""Exact n-qubit Pauli-string algebra and Majorana operators.

Majorana operators follow the Jordan-Wigner convention

    gamma_{2k-1} = Z_1 ... Z_{k-1} X_k,     gamma_{2k} = Z_1 ... Z_{k-1} Y_k,

with qubits numbered 1..n and Majorana indices 1..2n.  A Pauli string is
stored as a pair of bit masks plus an integer power of i, so every product
and phase is computed in exact integer arithmetic:

    P = i^phase_exp * prod_k X_k^{x_k} Z_k^{z_k}

with the X factor to the left of the Z factor on each qubit.  Bit k-1 of a
mask refers to qubit k.  Qubit 1 is the most significant bit of a
computational basis index (see `fermidope.states`).

This is the one module that knows the Jordan-Wigner convention: other
modules apply a Majorana operator or a product of them to a state through
``PauliString.times`` (scale * P amps, a new array) and ``rotate`` (built
on ``times``), the package's one in-place state kernel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

MAX_QUBITS = 32

# letter -> (x bit, z bit, power of i) of the one-qubit factor; Y = i XZ
LETTERS = {"I": (0, 0, 0), "X": (1, 0, 0), "Y": (1, 1, 1), "Z": (0, 1, 0)}

_PHASES = (1.0, 1.0j, -1.0, -1.0j)
_SIGN_LABEL = ("+", "+i", "-", "-i")


@cache
def _basis(n: int) -> np.ndarray:
    """The basis indices arange(2^n), read-only and shared by every string on n qubits."""
    b = np.arange(2**n)
    b.setflags(write=False)
    return b


@cache
def _parity_signs(bits: int) -> np.ndarray:
    """(-1)^popcount(m) for m < 2^bits, read-only: the sign of a Z-string on the bits of m."""
    signs = 1.0 - 2.0 * (np.bitwise_count(_basis(bits)) & 1)
    signs.setflags(write=False)
    return signs


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli operator with an exact i^k global phase."""

    n: int
    x_mask: int
    z_mask: int
    phase_exp: int = 0

    def __post_init__(self):
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {self.n}")
        if self.x_mask < 0 or self.z_mask < 0:
            raise ValueError("masks must be non-negative")
        full = (1 << self.n) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("mask has bits outside the n-qubit register")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    @property
    def phase(self) -> complex:
        return _PHASES[self.phase_exp]

    @property
    def is_hermitian(self) -> bool:
        # conjugating X^x Z^z on one qubit flips the sign iff both bits are set
        return (self.phase_exp - (self.x_mask & self.z_mask).bit_count()) % 2 == 0

    def __mul__(self, other: "PauliString") -> "PauliString":
        return pauli_mul(self, other)

    def action(self) -> tuple[np.ndarray, np.ndarray]:
        """The string as a signed permutation: (P psi)[b] = coef[b] * psi[src[b]].

        With x and z the masks in basis-index bit order (qubit k is index bit
        n - k), P|b> = phase * (-1)^|b & z| |b ^ x>, so src = b ^ x and
        coef = phase * (-1)^|src & z|.  Computed once per string; both arrays
        are read-only.
        """
        return self._action

    @property
    def basis_masks(self) -> tuple[int, int]:
        """The masks (x, z) in basis-index bit order, where qubit k is index bit n - k."""
        return tuple(int(f"{mask:0{self.n}b}"[::-1], 2) for mask in (self.x_mask, self.z_mask))

    @cached_property
    def _action(self) -> tuple[np.ndarray, np.ndarray]:
        x, z = self.basis_masks
        src = _basis(self.n) ^ x
        # bitwise_count is uint8, so the sign is formed in float (1 - 2*u8 would wrap)
        coef = self.phase * (1.0 - 2.0 * (np.bitwise_count(src & z) & 1))
        src.setflags(write=False)
        coef.setflags(write=False)
        return src, coef

    def times(self, amps: np.ndarray, scale: complex = 1.0) -> np.ndarray:
        """scale * P amps for a flat amplitude array, as a new flat array; amps is left as is.

        P amps is read off the runs of equal letters (``_runs``): each X or Y
        run reversed (its bits flipped), each amplitude multiplied once by
        scale times the exact +-1/+-i product of the phase and the Z and Y
        parity signs.
        """
        shape, flip, signs = self._runs
        return (math.prod(signs, start=scale * self.phase) * amps.reshape(shape)[flip]).reshape(-1)

    def rotate(self, amps: np.ndarray, phi: float) -> None:
        """amps <- exp(i * phi * P) amps = cos(phi) amps + i sin(phi) P amps, in place."""
        if not self.is_hermitian:
            raise ValueError("rotation generator must be Hermitian")
        flipped = self.times(amps, 1j * math.sin(phi))
        amps *= math.cos(phi)
        amps += flipped

    @cached_property
    def _runs(self) -> tuple:
        """(shape, flip, signs): one axis of 2^L amplitudes per run of L equal letters.

        The one layout behind ``times`` and so ``rotate``.  ``flip`` reverses
        the X and Y axes; ``signs`` holds the parity table of each Z or Y
        axis (a Y run reads its source bits: the table reversed), each a
        view of the shared ``_parity_signs``.
        """
        letters = [((self.x_mask >> k) & 1, (self.z_mask >> k) & 1) for k in range(self.n)]
        runs = [(x, z, len(list(group))) for (x, z), group in itertools.groupby(letters)]
        shape = tuple(2**bits for *_, bits in runs)
        flip = tuple(slice(None, None, -1 if x else 1) for x, *_ in runs)
        signs = tuple(_parity_signs(bits)[::-1 if x else 1].reshape((-1,) + (1,) * (len(runs) - 1 - axis))
                      for axis, (x, z, bits) in enumerate(runs) if z)
        return shape, flip, signs

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix, new on each call: coef[b] in row b, column src[b]."""
        if self.n > 12:
            raise ValueError("dense matrix limited to n <= 12")
        src, coef = self.action()
        out = np.zeros((src.size, src.size), dtype=complex)
        out[_basis(self.n), src] = coef
        return out

    def __str__(self):
        residual = (self.phase_exp - (self.x_mask & self.z_mask).bit_count()) % 4
        letters = []
        for k in range(self.n):
            x, z = (self.x_mask >> k) & 1, (self.z_mask >> k) & 1
            letters.append("IXZY"[x + 2 * z] if (x, z) != (1, 1) else "Y")
        return f"{_SIGN_LABEL[residual]} {''.join(letters)}"


def pauli_mul(a: PauliString, b: PauliString) -> PauliString:
    """Exact product a * b, including the accumulated power of i."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} != {b.n}")
    # commuting each X of b through each Z of a picks up a factor of -1
    phase = a.phase_exp + b.phase_exp + 2 * (a.z_mask & b.x_mask).bit_count()
    return PauliString(a.n, a.x_mask ^ b.x_mask, a.z_mask ^ b.z_mask, phase)


def hermitize(p: PauliString) -> PauliString:
    """Multiply by i if needed so the string is Hermitian."""
    return p if p.is_hermitian else PauliString(p.n, p.x_mask, p.z_mask, p.phase_exp + 1)


@cache
def majorana(mu: int, n: int) -> PauliString:
    """The Majorana operator gamma_mu on n qubits, mu in [1, 2n]; one shared string per (mu, n)."""
    if not 1 <= mu <= 2 * n:
        raise ValueError(f"Majorana index {mu} out of range for n={n}")
    k = (mu + 1) // 2
    x = 1 << (k - 1)
    z_chain = (1 << (k - 1)) - 1
    if mu % 2 == 1:
        return PauliString(n, x, z_chain, 0)
    return PauliString(n, x, z_chain | x, 1)


def majorana_monomial(indices, n: int) -> PauliString:
    """Ordered product gamma_{mu_1} ... gamma_{mu_k} for strictly increasing indices."""
    indices = tuple(indices)
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValueError(f"indices must be strictly increasing, got {indices}")
    out = PauliString.identity(n)
    for mu in indices:
        out = pauli_mul(out, majorana(mu, n))
    return out
