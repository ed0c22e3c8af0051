"""Polynomial phase-space symbols over conjugate mode variables.

A symbol is a finite complex polynomial in the 2d variables
(z*_1 .. z*_d, z_1 .. z_d).  Normal-ordered and anti-normal-ordered
operator symbols both live in this representation; the two calculi are
connected by the heat flow exp(+-L) of the mode Laplacian
L = sum_i d^2/dz*_i dz_i, which on polynomials truncates to a finite
series.  The conversions expand that series in closed form, term by term:
on one mode exp(+-d^2/dz*dz) z*^a z^b is
sum_j (+-1)^j j! C(a,j) C(b,j) z*^(a-j) z^(b-j) (Cahill & Glauber 1969;
Berezin 1966), and over several modes it is the product of the one-mode
sums, since the mode Laplacians commute.  `gross_laplacian` applies L
itself and is the reference the series is checked against.

Terms are keyed by exponent pairs (kstar, k), each a length-d tuple of
non-negative ints.  Coefficients are complex doubles; exact zeros are
never stored, and terms are kept in graded-lexicographic order on the
concatenated (kstar, k) so that serialization is byte-stable.  The public
constructor checks every key; the algebra in this module builds keys that
are valid by construction and skips those checks.
"""

from __future__ import annotations

import cmath
import functools
import hashlib
import itertools
import json
import math
import sys
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

TermKey = tuple[tuple[int, ...], tuple[int, ...]]

# the most complex entries (16 B each) of any single array a grid run forms,
# symbol values on a product grid and anti-Wick quadratures alike (check_grid)
GRID_MAX_POINTS = 6_000_000

__all__ = [
    "PolySymbol",
    "variable",
    "conj_variable",
    "gross_laplacian",
    "wick_from_antinormal",
    "antinormal_from_wick",
    "restrict_symbol",
    "truncate_modes",
    "PhaseGrid",
    "infimum_estimate",
    "random_symbol",
    "to_term_list",
    "from_term_list",
    "symbol_digest",
    "max_coeff_difference",
    "as_phase_point",
    "check_grid",
    "check_conversion_degree",
]


def check_grid(points: int, modes: int, grid: str = "phase grid") -> int:
    """`points`, the entries of an array over a `modes`-mode product grid;
    ValueError, which names the array `grid`, above GRID_MAX_POINTS."""
    if points > GRID_MAX_POINTS:
        raise ValueError(
            f"{grid} of {points} points at d={modes}; at most {GRID_MAX_POINTS}"
        )
    return points


def as_phase_point(values, modes: int) -> np.ndarray:
    """Coerce to a complex vector of the given length (a phase-space point)."""
    z = np.atleast_1d(np.asarray(values, dtype=complex))
    if z.shape != (modes,):
        raise ValueError(f"phase point has shape {z.shape}, expected ({modes},)")
    return z


def _term_order(item):
    (kstar, k), _ = item
    combined = kstar + k
    return (sum(combined), combined)


class PolySymbol:
    """Immutable polynomial in d conjugate variable pairs."""

    __slots__ = ("_modes", "_terms")

    def __init__(self, modes: int, terms: Mapping[TermKey, complex] | Iterable = ()):
        if modes < 1:
            raise ValueError("modes must be >= 1")
        items = terms.items() if isinstance(terms, Mapping) else terms
        merged: dict[TermKey, complex] = {}
        for (kstar, k), coeff in items:
            # Python or numpy integers only: int() would truncate 1.7 and
            # read True and "2" as exponents
            if not all(
                issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)
                for kind in set(map(type, (*kstar, *k)))
            ):
                raise ValueError("exponents must be integers")
            kstar = tuple(int(e) for e in kstar)
            k = tuple(int(e) for e in k)
            if len(kstar) != modes or len(k) != modes:
                raise ValueError(f"exponent tuples must have length {modes}")
            if any(e < 0 for e in kstar + k):
                raise ValueError("exponents must be non-negative")
            c = complex(coeff)
            if c != 0:
                merged[(kstar, k)] = merged.get((kstar, k), 0j) + c
        self._set(modes, merged)

    def _set(self, modes: int, merged: Mapping[TermKey, complex]) -> None:
        # 0j + c turns a signed zero part into +0.0, so equal symbols
        # serialize to the same bytes however they were built
        terms = [(key, 0j + complex(c)) for key, c in merged.items() if c != 0]
        object.__setattr__(self, "_modes", modes)
        object.__setattr__(self, "_terms", dict(sorted(terms, key=_term_order)))

    @classmethod
    def _canonical(cls, modes: int, merged: Mapping[TermKey, complex]) -> "PolySymbol":
        """Symbol from distinct keys that are already pairs of length-`modes`
        tuples of non-negative ints, as this module's algebra builds them;
        the coefficients are normalized and ordered as the constructor does."""
        s = object.__new__(cls)
        s._set(modes, merged)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("PolySymbol is immutable")

    # -- basic structure ------------------------------------------------

    @property
    def modes(self) -> int:
        return self._modes

    @property
    def terms(self) -> Mapping[TermKey, complex]:
        return MappingProxyType(self._terms)

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero symbol."""
        if not self._terms:
            return -1
        # graded order puts a term of the highest degree last
        ks, k = next(reversed(self._terms))
        return sum(ks) + sum(k)

    def is_zero(self) -> bool:
        return not self._terms

    @classmethod
    def zero(cls, modes: int) -> "PolySymbol":
        return cls(modes)

    @classmethod
    def constant(cls, modes: int, value: complex) -> "PolySymbol":
        zero = (0,) * modes
        return cls(modes, {(zero, zero): value})

    @classmethod
    def monomial(cls, kstar, k, coeff: complex = 1.0) -> "PolySymbol":
        kstar = tuple(kstar)
        return cls(len(kstar), {(kstar, tuple(k)): coeff})

    # -- algebra ---------------------------------------------------------

    def _coerce(self, other) -> "PolySymbol":
        if isinstance(other, PolySymbol):
            if other.modes != self.modes:
                raise ValueError("mode counts differ")
            return other
        return PolySymbol.constant(self.modes, other)

    def __add__(self, other) -> "PolySymbol":
        other = self._coerce(other)
        acc = dict(self._terms)
        for key, c in other._terms.items():
            acc[key] = acc.get(key, 0j) + c
        return PolySymbol._canonical(self.modes, acc)

    __radd__ = __add__

    def __neg__(self) -> "PolySymbol":
        return PolySymbol._canonical(
            self.modes, {k: -c for k, c in self._terms.items()}
        )

    def __sub__(self, other) -> "PolySymbol":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "PolySymbol":
        return self._coerce(other) - self

    def __mul__(self, other) -> "PolySymbol":
        if not isinstance(other, PolySymbol):
            c = complex(other)
            return PolySymbol._canonical(
                self.modes, {k: c * v for k, v in self._terms.items()}
            )
        other = self._coerce(other)
        acc: dict[TermKey, complex] = {}
        for (ks1, k1), c1 in self._terms.items():
            for (ks2, k2), c2 in other._terms.items():
                key = (
                    tuple(a + b for a, b in zip(ks1, ks2)),
                    tuple(a + b for a, b in zip(k1, k2)),
                )
                acc[key] = acc.get(key, 0j) + c1 * c2
        return PolySymbol._canonical(self.modes, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "PolySymbol":
        if not isinstance(n, int) or n < 0:
            raise ValueError("power must be a non-negative integer")
        result = PolySymbol.constant(self.modes, 1.0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolySymbol)
            and self.modes == other.modes
            and self._terms == other._terms
        )

    __hash__ = None

    def adjoint(self) -> "PolySymbol":
        """Symbol of the Hermitian-adjoint operator: swap exponents, conjugate."""
        return PolySymbol._canonical(
            self.modes,
            {(k, ks): c.conjugate() for (ks, k), c in self._terms.items()},
        )

    def is_real(self) -> bool:
        """True iff the coefficient of (kstar,k) conjugates to that of (k,kstar)."""
        for (ks, k), c in self._terms.items():
            partner = self._terms.get((k, ks))
            if partner is None or partner != c.conjugate():
                return False
        return True

    # -- evaluation -------------------------------------------------------

    def _power_tables(self, values: np.ndarray) -> list[np.ndarray]:
        # values: (n, modes); tables[i][e] = values[:, i]**e, e <= degree
        deg = max(self.degree, 0)
        tables = []
        for i in range(self.modes):
            col = values[:, i]
            tab = np.empty((deg + 1, len(col)), dtype=complex)
            tab[0] = 1.0
            for e in range(1, deg + 1):
                tab[e] = tab[e - 1] * col
            tables.append(tab)
        return tables

    def _eval_tables(self, conj_tabs, plain_tabs, n: int) -> np.ndarray:
        out = np.zeros(n, dtype=complex)
        for (ks, k), c in self._terms.items():
            term = np.full(n, c, dtype=complex)
            for i, e in enumerate(ks):
                if e:
                    term *= conj_tabs[i][e]
            for i, e in enumerate(k):
                if e:
                    term *= plain_tabs[i][e]
            out += term
        return out

    def evaluate(self, points) -> complex | np.ndarray:
        """Evaluate at one phase point (shape (d,)) or a batch (n, d).

        Returns sum_terms c * prod_i conj(z_i)^kstar_i * z_i^k_i.
        """
        pts = np.asarray(points, dtype=complex)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        if pts.ndim != 2 or pts.shape[1] != self.modes:
            raise ValueError(
                f"points have shape {np.shape(points)}, expected (..., {self.modes})"
            )
        tabs = self._power_tables(pts)
        ctabs = self._power_tables(pts.conj())
        out = self._eval_tables(ctabs, tabs, pts.shape[0])
        return complex(out[0]) if single else out

    def evaluate_grid(self, mode_points) -> np.ndarray:
        """Values on the product of `mode_points` over every mode, flattened
        with the last mode fastest (the order of a QuadratureRule's nodes).

        Sum factorization: the terms are grouped by their exponent pair in
        the leading mode, and the grid values are sum_g t_g (x) v_g, with
        t_g that pair's monomial on `mode_points` and v_g the group's
        values on the remaining modes' grid, found the same way.  Neither
        the (points, modes) array nor a per-point power table is formed.
        """
        z = np.asarray(mode_points, dtype=complex)
        if z.ndim != 1:
            raise ValueError(f"mode points have shape {z.shape}, expected (n,)")
        count = check_grid(len(z) ** self.modes, self.modes)
        if self.is_zero():
            return np.zeros(count, dtype=complex)
        powers = np.ones((self.degree + 1, len(z)), dtype=complex)
        for e in range(1, len(powers)):
            powers[e] = powers[e - 1] * z
        return _grid_values(list(self._terms.items()), powers)

    def eval_bilinear(self, left, right) -> complex:
        """Evaluate with conjugated exponents taken at `left`, plain at `right`.

        For a normal symbol this is W(left*, right), the coherent-matrix
        numerator <F_left, Op F_right> / exp(left* . right).
        """
        zl = as_phase_point(left, self.modes)[None, :]
        zr = as_phase_point(right, self.modes)[None, :]
        ctabs = self._power_tables(zl.conj())
        tabs = self._power_tables(zr)
        return complex(self._eval_tables(ctabs, tabs, 1)[0])

    def __repr__(self) -> str:
        return f"PolySymbol(modes={self.modes}, terms={len(self._terms)}, degree={self.degree})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(
            f"({c})·{_monomial(ks, k)}" for (ks, k), c in self._terms.items()
        )


def _monomial(ks: tuple[int, ...], k: tuple[int, ...]) -> str:
    factors = [f"z*{i+1}^{e}" if e > 1 else f"z*{i+1}" for i, e in enumerate(ks) if e]
    factors += [f"z{i+1}^{e}" if e > 1 else f"z{i+1}" for i, e in enumerate(k) if e]
    return "·".join(factors) if factors else "1"


def _grid_values(terms: list, powers: np.ndarray) -> np.ndarray:
    # values of the (key, coeff) terms on the grid of every mode.  A frame
    # holds terms whose exponents agree in the modes before its own, grouped
    # by their pair in its mode; its values are tables @ rest, where row g of
    # rest is group g's values on the later modes' grid.  Frames sit on an
    # explicit stack, one per mode, since a symbol may have more modes than
    # Python's recursion limit.
    last = len(terms[0][0][0]) - 1

    def frame(members: list, mode: int):
        groups: dict[tuple[int, int], list] = {}
        for term in members:
            (ks, k), _ = term
            groups.setdefault((ks[mode], k[mode]), []).append(term)
        tables = np.stack([powers[a].conj() * powers[b] for a, b in groups], axis=1)
        return tables, list(groups.values()), []

    stack = [frame(terms, 0)]
    while True:
        tables, groups, done = stack[-1]
        mode = len(stack) - 1
        if mode == last:
            # the last mode's pair completes the key: one term per group
            rest = np.array([[group[0][1]] for group in groups])
        elif len(done) < len(groups):
            stack.append(frame(groups[len(done)], mode + 1))
            continue
        else:
            rest = np.stack(done)
        values = (tables @ rest).reshape(-1)
        stack.pop()
        if not stack:
            return values
        stack[-1][2].append(values)


def variable(modes: int, mode: int) -> PolySymbol:
    """The linear symbol z_mode (1-based mode index)."""
    if not 1 <= mode <= modes:
        raise ValueError(f"mode {mode} out of range 1..{modes}")
    k = tuple(1 if i == mode - 1 else 0 for i in range(modes))
    return PolySymbol(modes, {((0,) * modes, k): 1.0})


def conj_variable(modes: int, mode: int) -> PolySymbol:
    """The linear symbol z*_mode (1-based mode index)."""
    if not 1 <= mode <= modes:
        raise ValueError(f"mode {mode} out of range 1..{modes}")
    ks = tuple(1 if i == mode - 1 else 0 for i in range(modes))
    return PolySymbol(modes, {(ks, (0,) * modes): 1.0})


def _decrement(exps: tuple[int, ...], i: int) -> tuple[int, ...]:
    return exps[:i] + (exps[i] - 1,) + exps[i + 1 :]


def gross_laplacian(s: PolySymbol) -> PolySymbol:
    """Mixed Laplacian sum_i d2/dz*_i dz_i, term by term.

    Drops total degree by exactly 2 on every surviving term.
    """
    acc: dict[TermKey, complex] = {}
    for (ks, k), c in s.terms.items():
        for i in range(s.modes):
            a, b = ks[i], k[i]
            if a and b:
                key = (_decrement(ks, i), _decrement(k, i))
                acc[key] = acc.get(key, 0j) + c * (a * b)
    return PolySymbol._canonical(s.modes, acc)


@functools.lru_cache(maxsize=4096)
def _reorder_weights(a: int, b: int, sign: int) -> tuple[int, ...]:
    # coefficients of z*^(a-j) z^(b-j), j = 0..min(a, b), in
    # exp(sign d^2/dz*dz) z*^a z^b: sign^j / j! * a!/(a-j)! * b!/(b-j)!
    return tuple(
        sign**j * math.factorial(j) * math.comb(a, j) * math.comb(b, j)
        for j in range(min(a, b) + 1)
    )


def _heat_series(s: PolySymbol, sign: int) -> PolySymbol:
    # exp(sign L) s term by term: the product over modes of the one-mode
    # closed forms, with exact integer weights.  A weight or coefficient
    # past the double range is refused, never returned as inf or nan.
    acc: dict[TermKey, complex] = {}
    for (ks, k), c in s.terms.items():
        active = [i for i in range(s.modes) if ks[i] and k[i]]
        if not active:
            acc[(ks, k)] = acc.get((ks, k), 0j) + c
            continue
        weights = [_reorder_weights(ks[i], k[i], sign) for i in active]
        lowered_ks, lowered_k = list(ks), list(k)
        try:
            for steps in itertools.product(*(range(len(w)) for w in weights)):
                weight = 1
                for i, w, j in zip(active, weights, steps):
                    weight *= w[j]
                    lowered_ks[i] = ks[i] - j
                    lowered_k[i] = k[i] - j
                key = (tuple(lowered_ks), tuple(lowered_k))
                acc[key] = acc.get(key, 0j) + c * weight
        except OverflowError:
            raise ValueError(
                f"term {_monomial(ks, k)} has a conversion weight j! C(a,j) "
                f"C(b,j) past the double range; {_degree_limit()}"
            ) from None
    for key, c in acc.items():
        if not cmath.isfinite(c):
            raise ValueError(
                f"the conversion's coefficient of {_monomial(*key)} is {c}, "
                "past the double range"
            )
    return PolySymbol._canonical(s.modes, acc)


def _weights_fit(degree: int) -> bool:
    # whether every weight j! C(a,j) C(b,j) with a + b = degree is at most
    # the largest double.  The balanced split a = degree // 2 has the
    # largest weight for each j, and a term over several modes has a weight
    # at most that of one mode at its total degree, so this one split decides.
    a, b = degree // 2, degree - degree // 2
    weight = 1
    for j in range(a):
        weight = weight * (a - j) * (b - j) // (j + 1)
        if weight > sys.float_info.max:
            return False
    return True


def _degree_limit() -> str:
    # the first degree whose weights pass the double range (334); found on
    # the refusal path only
    first = next(D for D in itertools.count() if not _weights_fit(D))
    return f"every weight is a double below total degree {first}"


def check_conversion_degree(degree: int) -> int:
    """`degree`; ValueError when a term of that total degree can have a
    closed-form conversion weight j! C(a,j) C(b,j) past the double range."""
    if not _weights_fit(degree):
        raise ValueError(
            f"degree {degree} gives conversion weights past the double range; "
            f"{_degree_limit()}"
        )
    return degree


def wick_from_antinormal(a: PolySymbol) -> PolySymbol:
    """Normal symbol of the operator whose anti-normal symbol is `a`.

    The heat series sum_m L^m a / m! terminates because each Laplacian
    application lowers the degree by 2; it is summed in closed form, term
    by term.  Degree is preserved and the difference from `a` has degree
    lower by at least 2.  A weight or coefficient past the double range
    raises ValueError; check_conversion_degree gives the degree bound.
    """
    return _heat_series(a, 1)


def antinormal_from_wick(w: PolySymbol) -> PolySymbol:
    """Exact inverse of wick_from_antinormal: alternating heat series."""
    return _heat_series(w, -1)


def restrict_symbol(s: PolySymbol, n: int) -> PolySymbol:
    """Zero out every term touching a mode index > n (1-based); keeps d modes."""
    if not 0 <= n <= s.modes:
        raise ValueError(f"n={n} out of range 0..{s.modes}")
    kept = {
        (ks, k): c
        for (ks, k), c in s.terms.items()
        if all(ks[i] == 0 and k[i] == 0 for i in range(n, s.modes))
    }
    return PolySymbol._canonical(s.modes, kept)


def truncate_modes(s: PolySymbol, n: int) -> PolySymbol:
    """Restrict to the first n modes and re-declare the symbol over n modes."""
    if not 1 <= n <= s.modes:
        raise ValueError(f"n={n} out of range 1..{s.modes}")
    if n == s.modes:
        return s
    restricted = restrict_symbol(s, n)
    return PolySymbol._canonical(
        n, {(ks[:n], k[:n]): c for (ks, k), c in restricted.terms.items()}
    )


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform polar sampling grid, identical in every mode.

    radius R is the outer radial extent; radial points include 0 and R.
    Heuristic only: a scan, not a minimizer.
    """

    radius: float
    radial: int = 25
    angular: int = 16

    def mode_points(self) -> np.ndarray:
        radii = np.linspace(0.0, self.radius, self.radial)
        angles = 2.0 * np.pi * np.arange(self.angular) / self.angular
        rings = radii[1:, None] * np.exp(1j * angles)[None, :]
        return np.concatenate(([0j], rings.reshape(-1)))


def infimum_estimate(s: PolySymbol, grid: PhaseGrid) -> float:
    """Minimum of Re s over the sampled grid: an UPPER bound on the infimum.

    Requires a real symbol.
    """
    if not s.is_real():
        raise ValueError("infimum_estimate requires a real symbol")
    return float(s.evaluate_grid(grid.mode_points()).real.min())


def random_symbol(
    rng: np.random.Generator,
    modes: int,
    max_degree: int,
    n_terms: int,
    real: bool = False,
) -> PolySymbol:
    """Random polynomial symbol with O(1) complex coefficients."""
    if modes < 1:
        raise ValueError("modes must be >= 1")
    acc: dict[TermKey, complex] = {}
    uniform = np.full(2 * modes, 1.0 / (2 * modes))
    for _ in range(n_terms):
        deg = int(rng.integers(0, max_degree + 1))
        split = rng.multinomial(deg, uniform)
        key = (tuple(int(e) for e in split[:modes]),
               tuple(int(e) for e in split[modes:]))
        c = complex(rng.standard_normal(), rng.standard_normal())
        acc[key] = acc.get(key, 0j) + c
    s = PolySymbol._canonical(modes, acc)
    if real:
        s = (s + s.adjoint()) * 0.5
    return s


def to_term_list(s: PolySymbol) -> list[dict]:
    """Canonical JSON-ready term list; round-trips bit-exactly."""
    return [
        {"kstar": list(ks), "k": list(k), "re": c.real, "im": c.imag}
        for (ks, k), c in s.terms.items()
    ]


def from_term_list(data, modes: int | None = None) -> PolySymbol:
    if not isinstance(data, list):
        raise ValueError("symbol literal must be a list of terms")
    if modes is None and not data:
        raise ValueError("cannot infer mode count from an empty term list")
    acc: dict[TermKey, complex] = {}
    # PolySymbol's key checks, made here so each key is checked once; as
    # there, the first bad key's message waits until every term's types
    # and the mode count have passed
    key_error = None
    for i, term in enumerate(data):
        if not isinstance(term, dict):
            raise ValueError(f"term {i} is not an object")
        # a misspelt key would otherwise leave its part at zero unnoticed
        unknown = sorted(set(term) - {"kstar", "k", "re", "im"})
        if unknown:
            raise ValueError(
                f"term {i} has unknown key(s) {unknown}; expected kstar, k, re, im"
            )
        for field in ("re", "im"):
            value = term.get(field, 0.0)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"term {i} '{field}' must be a number")
        for field in ("kstar", "k"):
            exponents = term.get(field)
            # json integers only: a float or bool exponent would truncate to
            # an int; checked per distinct type, not per exponent
            if not isinstance(exponents, list) or not all(
                issubclass(kind, int) and not issubclass(kind, bool)
                for kind in set(map(type, exponents))
            ):
                raise ValueError(f"term {i} missing integer list '{field}'")
        key = (tuple(term["kstar"]), tuple(term["k"]))
        if modes is None:
            modes = len(key[0])
        if key_error is None:
            if len(key[0]) != modes or len(key[1]) != modes:
                key_error = f"exponent tuples must have length {modes}"
            elif min(key[0] + key[1], default=0) < 0:
                key_error = "exponents must be non-negative"
        c = complex(float(term.get("re", 0.0)), float(term.get("im", 0.0)))
        acc[key] = acc.get(key, 0j) + c
    if modes < 1:
        raise ValueError("modes must be >= 1")
    if key_error:
        raise ValueError(key_error)
    return PolySymbol._canonical(modes, acc)


def symbol_digest(s: PolySymbol) -> str:
    """Stable content hash of the canonical serialization."""
    payload = json.dumps({"modes": s.modes, "terms": to_term_list(s)},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def max_coeff_difference(s1: PolySymbol, s2: PolySymbol) -> float:
    """Max absolute coefficient deviation over the union of term keys."""
    if s1.modes != s2.modes:
        raise ValueError("mode counts differ")
    keys = set(s1.terms) | set(s2.terms)
    if not keys:
        return 0.0
    return max(abs(s1.terms.get(k, 0j) - s2.terms.get(k, 0j)) for k in keys)
