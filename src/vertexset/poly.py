"""Sparse polynomial arithmetic with exact coefficients.

Three layers share one storage convention (exponent tuple -> coefficient,
zero coefficients never stored):

* ``NVarPoly``   polynomial in n named-by-index variables, used for the
  deformation parameters of a surface family;
* ``BivarPoly``  polynomial in the surface variables (x, y);
* ``ParamPoly``  bivariate polynomial whose coefficients are ``NVarPoly``
  values, i.e. a family of surfaces over a parameter space.

Coefficients stay exact (int / Fraction) as long as every input is exact.
Operations that introduce irrational data, such as rotation by an arbitrary
angle, fall back to float coefficients.  The rotation convention, fixed for
the whole package, substitutes

    (x, y)  ->  (x cos t + y sin t,  -x sin t + y cos t)

into the arguments, so ``rotate(p, pi/2)`` maps the polynomial x to y.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Union

import numpy as np

from .errors import InputError

Scalar = Union[int, float, Fraction]

_X = "x"
_Y = "y"


def _is_scalar(c) -> bool:
    return isinstance(c, (int, float, Fraction)) or isinstance(c, np.floating) or isinstance(c, np.integer)


def _coerce_scalar(c) -> Scalar:
    if isinstance(c, (int, Fraction)):
        return c
    if isinstance(c, np.integer):
        return int(c)
    if isinstance(c, (float, np.floating)):
        return float(c)
    raise InputError(f"unsupported coefficient type {type(c).__name__}")


def _add_into(terms: dict, key, coeff) -> None:
    cur = terms.get(key)
    if cur is None:
        if not (coeff == 0):
            terms[key] = coeff
        return
    cur = cur + coeff
    if cur == 0:
        del terms[key]
    else:
        terms[key] = cur


def _scale_terms(terms: dict, s) -> dict:
    if s == 0:
        return {}
    return {k: c * s for k, c in terms.items()}


class NVarPoly:
    """Sparse polynomial in ``nvars`` variables.

    Keys are exponent tuples of length ``nvars``; values are exact scalars,
    floats, or anything supporting ring arithmetic against them.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping | None = None):
        if nvars < 0:
            raise InputError("nvars must be nonnegative")
        self.nvars = nvars
        clean: dict = {}
        if terms:
            for exps, c in terms.items():
                key = tuple(int(e) for e in exps)
                if len(key) != nvars or any(e < 0 for e in key):
                    raise InputError(f"bad exponent tuple {exps!r} for {nvars} variables")
                if not (c == 0):
                    _add_into(clean, key, c)
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, nvars: int, terms: dict) -> "NVarPoly":
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def constant(cls, nvars: int, c) -> "NVarPoly":
        if c == 0:
            return cls._raw(nvars, {})
        return cls._raw(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "NVarPoly":
        if not (0 <= index < nvars):
            raise InputError(f"variable index {index} out of range for {nvars} variables")
        key = tuple(1 if i == index else 0 for i in range(nvars))
        return cls._raw(nvars, {key: 1})

    # -- ring operations ----------------------------------------------

    def _check_same(self, other: "NVarPoly") -> None:
        if self.nvars != other.nvars:
            raise InputError("polynomials over different parameter spaces")

    def __add__(self, other):
        if _is_scalar(other):
            other = NVarPoly.constant(self.nvars, _coerce_scalar(other))
        if not isinstance(other, NVarPoly):
            return NotImplemented
        self._check_same(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            _add_into(out, k, c)
        return NVarPoly._raw(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return NVarPoly._raw(self.nvars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, NVarPoly) else -_coerce_scalar(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_scalar(other):
            return NVarPoly._raw(self.nvars, _scale_terms(self.terms, _coerce_scalar(other)))
        if not isinstance(other, NVarPoly):
            return NotImplemented
        self._check_same(other)
        out: dict = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = tuple(a + b for a, b in zip(ka, kb))
                _add_into(out, key, ca * cb)
        return NVarPoly._raw(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise InputError("negative powers are not polynomials")
        out = NVarPoly.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if _is_scalar(other):
            if other == 0:
                return not self.terms
            return len(self.terms) == 1 and self.terms.get((0,) * self.nvars) == other
        if not isinstance(other, NVarPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(k) for k in self.terms)

    def degree_part(self, d: int) -> "NVarPoly":
        """Terms of total degree exactly ``d``."""
        if d < 0:
            raise InputError("degree must be nonnegative")
        return NVarPoly._raw(self.nvars, {k: c for k, c in self.terms.items() if sum(k) == d})

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, 0)

    # -- calculus and substitution --------------------------------------

    def diff(self, index: int) -> "NVarPoly":
        out: dict = {}
        for k, c in self.terms.items():
            e = k[index]
            if e == 0:
                continue
            key = k[:index] + (e - 1,) + k[index + 1 :]
            _add_into(out, key, c * e)
        return NVarPoly._raw(self.nvars, out)

    def eval(self, values: Iterable) -> Scalar:
        vals = [v if isinstance(v, (int, Fraction)) else float(v) for v in values]
        if len(vals) != self.nvars:
            raise InputError(f"expected {self.nvars} parameter values, got {len(vals)}")
        total = 0
        for k, c in self.terms.items():
            term = c
            for v, e in zip(vals, k):
                if e:
                    term = term * v**e
            total = total + term
        return total

    def substitute(self, mapping: Mapping[int, "NVarPoly | Scalar"]) -> "NVarPoly":
        """Replace variables by polynomials; unmapped variables persist."""
        images: dict[int, NVarPoly] = {}
        for i, v in mapping.items():
            if not (0 <= i < self.nvars):
                raise InputError(f"variable index {i} out of range")
            images[i] = v if isinstance(v, NVarPoly) else NVarPoly.constant(self.nvars, _coerce_scalar(v))
        out = NVarPoly.constant(self.nvars, 0)
        for k, c in self.terms.items():
            term = NVarPoly.constant(self.nvars, c)
            for i, e in enumerate(k):
                if not e:
                    continue
                base = images.get(i, NVarPoly.variable(self.nvars, i))
                term = term * base**e
            out = out + term
        return out

    def __repr__(self):
        if not self.terms:
            return "NVarPoly(0)"
        bits = []
        for k in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            mono = "*".join(f"p{i}^{e}" if e > 1 else f"p{i}" for i, e in enumerate(k) if e)
            c = self.terms[k]
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "NVarPoly(" + " + ".join(bits) + ")"


def _power_rows(v: np.ndarray, n: int) -> np.ndarray:
    """The (n, len(v)) array of powers v^0 .. v^(n-1), by repeated products."""
    out = np.empty((n, v.size))
    out[0] = 1.0
    for k in range(1, n):
        np.multiply(out[k - 1], v, out=out[k])
    return out


class BivarPoly:
    """Sparse polynomial in the surface variables (x, y)."""

    __slots__ = ("terms", "_dense_cache")

    def __init__(self, terms: Mapping | None = None):
        clean: dict = {}
        if terms:
            for exps, c in terms.items():
                i, j = exps
                i, j = int(i), int(j)
                if i < 0 or j < 0:
                    raise InputError(f"negative exponent in {exps!r}")
                if not (c == 0):
                    _add_into(clean, (i, j), _coerce_scalar(c))
        self.terms = clean
        self._dense_cache = None

    @classmethod
    def _raw(cls, terms: dict) -> "BivarPoly":
        p = object.__new__(cls)
        p.terms = terms
        p._dense_cache = None
        return p

    @classmethod
    def constant(cls, c) -> "BivarPoly":
        c = _coerce_scalar(c)
        return cls._raw({} if c == 0 else {(0, 0): c})

    @classmethod
    def variable(cls, name: str) -> "BivarPoly":
        if name == _X:
            return cls._raw({(1, 0): 1})
        if name == _Y:
            return cls._raw({(0, 1): 1})
        raise InputError(f"unknown variable {name!r}")

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if _is_scalar(other):
            other = BivarPoly.constant(other)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            _add_into(out, k, c)
        return BivarPoly._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return BivarPoly._raw({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if _is_scalar(other):
            return self + (-_coerce_scalar(other))
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_scalar(other):
            return BivarPoly._raw(_scale_terms(self.terms, _coerce_scalar(other)))
        if not isinstance(other, BivarPoly):
            return NotImplemented
        out: dict = {}
        for (ia, ja), ca in self.terms.items():
            for (ib, jb), cb in other.terms.items():
                _add_into(out, (ia + ib, ja + jb), ca * cb)
        return BivarPoly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise InputError("negative powers are not polynomials")
        out = BivarPoly.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if _is_scalar(other):
            return BivarPoly.constant(other).terms == self.terms
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(i + j for i, j in self.terms)

    def homogeneous_part(self, d: int) -> "BivarPoly":
        if d < 0:
            raise InputError("degree must be nonnegative")
        return BivarPoly._raw({k: c for k, c in self.terms.items() if k[0] + k[1] == d})

    def coeff(self, i: int, j: int):
        return self.terms.get((i, j), 0)

    def is_exact(self) -> bool:
        return all(isinstance(c, (int, Fraction)) for c in self.terms.values())

    # -- calculus -------------------------------------------------------

    def diff(self, var: str) -> "BivarPoly":
        if var == _X:
            idx = 0
        elif var == _Y:
            idx = 1
        else:
            raise InputError(f"unknown variable {var!r}")
        out: dict = {}
        for (i, j), c in self.terms.items():
            e = (i, j)[idx]
            if e == 0:
                continue
            key = (i - 1, j) if idx == 0 else (i, j - 1)
            _add_into(out, key, c * e)
        return BivarPoly._raw(out)

    # -- evaluation ------------------------------------------------------

    def eval(self, x, y):
        x = x if isinstance(x, (int, Fraction)) else float(x)
        y = y if isinstance(y, (int, Fraction)) else float(y)
        total = 0
        for (i, j), c in self.terms.items():
            total = total + c * x**i * y**j
        return total

    def _dense_coeffs(self) -> np.ndarray:
        """Float coefficients as a dense matrix C[i, j] of x^i y^j, cached."""
        c = self._dense_cache
        if c is None:
            nx = max((i for i, _ in self.terms), default=0) + 1
            ny = max((j for _, j in self.terms), default=0) + 1
            c = np.zeros((nx, ny), dtype=np.float64)
            for (i, j), v in self.terms.items():
                c[i, j] = float(v)
            self._dense_cache = c
        return c

    def eval_grid(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Vectorized float evaluation on numpy arrays of broadcastable shapes.

        Evaluates through the dense coefficient matrix C (built on first
        use): the powers of y fill an (n_y, N) array by repeated
        multiplication, one matrix product turns them into the N values of
        the x-polynomial coefficients sum_j C[i, j] y^j, and Horner's rule
        in x finishes.  The result has the broadcast shape of X and Y.
        """
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        if X.shape != Y.shape:
            X, Y = np.broadcast_arrays(X, Y)
        x = X.ravel()
        c = self._dense_coeffs()
        t = c @ _power_rows(Y.ravel(), c.shape[1])
        out = t[-1].copy()
        for row in t[-2::-1]:
            out *= x
            out += row
        return out.reshape(X.shape)

    def eval_lattice(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Float values on the lattice of two axes: Z[i, j] = p(xs[i], ys[j]).

        With the dense coefficient matrix C and the power rows
        Px[a, i] = xs[i]^a, Py[b, j] = ys[j]^b, the lattice is the product
        Px^T C Py: two matrix products of sizes set by the degree and the
        axis lengths, with no meshgrid and no per-point evaluation.
        """
        xs = np.asarray(xs, dtype=np.float64).ravel()
        ys = np.asarray(ys, dtype=np.float64).ravel()
        c = self._dense_coeffs()
        return _power_rows(xs, c.shape[0]).T @ (c @ _power_rows(ys, c.shape[1]))

    # -- geometry ----------------------------------------------------------

    def rotate(self, theta: float | None = None, *, cos_sin: tuple | None = None) -> "BivarPoly":
        """Substitute the package rotation convention into the arguments.

        ``cos_sin`` supplies an exact cosine/sine pair (e.g. Fractions from a
        Pythagorean triple) and keeps the result exact; otherwise ``theta`` is
        used with float trigonometry.
        """
        if cos_sin is not None:
            c, s = cos_sin
        elif theta is not None:
            c, s = math.cos(theta), math.sin(theta)
        else:
            raise InputError("rotate needs an angle or an exact cosine/sine pair")
        xi = BivarPoly._raw({k: v for k, v in (((1, 0), c), ((0, 1), s)) if not (v == 0)})
        eta = BivarPoly._raw({k: v for k, v in (((1, 0), -s), ((0, 1), c)) if not (v == 0)})
        xi_p = _power_list(xi, max((k[0] for k in self.terms), default=0))
        eta_p = _power_list(eta, max((k[1] for k in self.terms), default=0))
        out = BivarPoly.constant(0)
        for (i, j), coeff in self.terms.items():
            out = out + coeff * (xi_p[i] * eta_p[j])
        return out

    def substitute(self, px: "BivarPoly", py: "BivarPoly") -> "BivarPoly":
        """General substitution x -> px, y -> py."""
        xi_p = _power_list(px, max((k[0] for k in self.terms), default=0))
        eta_p = _power_list(py, max((k[1] for k in self.terms), default=0))
        out = BivarPoly.constant(0)
        for (i, j), coeff in self.terms.items():
            out = out + coeff * (xi_p[i] * eta_p[j])
        return out

    def __repr__(self):
        if not self.terms:
            return "BivarPoly(0)"
        bits = []
        for i, j in sorted(self.terms, key=lambda t: (t[0] + t[1], t), reverse=True):
            mono = ""
            if i:
                mono += "x" + (f"^{i}" if i > 1 else "")
            if j:
                mono += ("*" if mono else "") + "y" + (f"^{j}" if j > 1 else "")
            c = self.terms[(i, j)]
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "BivarPoly(" + " + ".join(bits) + ")"


def _power_list(p: BivarPoly, nmax: int) -> list:
    powers = [BivarPoly.constant(1)]
    for _ in range(nmax):
        powers.append(powers[-1] * p)
    return powers


class ParamPoly:
    """Bivariate polynomial whose coefficients are polynomials in n parameters."""

    __slots__ = ("nparams", "terms")

    def __init__(self, nparams: int, terms: Mapping | None = None):
        self.nparams = nparams
        clean: dict = {}
        if terms:
            for exps, c in terms.items():
                i, j = int(exps[0]), int(exps[1])
                if i < 0 or j < 0:
                    raise InputError(f"negative exponent in {exps!r}")
                cp = c if isinstance(c, NVarPoly) else NVarPoly.constant(nparams, _coerce_scalar(c))
                if cp.nvars != nparams:
                    raise InputError("coefficient over wrong parameter space")
                if not cp.is_zero:
                    cur = clean.get((i, j))
                    clean[(i, j)] = cp if cur is None else cur + cp
        self.terms = {k: v for k, v in clean.items() if not v.is_zero}

    @classmethod
    def _raw(cls, nparams: int, terms: dict) -> "ParamPoly":
        p = object.__new__(cls)
        p.nparams = nparams
        p.terms = terms
        return p

    @classmethod
    def from_bivar(cls, p: BivarPoly, nparams: int) -> "ParamPoly":
        return cls._raw(
            nparams, {k: NVarPoly.constant(nparams, c) for k, c in p.terms.items()}
        )

    @classmethod
    def constant(cls, nparams: int, c) -> "ParamPoly":
        cp = c if isinstance(c, NVarPoly) else NVarPoly.constant(nparams, _coerce_scalar(c))
        return cls._raw(nparams, {} if cp.is_zero else {(0, 0): cp})

    @classmethod
    def variable(cls, nparams: int, name: str) -> "ParamPoly":
        key = (1, 0) if name == _X else (0, 1) if name == _Y else None
        if key is None:
            raise InputError(f"unknown variable {name!r}")
        return cls._raw(nparams, {key: NVarPoly.constant(nparams, 1)})

    @classmethod
    def parameter(cls, nparams: int, index: int) -> "ParamPoly":
        return cls._raw(nparams, {(0, 0): NVarPoly.variable(nparams, index)})

    def _coerce(self, other) -> "ParamPoly | None":
        if isinstance(other, ParamPoly):
            if other.nparams != self.nparams:
                raise InputError("polynomials over different parameter spaces")
            return other
        if isinstance(other, NVarPoly):
            return ParamPoly.constant(self.nparams, other)
        if _is_scalar(other):
            return ParamPoly.constant(self.nparams, _coerce_scalar(other))
        if isinstance(other, BivarPoly):
            return ParamPoly.from_bivar(other, self.nparams)
        return None

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in o.terms.items():
            cur = out.get(k)
            c2 = c if cur is None else cur + c
            if c2.is_zero:
                out.pop(k, None)
            else:
                out[k] = c2
        return ParamPoly._raw(self.nparams, out)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly._raw(self.nparams, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_scalar(other) or isinstance(other, NVarPoly):
            s = other if isinstance(other, NVarPoly) else _coerce_scalar(other)
            out = {}
            for k, c in self.terms.items():
                c2 = c * s
                if not c2.is_zero:
                    out[k] = c2
            return ParamPoly._raw(self.nparams, out)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict = {}
        for (ia, ja), ca in self.terms.items():
            for (ib, jb), cb in o.terms.items():
                key = (ia + ib, ja + jb)
                prod = ca * cb
                cur = out.get(key)
                acc = prod if cur is None else cur + prod
                if acc.is_zero:
                    out.pop(key, None)
                else:
                    out[key] = acc
        return ParamPoly._raw(self.nparams, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise InputError("negative powers are not polynomials")
        out = ParamPoly.constant(self.nparams, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash((self.nparams, frozenset(self.terms.items())))

    # -- queries ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(i + j for i, j in self.terms)

    def homogeneous_part(self, d: int) -> "ParamPoly":
        if d < 0:
            raise InputError("degree must be nonnegative")
        return ParamPoly._raw(
            self.nparams, {k: c for k, c in self.terms.items() if k[0] + k[1] == d}
        )

    def coeff(self, i: int, j: int) -> NVarPoly:
        return self.terms.get((i, j), NVarPoly.constant(self.nparams, 0))

    def param_degree_part(self, d: int) -> "ParamPoly":
        """Keep only the parameter-degree-``d`` slice of every coefficient."""
        out = {}
        for k, c in self.terms.items():
            part = c.degree_part(d)
            if not part.is_zero:
                out[k] = part
        return ParamPoly._raw(self.nparams, out)

    # -- calculus and substitution ------------------------------------------

    def diff(self, var: str) -> "ParamPoly":
        if var == _X:
            idx = 0
        elif var == _Y:
            idx = 1
        else:
            raise InputError(f"unknown variable {var!r}")
        out: dict = {}
        for (i, j), c in self.terms.items():
            e = (i, j)[idx]
            if e == 0:
                continue
            key = (i - 1, j) if idx == 0 else (i, j - 1)
            c2 = c * e
            cur = out.get(key)
            acc = c2 if cur is None else cur + c2
            if not acc.is_zero:
                out[key] = acc
        return ParamPoly._raw(self.nparams, out)

    def substitute_params(self, tau: Iterable) -> BivarPoly:
        """Evaluate every coefficient at the parameter point ``tau``.

        Exact (int / Fraction) parameter values give exact coefficients.
        When any entry of ``tau`` is inexact, every coefficient comes out a
        float, parameter-free ones included, so arithmetic on the result
        never mixes Fraction and float.
        """
        vals = list(tau)
        if len(vals) != self.nparams:
            raise InputError(f"expected {self.nparams} parameter values, got {len(vals)}")
        inexact = any(not isinstance(v, (int, Fraction)) for v in vals)
        out: dict = {}
        for k, c in self.terms.items():
            v = c.eval(vals)
            if inexact:
                v = float(v)
            if not (v == 0):
                out[k] = v
        return BivarPoly._raw(out)

    def at_zero(self) -> BivarPoly:
        """The member of the family at parameter 0 (constant coefficient terms)."""
        out = {}
        for k, c in self.terms.items():
            v = c.constant_term()
            if not (v == 0):
                out[k] = v
        return BivarPoly._raw(out)

    def map_coeffs(self, fn: Callable[[NVarPoly], NVarPoly]) -> "ParamPoly":
        out = {}
        for k, c in self.terms.items():
            c2 = fn(c)
            if not c2.is_zero:
                out[k] = c2
        return ParamPoly._raw(self.nparams, out)

    def substitute_param_polys(self, mapping: Mapping[int, NVarPoly]) -> "ParamPoly":
        """Reparametrize: replace each parameter by a polynomial in new parameters."""
        return self.map_coeffs(lambda c: c.substitute(mapping))

    def rotate(self, theta: float | None = None, *, cos_sin: tuple | None = None) -> "ParamPoly":
        """Spatial rotation; parameter coefficients ride along unchanged."""
        if cos_sin is not None:
            c, s = cos_sin
        elif theta is not None:
            c, s = math.cos(theta), math.sin(theta)
        else:
            raise InputError("rotate needs an angle or an exact cosine/sine pair")
        def _lin(cx, cy):
            terms = {}
            for key, v in (((1, 0), cx), ((0, 1), cy)):
                if not (v == 0):
                    terms[key] = NVarPoly.constant(self.nparams, v)
            return ParamPoly._raw(self.nparams, terms)

        xi = _lin(c, s)
        eta = _lin(-s, c)
        ximax = max((k[0] for k in self.terms), default=0)
        etamax = max((k[1] for k in self.terms), default=0)
        xi_p = [ParamPoly.constant(self.nparams, 1)]
        for _ in range(ximax):
            xi_p.append(xi_p[-1] * xi)
        eta_p = [ParamPoly.constant(self.nparams, 1)]
        for _ in range(etamax):
            eta_p.append(eta_p[-1] * eta)
        out = ParamPoly.constant(self.nparams, 0)
        for (i, j), coeff in self.terms.items():
            out = out + (xi_p[i] * eta_p[j]) * coeff
        return out

    def __repr__(self):
        return f"ParamPoly({len(self.terms)} terms, {self.nparams} params)"


# -- comparison helpers -------------------------------------------------------


def bivar_max_coeff_diff(a: BivarPoly, b: BivarPoly) -> float:
    """Largest absolute coefficient difference between two bivariate polynomials."""
    keys = set(a.terms) | set(b.terms)
    return max((abs(float(a.coeff(*k) - b.coeff(*k))) for k in keys), default=0.0)


def param_max_coeff_diff(a: ParamPoly, b: ParamPoly) -> float:
    """Largest absolute coefficient difference, descending into parameter terms."""
    if a.nparams != b.nparams:
        raise InputError("polynomials over different parameter spaces")
    keys = set(a.terms) | set(b.terms)
    worst = 0.0
    zero = NVarPoly.constant(a.nparams, 0)
    for k in keys:
        ca = a.terms.get(k, zero)
        cb = b.terms.get(k, zero)
        pk = set(ca.terms) | set(cb.terms)
        for e in pk:
            d = abs(float(ca.terms.get(e, 0) - cb.terms.get(e, 0)))
            if d > worst:
                worst = d
    return worst


def fit_scalar_ratio(actual, model):
    """Fit ``actual ~ ratio * model`` coefficientwise and report the defect.

    Works on two BivarPoly or two ParamPoly values.  The ratio is taken at
    the model coefficient of largest magnitude, so it is exact whenever both
    polynomials are exact; the defect is the largest absolute coefficient
    residual, as a float.
    """
    pairs = []
    if isinstance(actual, BivarPoly) and isinstance(model, BivarPoly):
        keys = set(actual.terms) | set(model.terms)
        for k in keys:
            pairs.append((actual.coeff(*k), model.coeff(*k)))
    elif isinstance(actual, ParamPoly) and isinstance(model, ParamPoly):
        if actual.nparams != model.nparams:
            raise InputError("polynomials over different parameter spaces")
        zero = NVarPoly.constant(actual.nparams, 0)
        for k in set(actual.terms) | set(model.terms):
            ca = actual.terms.get(k, zero)
            cb = model.terms.get(k, zero)
            for e in set(ca.terms) | set(cb.terms):
                pairs.append((ca.terms.get(e, 0), cb.terms.get(e, 0)))
    else:
        raise InputError("fit_scalar_ratio needs two polynomials of the same kind")
    ref = None
    for a, m in pairs:
        if m != 0 and (ref is None or abs(float(m)) > abs(float(ref[1]))):
            ref = (a, m)
    if ref is None:
        return 0, max((abs(float(a)) for a, _ in pairs), default=0.0)
    if isinstance(ref[0], (int, Fraction)) and isinstance(ref[1], (int, Fraction)):
        ratio = Fraction(ref[0]) / Fraction(ref[1])
    else:
        ratio = float(ref[0]) / float(ref[1])
    defect = 0.0
    for a, m in pairs:
        d = abs(float(a - ratio * m))
        if d > defect:
            defect = d
    return ratio, defect
