"""Sparse polynomial arithmetic with exact coefficients.

``NVarPoly`` is the one sparse ring: a polynomial in n variables stored as
a dict from exponent tuple to coefficient, zero coefficients never stored.
Polynomials in the deformation parameters alone are plain ``NVarPoly``
values.  Two subclasses read variables 0 and 1 as the surface variables
x and y:

* ``BivarPoly``  polynomial in (x, y) alone, with the lattice kernel
  ``eval_lattice`` of the tracer;
* ``ParamPoly``  polynomial in (x, y) and n deformation parameters, i.e. a
  family of surfaces; parameter k is variable 2 + k.

``PolyField`` evaluates a plane polynomial, or the members of a family at
fixed parameters (``ParamPoly.slices``), with its x, y partial derivatives
up to order 2 and a member's parameter partials in one kernel, from
partials stacked once per polynomial.  The tracer's projections and
Newton solves, the critical-point solves and the (x, y, t) solves of the
scans take their derivatives from it, so none of them builds a
derivative polynomial.

Ring operations return a polynomial of the class of their left operand.
Every polynomial evaluates through ``NVarPoly``: ``eval`` at one point,
exactly when the inputs are exact, and ``eval_grid`` in floats on numpy
arrays through a dense coefficient array, so a family evaluates at
(x, y, tau) arrays as a surface does at (x, y).

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
from operator import add
from typing import Iterable, Mapping, Union

import numpy as np

from .errors import InputError

Scalar = Union[int, float, Fraction]

_XY_INDEX = {"x": 0, "y": 1}


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


def _exact_or_float(v):
    return v if isinstance(v, (int, Fraction)) else float(v)


def _xy_index(var: str) -> int:
    if var not in _XY_INDEX:
        raise InputError(f"unknown variable {var!r}")
    return _XY_INDEX[var]


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


def _unit(nvars: int, index: int) -> tuple:
    return tuple(int(i == index) for i in range(nvars))


class NVarPoly:
    """Sparse polynomial in ``nvars`` variables.

    Keys are exponent tuples of length ``nvars``; values are exact scalars
    or floats.
    """

    __slots__ = ("nvars", "terms", "_dense_cache", "_diff_cache", "_stack_cache")

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
                _add_into(clean, key, _coerce_scalar(c))
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, nvars: int, terms: dict) -> "NVarPoly":
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    def _with(self, terms: dict) -> "NVarPoly":
        """A polynomial of this class over the same variables."""
        return self._raw(self.nvars, terms)

    def _constant(self, c) -> "NVarPoly":
        return self._with({} if c == 0 else {(0,) * self.nvars: c})

    @classmethod
    def constant(cls, nvars: int, c) -> "NVarPoly":
        return cls._raw(nvars, {} if c == 0 else {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "NVarPoly":
        if not (0 <= index < nvars):
            raise InputError(f"variable index {index} out of range for {nvars} variables")
        return cls._raw(nvars, {_unit(nvars, index): 1})

    # -- ring operations ----------------------------------------------

    def _check_same(self, other: "NVarPoly") -> None:
        if self.nvars != other.nvars:
            raise InputError("polynomials over different parameter spaces")

    def __add__(self, other):
        out = dict(self.terms)
        if _is_scalar(other):
            _add_into(out, (0,) * self.nvars, _coerce_scalar(other))
        elif isinstance(other, NVarPoly):
            self._check_same(other)
            for k, c in other.terms.items():
                _add_into(out, k, c)
        else:
            return NotImplemented
        return self._with(out)

    __radd__ = __add__

    def __neg__(self):
        return self._with({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, NVarPoly) or _is_scalar(other):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_scalar(other):
            return self._with(_scale_terms(self.terms, _coerce_scalar(other)))
        if not isinstance(other, NVarPoly):
            return NotImplemented
        self._check_same(other)
        out: dict = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                _add_into(out, tuple(map(add, ka, kb)), ca * cb)
        return self._with(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise InputError("negative powers are not polynomials")
        out = self._constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        if _is_scalar(other):
            return self.terms == self._constant(other).terms
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
        return max((sum(k) for k in self.terms), default=-1)

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, 0)

    # -- calculus and substitution --------------------------------------

    def diff(self, index: int) -> "NVarPoly":
        """Derivative in variable ``index``, cached on this polynomial (the
        slot stays unset until the first call); no operation mutates
        ``terms``, so the cached result stays valid."""
        cache = getattr(self, "_diff_cache", None)
        if cache is None:
            cache = self._diff_cache = {}
        d = cache.get(index)
        if d is None:
            out: dict = {}
            for k, c in self.terms.items():
                e = k[index]
                if e == 0:
                    continue
                key = k[:index] + (e - 1,) + k[index + 1 :]
                _add_into(out, key, c * e)
            d = cache[index] = self._with(out)
        return d

    def eval(self, values: Iterable) -> Scalar:
        vals = [_exact_or_float(v) for v in values]
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

    def _dense_coeffs(self) -> np.ndarray:
        """Float coefficients as a dense array, C[e] that of the monomial
        with exponents e, cached (the slot stays unset until the first call)."""
        c = getattr(self, "_dense_cache", None)
        if c is None:
            c = np.zeros(tuple(max(col) + 1 for col in zip(*self.terms)) or (1,) * self.nvars)
            for k, v in self.terms.items():
                c[k] = float(v)
            self._dense_cache = c
        return c

    def eval_grid(self, *values) -> np.ndarray:
        """Vectorized float evaluation at numpy arrays of broadcastable
        shapes, one per variable.

        Evaluates through the dense coefficient array C (built on first
        use): the powers of the last variable fill an (n_last, N) array by
        repeated multiplication, one matrix product contracts the last axis
        of C with them, and Horner's rule removes the other variables one
        at a time, first to last.  The result has the broadcast shape of
        the inputs.
        """
        vals = [np.asarray(v, dtype=np.float64) for v in values]
        if len(vals) != self.nvars:
            raise InputError(f"expected {self.nvars} arrays, got {len(vals)}")
        if any(v.shape != vals[0].shape for v in vals):
            vals = np.broadcast_arrays(*vals)
        c = self._dense_coeffs()
        t = c @ _power_rows(vals[-1].ravel(), c.shape[-1])
        for v in vals[:-1]:
            x = v.ravel()
            out = t[-1].copy()
            for row in t[-2::-1]:
                out *= x
                out += row
            t = out
        return t.reshape(vals[0].shape)

    def substitute(self, mapping: Mapping[int, "NVarPoly | Scalar"]) -> "NVarPoly":
        """Replace variables by polynomials over the same variables, or by
        scalars; unmapped variables persist."""
        powers: dict = {}
        for i in sorted(mapping):
            if not (0 <= i < self.nvars):
                raise InputError(f"variable index {i} out of range")
            v = mapping[i]
            image = v if isinstance(v, NVarPoly) else self._constant(_coerce_scalar(v))
            powers[i] = _power_list(image, max((k[i] for k in self.terms), default=0))
        out: dict = {}
        for k, c in self.terms.items():
            factor = None
            for i, pw in powers.items():
                if k[i]:
                    factor = pw[k[i]] if factor is None else factor * pw[k[i]]
            mono = self._with({tuple(0 if i in powers else e for i, e in enumerate(k)): c})
            term = mono if factor is None else factor * mono
            for kk, cc in term.terms.items():
                _add_into(out, kk, cc)
        return self._with(out)

    def __repr__(self):
        if not self.terms:
            return "NVarPoly(0)"
        bits = []
        for k in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            mono = "*".join(f"p{i}^{e}" if e > 1 else f"p{i}" for i, e in enumerate(k) if e)
            c = self.terms[k]
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "NVarPoly(" + " + ".join(bits) + ")"


def _power_list(p: NVarPoly, nmax: int) -> list:
    powers = [p._constant(1)]
    for _ in range(nmax):
        powers.append(powers[-1] * p)
    return powers


def _power_rows(v: np.ndarray, n: int) -> np.ndarray:
    """The (n, len(v)) array of powers v^0 .. v^(n-1), by repeated products."""
    out = np.empty((n, v.size))
    out[0] = 1.0
    for k in range(1, n):
        np.multiply(out[k - 1], v, out=out[k])
    return out


class _PlaneView:
    """The surface variables x and y as variables 0 and 1 of the ring:
    what ``BivarPoly`` and ``ParamPoly`` share."""

    __slots__ = ()

    def diff(self, var: str):
        return NVarPoly.diff(self, _xy_index(var))

    def total_degree(self) -> int:
        """Degree in x and y; -1 for the zero polynomial."""
        return max((k[0] + k[1] for k in self.terms), default=-1)

    def homogeneous_part(self, d: int):
        """Terms of degree exactly ``d`` in x and y."""
        if d < 0:
            raise InputError("degree must be nonnegative")
        return self._with({k: c for k, c in self.terms.items() if k[0] + k[1] == d})

    def rotate(self, theta: float | None = None, *, cos_sin: tuple | None = None):
        """Substitute the package rotation convention into x and y.

        ``cos_sin`` supplies an exact cosine/sine pair (e.g. Fractions from a
        Pythagorean triple) and keeps the result exact; otherwise ``theta`` is
        used with float trigonometry.  Other variables ride along unchanged.
        """
        if cos_sin is not None:
            c, s = cos_sin
        elif theta is not None:
            c, s = math.cos(theta), math.sin(theta)
        else:
            raise InputError("rotate needs an angle or an exact cosine/sine pair")
        x = self._with({_unit(self.nvars, 0): 1})
        y = self._with({_unit(self.nvars, 1): 1})
        return self.substitute({0: x * c + y * s, 1: x * -s + y * c})

    def _partials(self) -> np.ndarray:
        """``_partial_stack`` of the dense coefficients, cached (the slot
        stays unset until the first call)."""
        st = getattr(self, "_stack_cache", None)
        if st is None:
            st = self._stack_cache = _partial_stack(self._dense_coeffs())
        return st


class BivarPoly(_PlaneView, NVarPoly):
    """Sparse polynomial in the surface variables (x, y)."""

    __slots__ = ()

    def __init__(self, terms: Mapping | None = None):
        super().__init__(2, terms)

    @classmethod
    def constant(cls, c) -> "BivarPoly":
        c = _coerce_scalar(c)
        return cls._raw(2, {} if c == 0 else {(0, 0): c})

    @classmethod
    def variable(cls, name: str) -> "BivarPoly":
        return cls._raw(2, {_unit(2, _xy_index(name)): 1})

    def __mul__(self, other):
        # two-index keys: vertex_poly of a float surface is mostly this loop
        if _is_scalar(other):
            return self._with(_scale_terms(self.terms, _coerce_scalar(other)))
        if not isinstance(other, BivarPoly):
            return NotImplemented
        out: dict = {}
        for (ia, ja), ca in self.terms.items():
            for (ib, jb), cb in other.terms.items():
                _add_into(out, (ia + ib, ja + jb), ca * cb)
        return self._with(out)

    __rmul__ = __mul__

    # -- queries -------------------------------------------------------

    def coeff(self, i: int, j: int):
        return self.terms.get((i, j), 0)

    def is_exact(self) -> bool:
        return all(isinstance(c, (int, Fraction)) for c in self.terms.values())

    # -- evaluation ------------------------------------------------------

    def eval(self, x, y):
        return NVarPoly.eval(self, (x, y))

    # bench/layers.py times eval_grid through this class's own binding
    eval_grid = NVarPoly.eval_grid

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


class ParamPoly(_PlaneView, NVarPoly):
    """Polynomial in (x, y) and ``nparams`` deformation parameters.

    Keys are flat exponent tuples (i, j, e_1, ..., e_n) of x^i y^j times the
    parameter monomial.  The constructor also takes a bivariate layout
    {(i, j): NVarPoly over the parameters, or scalar}.
    """

    __slots__ = ("_float_cache",)

    # bench/layers.py times __mul__ per class, through this class's own binding
    __mul__ = __rmul__ = NVarPoly.__mul__

    def __init__(self, nparams: int, terms: Mapping | None = None):
        flat: dict = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if isinstance(c, NVarPoly):
                if c.nvars != nparams:
                    raise InputError("coefficient over wrong parameter space")
                for e, ce in c.terms.items():
                    _add_into(flat, exps + e, ce)
            else:
                _add_into(flat, exps if len(exps) == 2 + nparams else exps + (0,) * nparams, c)
        super().__init__(2 + nparams, flat)

    @property
    def nparams(self) -> int:
        return self.nvars - 2

    @classmethod
    def from_bivar(cls, p: BivarPoly, nparams: int) -> "ParamPoly":
        pad = (0,) * nparams
        return cls._raw(2 + nparams, {k + pad: c for k, c in p.terms.items()})

    @classmethod
    def constant(cls, nparams: int, c) -> "ParamPoly":
        """The family constant in x and y; ``c`` is a scalar or an
        ``NVarPoly`` over the parameters."""
        return cls(nparams, {(0, 0): c})

    @classmethod
    def variable(cls, nparams: int, name: str) -> "ParamPoly":
        return cls._raw(2 + nparams, {_unit(2 + nparams, _xy_index(name)): 1})

    @classmethod
    def parameter(cls, nparams: int, index: int) -> "ParamPoly":
        if not (0 <= index < nparams):
            raise InputError(f"parameter index {index} out of range for {nparams} parameters")
        return cls._raw(2 + nparams, {_unit(2 + nparams, 2 + index): 1})

    # -- the bivariate view -------------------------------------------------

    def coeff(self, i: int, j: int) -> NVarPoly:
        """The coefficient of x^i y^j, a polynomial in the parameters."""
        return NVarPoly._raw(self.nparams, {
            k[2:]: c for k, c in self.terms.items() if k[0] == i and k[1] == j})

    def param_degree_part(self, d: int) -> "ParamPoly":
        """Keep only the terms of degree ``d`` in the parameters."""
        return self._with({k: c for k, c in self.terms.items() if sum(k[2:]) == d})

    def substitute_params(self, tau: Iterable) -> BivarPoly:
        """Evaluate at the parameter point ``tau``.

        Exact (int / Fraction) parameter values give exact coefficients.
        When any entry of ``tau`` is inexact, every coefficient comes out a
        float, parameter-free ones included, so arithmetic on the result
        never mixes Fraction and float; each is then summed in key order.
        The result keeps the x/y term order of this polynomial.
        """
        vals = [_exact_or_float(v) for v in tau]
        if len(vals) != self.nparams:
            raise InputError(f"expected {self.nparams} parameter values, got {len(vals)}")
        if all(isinstance(v, (int, Fraction)) for v in vals):
            terms = [(k[:2], k[2:], c) for k, c in self.terms.items()]
        else:
            terms = self._float_terms()
        out = {k[:2]: 0 for k in self.terms}
        for xy, es, c in terms:
            term = c
            for v, e in zip(vals, es):
                if e:
                    term = term * v**e
            out[xy] = out[xy] + term
        return BivarPoly._raw(2, {k: v for k, v in out.items() if not (v == 0)})

    def _float_terms(self) -> list:
        """(x/y exponents, parameter exponents, float coefficient) of every
        term in key order, cached (the slot stays unset until the first call).
        Float products round an exact coefficient first; the order is fixed."""
        t = getattr(self, "_float_cache", None)
        if t is None:
            t = self._float_cache = [(k[:2], k[2:], float(c)) for k, c in sorted(self.terms.items())]
        return t

    def slices(self, taus) -> "PolyField":
        """The members p(x, y, tau_s) at the rows tau_s of ``taus``, as one
        ``PolyField`` whose points are rows (x, y, s).

        The parameter monomials of all rows form one (S, d_1, .., d_n)
        array, and one matrix product contracts it with the parameter axes
        of the stacked partials of p (``_partial_stack``, built once), so
        each member carries its parameter partials dp/dtau_k too.
        """
        taus = np.asarray(taus, dtype=np.float64).reshape(-1, self.nparams)
        st = self._partials()
        m = np.ones(len(taus))
        for k, d in enumerate(st.shape[3:]):
            m = m[..., None] * _power_rows(taus[:, k], d).T.reshape(len(taus), *(1,) * k, d)
        t = m.reshape(len(taus), -1) @ st.reshape(math.prod(st.shape[:3]), -1).T
        return PolyField(np.ascontiguousarray(t.reshape(-1, *st.shape[:3]).swapaxes(0, 1)))

    def at_zero(self) -> BivarPoly:
        """The member of the family at parameter 0 (parameter-free terms)."""
        return BivarPoly._raw(2, {k[:2]: c for k, c in self.terms.items() if not any(k[2:])})

    def __repr__(self):
        return f"ParamPoly({len(self.terms)} terms, {self.nparams} params)"


class PolyField:
    """A plane polynomial F, or the members of a family at fixed
    parameters, evaluated with its partial derivatives.

    ``PolyField(p)`` holds one ``BivarPoly`` p, or the members s of a
    family with the stacked partials of ``_partial_stack`` at each member,
    a (6 + n, S, nx, ny) array (``ParamPoly.slices``), whose points are
    rows (x, y, s) naming the member s.  Every partial derivative comes
    from one kernel, ``partials``: one matrix product contracts the stack
    with the powers of y, and one sum of products with the powers of x.
    F alone comes from ``eval_grid``, whose Horner rule in x beats the
    powers of x on large batches.
    """

    __slots__ = ("p", "_stack")

    def __init__(self, p: BivarPoly | np.ndarray):
        self.p = p if isinstance(p, BivarPoly) else None
        self._stack = p if self.p is None else p._partials()[:, None]

    def value(self, x: float, y: float) -> float:
        return float(self.p.eval(float(x), float(y)))

    def values(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return self.p.eval_grid(pts[..., 0], pts[..., 1])

    def grads(self, pts: np.ndarray) -> np.ndarray:
        return self.partials(pts, 1)[1]

    def partials(self, pts, order: int) -> tuple:
        """F at the rows of ``pts``, with its gradient for ``order`` 1 and
        its x, y gradient and Hessian for ``order`` 2: arrays of shapes
        (n,), (n, 2) and (n, 2, 2).  On family members the gradient of
        ``order`` 1 has the columns dF/dtau_k after dF/dx and dF/dy, so its
        shape is (n, 2 + nparams)."""
        if order not in (0, 1, 2):
            raise InputError("partials are available up to order 2")
        pts = np.asarray(pts, dtype=np.float64)
        pts = pts.reshape(-1, pts.shape[-1])
        if order == 0 and self.p is not None:
            return (self.values(pts),)
        n = len(pts)
        # order 0 contracts F, order 1 F, F_x, F_y and F_tau_k, order 2
        # F_xx, F_xy, F_yy, F, F_x and F_y (see ``_partial_stack``)
        st = self._stack[(slice(3, 4), slice(3, None), slice(0, 6))[order]]
        m, s, nx, ny = st.shape
        # powers of x in the first n columns, of y in the last n
        pw = _power_rows(pts[:, :2].T.ravel(), max(nx, ny))
        t = (st.reshape(-1, nx, ny) @ pw[:ny, n:]).reshape(m, s, nx, n)
        # each row takes the member its third coordinate names
        t = t[:, 0] if s == 1 else t[:, pts[:, 2].astype(np.intp), :, np.arange(n)].transpose(1, 2, 0)
        d = np.einsum("pin,in->pn", t, pw[:nx, :n])
        if order < 2:
            return (d[0], d[1:].T)[:order + 1]
        return d[3], d[4:].T, d[[[0, 1], [1, 2]]].transpose(2, 0, 1)

    def bound_on_disc(self, radius) -> np.ndarray:
        """sum |c_ij| radius^(i+j) over the coefficients c_ij of each
        member: a bound on |F| over the disc of that radius, the scale
        residuals of F are measured against.  ``radius`` is one value, or
        one per member."""
        c = np.abs(self._stack[3])
        s, nx, ny = c.shape
        pw = _power_rows(np.broadcast_to(np.asarray(radius, dtype=np.float64), s), max(nx, ny))
        return np.einsum("sij,is,js->s", c, pw[:nx], pw[:ny])


def _partial_stack(c: np.ndarray) -> np.ndarray:
    """The dense coefficients of F_xx, F_xy, F_yy, F, F_x, F_y and
    F_tau_k, k = 1..n, in this order, for the polynomial with dense
    coefficients c (axes x, y and the n parameters): one (6 + n,) + c.shape
    array, in which the partials of each order of ``PolyField.partials``
    are one slice.  Each derivative shifts the coefficients of the one it
    differentiates down one power along its axis and weights them by the
    exponent."""
    out = np.zeros((4 + c.ndim,) + c.shape)
    out[3] = c
    w = [np.arange(1, n).reshape((-1,) + (1,) * (c.ndim - 1 - a)) for a, n in enumerate(c.shape)]
    steps = [(4, 3, 0), (5, 3, 1), (0, 4, 0), (1, 4, 1), (2, 5, 1)] + [
        (4 + a, 3, a) for a in range(2, c.ndim)]
    for k, src, axis in steps:
        cut = (slice(None),) * axis
        out[(k, *cut, slice(None, -1))] = w[axis] * out[(src, *cut, slice(1, None))]
    return out


# -- comparison helpers -------------------------------------------------------


def max_coeff_diff(a: NVarPoly, b: NVarPoly) -> float:
    """Largest absolute coefficient difference between two polynomials."""
    a._check_same(b)
    keys = a.terms.keys() | b.terms.keys()
    return max((abs(float(a.terms.get(k, 0) - b.terms.get(k, 0))) for k in keys), default=0.0)


def fit_scalar_ratio(actual: NVarPoly, model: NVarPoly):
    """Fit ``actual ~ ratio * model`` coefficientwise and report the defect.

    The ratio is taken at the model coefficient of largest magnitude, so it
    is exact whenever both polynomials are exact; the defect is the largest
    absolute coefficient residual, as a float.
    """
    if not (isinstance(actual, NVarPoly) and isinstance(model, NVarPoly)):
        raise InputError("fit_scalar_ratio needs two polynomials")
    actual._check_same(model)
    pairs = [(actual.terms.get(k, 0), model.terms.get(k, 0))
             for k in set(actual.terms) | set(model.terms)]
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
