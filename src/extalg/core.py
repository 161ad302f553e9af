"""What every layer shares and that carries no mathematics of either path.

``PolyT`` is a sparse integer Laurent polynomial in ``t`` whose divisions are
exact or raise ``ExactDivisionError``; ``ResourceCapError`` and
``DEFAULT_CELL_CAP`` guard every exponential path; ``check`` builds the
{"name", "pass", "detail"} records of the batteries; ``Record`` is the base
of every frozen record of the package (``Weight``, ``RootDatum``,
``GPartition``, ``Certificate``, ``WeightMultMap``, ``GradedCharacter``,
``RecurrenceRow``).  This module imports no other module of the package.
"""

__all__ = [
    "Record",
    "PolyT",
    "ExactDivisionError",
    "ResourceCapError",
    "DEFAULT_CELL_CAP",
    "check",
]

#: default guard on the number of (weight, multiplicity) cells a single
#: oracle call may produce; generous enough for every desk-scale sweep
DEFAULT_CELL_CAP = 5_000_000


class ResourceCapError(RuntimeError):
    pass


class ExactDivisionError(ArithmeticError):
    """A polynomial division left a nonzero remainder."""


class Record:
    """A frozen record whose fields are the names in its class's ``__slots__``.

    It gives what ``@dataclass(frozen=True)`` would, without importing
    ``dataclasses`` (16–19 ms of a cold import, notes/decisions.md): an
    ``__init__`` taking the fields in slot order, by position or by name,
    ``AttributeError`` on assignment or deletion, equality of the field
    tuples within one class only, the hash of the field tuple, the dataclass
    repr, and copies and pickles rebuilt through ``__init__``.
    """

    __slots__ = ()

    def __init__(self, *values, **named):
        names = self.__slots__
        if named or len(values) != len(names):
            values = self._bind(values, named)
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _bind(cls, values, named):
        """The field values in slot order, or ``TypeError`` as a call would raise it."""
        names = cls.__slots__
        where = f"{cls.__qualname__}() takes the fields ({', '.join(names)})"
        if len(values) > len(names):
            raise TypeError(f"{where}, got {len(values)} positional values")
        bound = dict(zip(names, values))
        for name, value in named.items():
            if name not in names:
                raise TypeError(f"{where}, got an unexpected field {name!r}")
            if name in bound:
                raise TypeError(f"{where}, got {name!r} twice")
            bound[name] = value
        missing = [name for name in names if name not in bound]
        if missing:
            raise TypeError(f"{where}, missing {', '.join(missing)}")
        return [bound[name] for name in names]

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r} of a frozen {type(self).__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of a frozen {type(self).__qualname__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class PolyT:
    """Sparse integer Laurent polynomial in t, stored as {exponent: coefficient}.

    Every result has the class of ``self``, and only polynomials of the same
    class compare equal, so a subclass that encodes more variables in the one
    exponent (``recurrence.LaurentQS``) reuses this arithmetic unchanged.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        self.c = {}
        if coeffs:
            for e, v in coeffs.items():
                if v:
                    self.c[int(e)] = int(v)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def t(cls, e=1, coeff=1):
        return cls({e: coeff})

    def _new(self, c):
        """A polynomial of this class whose coefficient dict is ``c``."""
        r = type(self)()
        r.c = c
        return r

    def _coerce(self, other):
        """An int operand stands for the constant polynomial."""
        if isinstance(other, int):
            return self._new({0: other} if other else {})
        return other

    def is_zero(self):
        return not self.c

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        other = self._coerce(other)
        return type(other) is type(self) and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __add__(self, other):
        out = dict(self.c)
        for e, v in self._coerce(other).c.items():
            w = out.get(e, 0) + v
            if w:
                out[e] = w
            elif e in out:
                del out[e]
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new({e: -v for e, v in self.c.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, int):
            return self._new({e: v * other for e, v in self.c.items()} if other else {})
        out = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                w = out.get(e, 0) + v1 * v2
                if w:
                    out[e] = w
                elif e in out:
                    del out[e]
        return self._new(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = self._new({0: 1})
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def degree(self):
        if not self.c:
            return None
        return max(self.c)

    def low(self):
        if not self.c:
            return None
        return min(self.c)

    def shift(self, k):
        """Multiply by t**k."""
        return self._new({e + k: v for e, v in self.c.items()})

    def subs_power(self, m):
        """Substitute t -> t**m."""
        return self._new({e * m: v for e, v in self.c.items()})

    def __call__(self, value):
        """Evaluate exactly: an int, or a Fraction when a negative power occurs."""
        if self.c and min(self.c) < 0:
            from fractions import Fraction  # here, so that no import of the package loads it
            value = Fraction(value)
        return sum(v * value ** e for e, v in self.c.items())

    def exact_div(self, other):
        """Exact Laurent division; raises ExactDivisionError on any remainder."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self._new({})
        # normalize both to honest polynomials with nonzero constant terms
        a, b = self.shift(-self.low()), other.shift(-other.low())
        shift = self.low() - other.low()
        quot = {}
        rem = dict(a.c)
        db = b.degree()
        lead = b.c[db]
        while rem:
            dr = max(rem)
            if dr < db:
                raise ExactDivisionError(f"nonzero remainder dividing {self!r} by {other!r}")
            head, r = divmod(rem[dr], lead)
            if r:
                raise ExactDivisionError(f"non-integer quotient dividing {self!r} by {other!r}")
            quot[dr - db] = head
            for e, v in b.c.items():
                w = rem.get(e + dr - db, 0) - head * v
                if w:
                    rem[e + dr - db] = w
                elif e + dr - db in rem:
                    del rem[e + dr - db]
        return self._new(quot).shift(shift)

    def truncate(self, deg):
        return self._new({e: v for e, v in self.c.items() if e <= deg})

    def items_sorted(self):
        return sorted(self.c.items())

    def __repr__(self):
        if not self.c:
            return "0"
        parts = []
        for e, v in self.items_sorted():
            if e == 0:
                parts.append(str(v))
            else:
                head = "" if v == 1 else "-" if v == -1 else f"{v}*"
                parts.append(f"{head}t^{e}" if e != 1 else f"{head}t")
        return " + ".join(parts).replace("+ -", "- ")


def check(checks, name, ok, detail=""):
    """Append one check record to ``checks``."""
    checks.append({"name": name, "pass": bool(ok), "detail": detail})


def _record(checks, name, failure):
    # a check fails exactly when it names a counterexample (the failure
    # helpers return None or "" when there is none)
    check(checks, name, not failure, failure or "")


def _unequal(got, want, where=""):
    return f"{where}got {got}, want {want}" if got != want else ""


def _first_unequal(cases):
    """The detail of the first (where, got, want) case whose sides differ, or ""."""
    for where, got, want in cases:
        if failure := _unequal(got, want, where):
            return failure
    return ""
