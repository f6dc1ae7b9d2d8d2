"""First-order terms, substitutions, and unification.

Terms are variables, constants (atoms), numbers (Python int/float, kept
distinct), and compound structures. Lists use the usual '.'/2 cons cells
terminated by the '[]' atom. Substitutions are immutable; ``unify`` runs
with the occur check, so every substitution it builds is acyclic and
``resolve`` (full application) is idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union


@dataclass(frozen=True, slots=True)
class Var:
    """A logic variable, identified by id; the name is for display only."""

    id: int
    name: Optional[str] = field(default=None, compare=False)

    def display(self) -> str:
        return self.name if self.name else f"_G{self.id}"


@dataclass(frozen=True, slots=True)
class Atom:
    name: str


@dataclass(frozen=True, slots=True)
class Struct:
    functor: str
    args: tuple["Term", ...]

    @property
    def arity(self) -> int:
        return len(self.args)


Term = Union[Var, Atom, int, float, Struct]

NIL = Atom("[]")
TRUE = Atom("true")


def is_number(t: Term) -> bool:
    return type(t) in (int, float)


def term_equal(a: Term, b: Term) -> bool:
    """Structural equality; int and float values never equal each other."""
    if is_number(a) or is_number(b):
        return type(a) is type(b) and a == b
    if isinstance(a, Atom) and isinstance(b, Atom):
        return a.name == b.name
    if isinstance(a, Var) and isinstance(b, Var):
        return a.id == b.id
    if isinstance(a, Struct) and isinstance(b, Struct):
        return (
            a.functor == b.functor
            and a.arity == b.arity
            and all(term_equal(x, y) for x, y in zip(a.args, b.args))
        )
    return False


def mklist(items: list[Term] | tuple[Term, ...], tail: Term = NIL) -> Term:
    out = tail
    for item in reversed(items):
        out = Struct(".", (item, out))
    return out


def list_items(t: Term) -> Optional[list[Term]]:
    """Return the elements of a proper list, or None if t is not one."""
    items: list[Term] = []
    while True:
        if isinstance(t, Atom) and t.name == "[]":
            return items
        if isinstance(t, Struct) and t.functor == "." and t.arity == 2:
            items.append(t.args[0])
            t = t.args[1]
            continue
        return None


class FreshVars:
    """Monotone counter handing out variable (and node) ids."""

    __slots__ = ("_next",)

    def __init__(self, start: int = 0) -> None:
        self._next = start

    def next_id(self) -> int:
        n = self._next
        self._next = n + 1
        return n

    def new(self, name: Optional[str] = None) -> Var:
        return Var(self.next_id(), name)


class Subst:
    """Immutable variable binding map; ``unify`` returns an extended copy."""

    __slots__ = ("_m",)

    def __init__(self, m: Optional[dict[int, Term]] = None) -> None:
        self._m = m or {}

    def __len__(self) -> int:
        return len(self._m)

    def lookup(self, vid: int) -> Optional[Term]:
        return self._m.get(vid)

    def walk(self, t: Term) -> Term:
        """Follow variable bindings shallowly (no descent into structures)."""
        while isinstance(t, Var):
            b = self._m.get(t.id)
            if b is None:
                return t
            t = b
        return t

    def resolve(self, t: Term) -> Term:
        """Apply the substitution fully. Idempotent for occur-checked substs."""
        t = self.walk(t)
        if isinstance(t, Struct):
            return Struct(t.functor, tuple(self.resolve(a) for a in t.args))
        return t


EMPTY_SUBST = Subst()


def unify_trail(t1: Term, t2: Term, s: Subst) -> Optional[tuple[Subst, list[tuple[Var, Term]]]]:
    """Most general unifier with the occur check.

    Returns (extended substitution, list of bindings added) or None. The
    trail lets callers react to which variables were bound (the engine uses
    it to route constrained variables through the network).
    """
    trail: list[tuple[Var, Term]] = []
    m: Optional[dict[int, Term]] = None  # lazily copied

    def walk(t: Term) -> Term:
        while isinstance(t, Var):
            b = m.get(t.id) if m is not None else s.lookup(t.id)
            if b is None:
                return t
            t = b
        return t

    def occ(vid: int, t: Term) -> bool:
        t = walk(t)
        if isinstance(t, Var):
            return t.id == vid
        if isinstance(t, Struct):
            return any(occ(vid, a) for a in t.args)
        return False

    def bind(v: Var, t: Term) -> None:
        nonlocal m
        if m is None:
            m = dict(s._m)
        m[v.id] = t
        trail.append((v, t))

    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        a = walk(a)
        b = walk(b)
        if isinstance(a, Var):
            if isinstance(b, Var) and b.id == a.id:
                continue
            if occ(a.id, b):
                return None
            bind(a, b)
            continue
        if isinstance(b, Var):
            if occ(b.id, a):
                return None
            bind(b, a)
            continue
        if is_number(a) or is_number(b):
            if type(a) is type(b) and a == b:
                continue
            return None
        if isinstance(a, Atom) and isinstance(b, Atom):
            if a.name == b.name:
                continue
            return None
        if isinstance(a, Struct) and isinstance(b, Struct):
            if a.functor != b.functor or a.arity != b.arity:
                return None
            stack.extend(zip(a.args, b.args))
            continue
        return None
    return (Subst(m) if m is not None else s), trail


def unify(t1: Term, t2: Term, s: Subst = EMPTY_SUBST) -> Optional[Subst]:
    r = unify_trail(t1, t2, s)
    return r[0] if r is not None else None


def vars_of(t: Term) -> Iterator[Var]:
    """All variable occurrences in t, left to right (may repeat)."""
    stack = [t]
    while stack:
        x = stack.pop(0)
        if isinstance(x, Var):
            yield x
        elif isinstance(x, Struct):
            stack[0:0] = list(x.args)


def is_ground(t: Term, s: Optional[Subst] = None) -> bool:
    if s is not None:
        t = s.resolve(t)
    return next(vars_of(t), None) is None


def rename_term(t: Term, mapping: dict[int, Var], fresh: FreshVars) -> Term:
    """Copy t with every variable replaced through mapping (extended as needed)."""
    if isinstance(t, Var):
        v = mapping.get(t.id)
        if v is None:
            v = fresh.new(t.name)
            mapping[t.id] = v
        return v
    if isinstance(t, Struct):
        return Struct(t.functor, tuple(rename_term(a, mapping, fresh) for a in t.args))
    return t


def term_sort_key(t: Term) -> tuple:
    """Total order over ground terms: numbers, then atoms, then structures."""
    if is_number(t):
        return (0, float(t), 0 if type(t) is int else 1)
    if isinstance(t, Atom):
        return (1, t.name)
    if isinstance(t, Struct):
        return (2, t.arity, t.functor, tuple(term_sort_key(a) for a in t.args))
    if isinstance(t, Var):
        return (3, t.id)
    raise TypeError(f"not a term: {t!r}")


def is_variant(a: Term, b: Term) -> bool:
    """True if a and b are equal up to a bijective renaming of variables."""
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}

    def go(x: Term, y: Term) -> bool:
        if isinstance(x, Var) and isinstance(y, Var):
            if fwd.setdefault(x.id, y.id) != y.id:
                return False
            return bwd.setdefault(y.id, x.id) == x.id
        if isinstance(x, Var) or isinstance(y, Var):
            return False
        if isinstance(x, Struct) and isinstance(y, Struct):
            return (
                x.functor == y.functor
                and x.arity == y.arity
                and all(go(p, q) for p, q in zip(x.args, y.args))
            )
        return term_equal(x, y)

    return go(a, b)
