"""First-order terms, substitutions, and unification.

Terms are variables, constants (atoms), numbers (Python int/float, kept
distinct), and compound structures. Lists use the usual '.'/2 cons cells
terminated by the '[]' atom; conjunctions are right-nested ','/2.
Substitutions are immutable; ``unify`` runs with the occur check, so every
substitution it builds is acyclic and ``resolve`` (full application) is
idempotent.

No walk recurses in Python, so a term as deep as a long CPT list is fine.
Walks are built on three explicit-stack primitives: ``_rebuild`` (resolve,
rename), ``subterms`` and ``_leaf_pairs`` (equality, variance). Resolving
or renaming returns unchanged subterms as they are, so ground subterms
such as CPT lists are shared, not copied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_
from typing import Callable, Iterator, Optional, Union


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


def is_number(t: Term) -> bool:
    return type(t) in (int, float)


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


def mkconj(goals: list[Term]) -> Term:
    """Right-nested ','/2 conjunction of one or more goals."""
    g = goals[-1]
    for h in reversed(goals[:-1]):
        g = Struct(",", (h, g))
    return g


def conj_items(t: Term) -> list[Term]:
    """The goals of a conjunction, left to right, however its ','/2 nest."""
    items: list[Term] = []
    stack = [t]
    while stack:
        x = stack.pop()
        if type(x) is Struct and x.functor == "," and len(x.args) == 2:
            stack += reversed(x.args)
        else:
            items.append(x)
    return items


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


# --- traversal primitives --------------------------------------------------


def _rebuild(t: Term, step: Callable[[Var], Term]) -> Term:
    """t with each variable v replaced by step(v), descending into what step
    returns. A structure whose arguments are all unchanged is returned as is."""
    if type(t) is Var:
        t = step(t)
    if type(t) is not Struct:
        return t
    # one frame per structure being copied: (structure, its args, new args)
    frames = [(t, t.args, [])]
    while True:
        s, args, out = frames[-1]
        for a in args[len(out) :]:
            if type(a) is Var:
                a = step(a)
            if type(a) is Struct:
                frames.append((a, a.args, []))
                break
            out.append(a)
        else:
            frames.pop()
            new = s if all(map(is_, out, args)) else Struct(s.functor, tuple(out))
            if not frames:
                return new
            frames[-1][2].append(new)


def subterms(t: Term, step: Optional[Callable[[Var], Term]] = None) -> Iterator[Term]:
    """Every subterm of t in pre-order, left to right; with step, each
    variable v is replaced by step(v) before it is yielded and descended."""
    stack = [t]
    while stack:
        x = stack.pop()
        if step is not None and type(x) is Var:
            x = step(x)
        yield x
        if type(x) is Struct:
            stack.extend(reversed(x.args))


def _leaf_pairs(a: Term, b: Term) -> Iterator[tuple[Term, Term]]:
    """Corresponding subterms of a and b in pre-order, left to right, except
    the pairs of structures with the same functor and arity (descended)."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is type(y) is Struct and x.functor == y.functor and len(x.args) == len(y.args):
            stack.extend(zip(reversed(x.args), reversed(y.args)))
        else:
            yield x, y


def _leaf_equal(x: Term, y: Term) -> bool:
    """Equality of a pair from ``_leaf_pairs`` (structures there differ)."""
    tx = type(x)
    if tx is not type(y):
        return False
    if tx is Atom:
        return x.name == y.name
    if tx is Var:
        return x.id == y.id
    return (tx is int or tx is float) and x == y


class Subst:
    """Immutable variable binding map; ``unify`` returns an extended copy."""

    __slots__ = ("_m",)

    def __init__(self, m: Optional[dict[int, Term]] = None) -> None:
        self._m = m or {}

    def __len__(self) -> int:
        return len(self._m)

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
        return _rebuild(t, self.walk)


EMPTY_SUBST = Subst()


def unify_trail(t1: Term, t2: Term, s: Subst) -> Optional[tuple[Subst, list[tuple[Var, Term]]]]:
    """Most general unifier with the occur check.

    Returns (extended substitution, list of bindings added) or None. The
    trail lets callers react to which variables were bound (the engine uses
    it to route constrained variables through the network).
    """
    trail: list[tuple[Var, Term]] = []
    out = s  # copied before the first binding
    walk = s.walk
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        a = walk(a)
        b = walk(b)
        if type(b) is Var and type(a) is not Var:
            a, b = b, a
        if type(a) is Var:
            if type(b) is Var and b.id == a.id:
                continue
            # occur check; of the terms a can be bound to, only a structure can hold a
            occurs = (type(x) is Var and x.id == a.id for x in subterms(b, walk))
            if type(b) is Struct and any(occurs):
                return None
            if out is s:
                out = Subst(dict(s._m))
                walk = out.walk
            out._m[a.id] = b
            trail.append((a, b))
        elif type(a) is type(b) is Struct and a.functor == b.functor and len(a.args) == len(b.args):
            stack.extend(zip(a.args, b.args))
        elif not _leaf_equal(a, b):
            return None
    return out, trail


def unify(t1: Term, t2: Term, s: Subst = EMPTY_SUBST) -> Optional[Subst]:
    r = unify_trail(t1, t2, s)
    return r[0] if r is not None else None


# --- walks -------------------------------------------------------------------


def term_equal(a: Term, b: Term) -> bool:
    """Structural equality; int and float values never equal each other."""
    if type(a) is not Struct or type(b) is not Struct:
        return _leaf_equal(a, b)
    return all(_leaf_equal(x, y) for x, y in _leaf_pairs(a, b))


def is_variant(a: Term, b: Term) -> bool:
    """True if a and b are equal up to a bijective renaming of variables."""
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}
    for x, y in _leaf_pairs(a, b):
        if type(x) is Var and type(y) is Var:
            if fwd.setdefault(x.id, y.id) != y.id or bwd.setdefault(y.id, x.id) != x.id:
                return False
        elif not _leaf_equal(x, y):
            return False
    return True


def term_sort_key(t: Term) -> tuple:
    """Total order over ground terms: numbers, then atoms, then structures.

    Flat pre-order fields per subterm; no term's key is a proper prefix of
    another's, so this orders like the nested, argument-by-argument key."""
    key: list = []
    for x in subterms(t):
        tx = type(x)
        if tx is int or tx is float:
            key += (0, float(x), 0 if tx is int else 1)
        elif tx is Atom:
            key += (1, x.name)
        elif tx is Struct:
            key += (2, len(x.args), x.functor)
        elif tx is Var:
            key += (3, x.id)
        else:
            raise TypeError(f"not a term: {x!r}")
    return tuple(key)


def vars_of(t: Term) -> Iterator[Var]:
    """All variable occurrences in t, left to right (may repeat)."""
    return (x for x in subterms(t) if type(x) is Var)


def is_ground(t: Term) -> bool:
    for x in subterms(t):
        if type(x) is Var:
            return False
    return True


def rename_term(t: Term, mapping: dict[int, Var], fresh: FreshVars) -> Term:
    """Copy t with every variable replaced through mapping (extended as needed)."""

    def step(v: Var) -> Var:
        w = mapping.get(v.id)
        if w is None:
            w = mapping[v.id] = fresh.new(v.name)
        return w

    return _rebuild(t, step)
