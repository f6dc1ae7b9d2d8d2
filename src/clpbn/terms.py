"""First-order terms, bindings, and unification.

Terms are variables, constants (atoms), numbers (Python int/float, kept
distinct), and compound structures. Lists use the usual '.'/2 cons cells
terminated by the '[]' atom; conjunctions are right-nested ','/2.

Bindings live in a ``Subst`` and change in place. Each change is logged on
an undo trail, a list of ``(dict, key, old value)`` entries; ``mark`` and
``undo`` take the bindings back to an earlier point, as a WAM does on
backtracking. Other stores (the engine's constraint network) log their
changes on the same trail, so one ``undo`` restores all of them.
``unify`` runs with the occur check, so the bindings stay acyclic and
``resolve`` (full application) is idempotent.

No walk recurses in Python, so a term as deep as a long CPT list is fine.
Walks are built on three explicit-stack primitives: ``_rebuild`` (resolve,
rename), ``subterms`` and ``_leaf_pairs`` (equality, variance). Resolving
or renaming returns unchanged subterms as they are, so ground subterms
such as CPT lists are shared, not copied. A clause the engine renames on
every try is compiled once (``compile_terms``) into a flat post-order
code that ``instantiate`` runs without walking its ground subterms.
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

    def peek(self) -> int:
        """The id the next draw hands out."""
        return self._next

    def skip(self, k: int) -> None:
        """Hand out k ids to no one."""
        self._next += k

    def new(self, name: Optional[str] = None) -> Var:
        return Var(self.next_id(), name)

    def new_many(self, names: list[Optional[str]]) -> list[Var]:
        """One fresh variable per name, ids in order (as repeated ``new``)."""
        n = self._next
        self._next = n + len(names)
        return [Var(n + i, name) for i, name in enumerate(names)]


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


# trail entry value for a key that was absent before the change
_ABSENT = object()


def trail_set(trail: list, d: dict, key, value) -> None:
    """d[key] = value, logged on trail so that ``Subst.undo`` reverts it."""
    trail.append((d, key, d.get(key, _ABSENT)))
    d[key] = value


def trail_del(trail: list, d: dict, key) -> None:
    """del d[key], logged on trail so that ``Subst.undo`` reverts it."""
    trail.append((d, key, d.pop(key)))


class Subst:
    """Variable bindings, changed in place and logged on an undo trail.

    The trail may be shared with other stores; ``undo(mark)`` reverts every
    change logged on it since ``mark()``, whichever store it touched."""

    __slots__ = ("_m", "trail")

    def __init__(self) -> None:
        self._m: dict[int, Term] = {}
        self.trail: list = []

    def __len__(self) -> int:
        return len(self._m)

    def walk(self, t: Term) -> Term:
        """Follow variable bindings shallowly (no descent into structures)."""
        while type(t) is Var:
            b = self._m.get(t.id)
            if b is None:
                return t
            t = b
        return t

    def resolve(self, t: Term) -> Term:
        """Apply the bindings fully. Idempotent, as unify keeps them acyclic."""
        return _rebuild(t, self.walk)

    def mark(self) -> int:
        return len(self.trail)

    def undo(self, mark: int) -> None:
        """Revert every change logged on the trail since mark, newest first."""
        trail = self.trail
        while len(trail) > mark:
            d, key, old = trail.pop()
            if old is _ABSENT:
                del d[key]
            else:
                d[key] = old

    def bound_since(self, mark: int) -> Iterator[tuple[int, Term]]:
        """(variable id, term) for each binding made since mark, oldest
        first, including bindings made while the iteration runs."""
        trail, m = self.trail, self._m
        i = mark
        while i < len(trail):
            d, key, _old = trail[i]
            i += 1
            if d is m:
                yield key, m[key]

    def snapshot(self) -> "Subst":
        """A copy of the current bindings with a trail of its own."""
        out = Subst()
        out._m = dict(self._m)
        return out


def unify(t1: Term, t2: Term, s: Subst) -> bool:
    """Most general unifier with the occur check, bound into s in place.

    On failure every binding made by the attempt is undone and s is as it
    was. On success ``s.bound_since(s.mark())`` taken before the call lists
    the new bindings (the engine routes constrained variables with it)."""
    m, trail, walk = s._m, s.trail, s.walk
    mark = len(trail)
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if type(a) is Var:
            a = walk(a)
        if type(b) is Var:
            b = walk(b)
        if type(b) is Var and type(a) is not Var:
            a, b = b, a
        if type(a) is Var:
            if type(b) is Var and b.id == a.id:
                continue
            # occur check; of the terms a can be bound to, only a structure can hold a
            if type(b) is Struct and any(
                type(x) is Var and x.id == a.id for x in subterms(b, walk)
            ):
                s.undo(mark)
                return False
            trail.append((m, a.id, _ABSENT))
            m[a.id] = b
        elif type(a) is type(b) is Struct and a.functor == b.functor and len(a.args) == len(b.args):
            stack.extend(zip(a.args, b.args))
        elif not _leaf_equal(a, b):
            s.undo(mark)
            return False
    return True


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
    another's, so this orders like the nested, argument-by-argument key.
    Two terms have equal keys exactly when ``term_equal`` holds, so the key
    can index terms in a dict: int and float values stay apart, and numbers
    are kept exact (not rounded through float)."""
    return _sort_key(t, False)


def ground_key(t: Term) -> Optional[tuple]:
    """``term_sort_key`` of a ground term; None if t holds a variable."""
    return _sort_key(t, True)


def _sort_key(t: Term, ground_only: bool) -> Optional[tuple]:
    key: list = []
    for x in subterms(t):
        tx = type(x)
        if tx is int or tx is float:
            key += (0, x, 0 if tx is int else 1)
        elif tx is Atom:
            key += (1, x.name)
        elif tx is Struct:
            key += (2, len(x.args), x.functor)
        elif tx is Var:
            if ground_only:
                return None
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


def compile_terms(terms: list[Term]) -> tuple[list[list], list[Optional[str]], list[Term]]:
    """Precompile terms that share variables for repeated instantiation.

    Returns (codes, variable names, shared subterms). A code lists a term
    in post-order: an int k stands for a variable slot, k its position in
    order of first occurrence across terms (left to right, pre-order), and
    a negative int -1 - j for shared[j], a maximal ground subterm; a pair
    (functor, arity) builds a structure from the last arity entries.
    ``instantiate`` runs a code without walking the ground subterms."""
    slots: dict[int, int] = {}
    names: list[Optional[str]] = []
    for v in vars_of(mkconj(terms)) if terms else ():
        if v.id not in slots:
            slots[v.id] = len(slots)
            names.append(v.name)
    shared: list[Term] = []
    codes: list[list] = []
    for t in terms:
        # descendants come before their ancestors in reversed pre-order
        ground: dict[int, bool] = {}
        for x in reversed(list(subterms(t))):
            tx = type(x)
            ground[id(x)] = tx is not Var and (
                tx is not Struct or all(ground[id(a)] for a in x.args)
            )
        code: list = []
        stack: list = [t]
        while stack:
            x = stack.pop()
            if type(x) is tuple:  # a structure whose arguments are done
                code.append(x)
            elif type(x) is Var:
                code.append(slots[x.id])
            elif ground[id(x)]:
                shared.append(x)
                code.append(-len(shared))
            else:
                stack.append((x.functor, len(x.args)))
                stack.extend(reversed(x.args))
        codes.append(code)
    return codes, names, shared


def instantiate(code: list, fill: list[Term]) -> Term:
    """Run a code from ``compile_terms``, reading slot k as fill[k].

    fill holds the fresh variables followed by the shared subterms in
    reverse, so that the negative slot -1 - j reads shared[j]."""
    stack: list[Term] = []
    for op in code:
        if type(op) is int:
            stack.append(fill[op])
        else:
            functor, n = op
            args = tuple(stack[-n:])
            del stack[-n:]
            stack.append(Struct(functor, args))
    return stack[0]


def rename_term(t: Term, mapping: dict[int, Var], fresh: FreshVars) -> Term:
    """Copy t with every variable replaced through mapping (extended as needed)."""

    def step(v: Var) -> Var:
        w = mapping.get(v.id)
        if w is None:
            w = mapping[v.id] = fresh.new(v.name)
        return w

    return _rebuild(t, step)
