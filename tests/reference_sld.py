"""Reference SLD resolution for pure logic programs.

A deliberately small, recursive interpreter with its own substitution and
unification machinery, used as an oracle for the engine's answer sets,
answer order, and cut behavior. It shares only the surface syntax (terms
come from the package parser); resolution, renaming, and unification are
written from scratch so a bug in the engine cannot hide in a shared
helper.

Supports: user clauses, conjunction, true/0, fail/0, !/0, =/2, is/2,
arithmetic comparisons, and findall/3. No constraints.
"""

from __future__ import annotations

from typing import Iterator, Optional

from clpbn.parser import read_terms, term_to_text
from clpbn.program import parse_query
from clpbn.terms import Atom, Struct, Term, Var


def binding_text(answer) -> dict[str, str]:
    """An engine answer's bindings, printed: the form `Reference.answers` gives."""
    return {name: term_to_text(t) for name, t in answer.bindings.items()}


class _Cut(Exception):
    def __init__(self, barrier: int) -> None:
        self.barrier = barrier


class Reference:
    def __init__(self, program_text: str) -> None:
        self.clauses: dict[tuple[str, int], list[tuple[Term, list[Term]]]] = {}
        self._fresh = [10**9]  # far from parser-assigned ids
        for term, _line, _vars in read_terms(program_text):
            if isinstance(term, Struct) and term.functor == ":-" and term.arity == 2:
                head, body = term.args
                goals = self._flatten(body)
            else:
                head, goals = term, []
            key = self._key(head)
            self.clauses.setdefault(key, []).append((head, goals))

    @staticmethod
    def _key(t: Term) -> tuple[str, int]:
        if isinstance(t, Struct):
            return (t.functor, t.arity)
        if isinstance(t, Atom):
            return (t.name, 0)
        raise ValueError(f"not callable: {t!r}")

    @staticmethod
    def _flatten(t: Term) -> list[Term]:
        if isinstance(t, Struct) and t.functor == "," and t.arity == 2:
            return Reference._flatten(t.args[0]) + Reference._flatten(t.args[1])
        return [t]

    # --- substitutions ----------------------------------------------------

    @staticmethod
    def _walk(t: Term, s: dict[int, Term]) -> Term:
        while isinstance(t, Var) and t.id in s:
            t = s[t.id]
        return t

    @classmethod
    def _resolve(cls, t: Term, s: dict[int, Term]) -> Term:
        t = cls._walk(t, s)
        if isinstance(t, Struct):
            return Struct(t.functor, tuple(cls._resolve(a, s) for a in t.args))
        return t

    @classmethod
    def _unify(
        cls, a: Term, b: Term, s: dict[int, Term]
    ) -> Optional[dict[int, Term]]:
        a = cls._walk(a, s)
        b = cls._walk(b, s)
        if isinstance(a, Var) and isinstance(b, Var) and a.id == b.id:
            return s
        if isinstance(a, Var):
            out = dict(s)
            out[a.id] = b
            return out
        if isinstance(b, Var):
            out = dict(s)
            out[b.id] = a
            return out
        if isinstance(a, Atom) and isinstance(b, Atom):
            return s if a.name == b.name else None
        if (
            isinstance(a, (int, float))
            and isinstance(b, (int, float))
            and type(a) == type(b)
        ):
            return s if a == b else None
        if isinstance(a, Struct) and isinstance(b, Struct):
            if a.functor != b.functor or a.arity != b.arity:
                return None
            for x, y in zip(a.args, b.args):
                s2 = cls._unify(x, y, s)
                if s2 is None:
                    return None
                s = s2
            return s
        return None

    def _rename(self, t: Term, mapping: dict[int, Var]) -> Term:
        if isinstance(t, Var):
            if t.id not in mapping:
                self._fresh[0] += 1
                mapping[t.id] = Var(self._fresh[0], t.name)
            return mapping[t.id]
        if isinstance(t, Struct):
            return Struct(t.functor, tuple(self._rename(a, mapping) for a in t.args))
        return t

    # --- arithmetic -------------------------------------------------------

    def _eval(self, t: Term, s: dict[int, Term]):
        t = self._walk(t, s)
        if isinstance(t, (int, float)):
            return t
        if isinstance(t, Struct) and t.arity == 2:
            x = self._eval(t.args[0], s)
            y = self._eval(t.args[1], s)
            if t.functor == "+":
                return x + y
            if t.functor == "-":
                return x - y
            if t.functor == "*":
                return x * y
            if t.functor == "/":
                return x / y
            if t.functor == "mod":
                return x % y
            if t.functor == "//":
                return x // y
        if isinstance(t, Struct) and t.arity == 1 and t.functor == "-":
            return -self._eval(t.args[0], s)
        raise ValueError(f"not arithmetic: {term_to_text(t)}")

    # --- resolution -------------------------------------------------------

    def _solve_goals(
        self, goals: list[Term], s: dict[int, Term], barrier: int
    ) -> Iterator[dict[int, Term]]:
        if not goals:
            yield s
            return
        first, rest = goals[0], goals[1:]
        for s1 in self._solve_one(first, s, barrier):
            yield from self._solve_goals(rest, s1, barrier)

    def _solve_one(
        self, goal: Term, s: dict[int, Term], barrier: int
    ) -> Iterator[dict[int, Term]]:
        goal = self._walk(goal, s)
        if isinstance(goal, Var):
            raise ValueError("unbound goal")
        if isinstance(goal, Atom):
            if goal.name == "true":
                yield s
                return
            if goal.name == "fail":
                return
            if goal.name == "!":
                yield s
                raise _Cut(barrier)
        if isinstance(goal, Struct):
            if goal.functor == "," and goal.arity == 2:
                yield from self._solve_goals(list(goal.args), s, barrier)
                return
            if goal.functor == "=" and goal.arity == 2:
                s2 = self._unify(goal.args[0], goal.args[1], s)
                if s2 is not None:
                    yield s2
                return
            if goal.functor == "is" and goal.arity == 2:
                value = self._eval(goal.args[1], s)
                s2 = self._unify(goal.args[0], value, s)
                if s2 is not None:
                    yield s2
                return
            if goal.arity == 2 and goal.functor in (
                "<", ">", "=<", ">=", "=:=", "=\\=",
            ):
                x = self._eval(goal.args[0], s)
                y = self._eval(goal.args[1], s)
                held = {
                    "<": x < y,
                    ">": x > y,
                    "=<": x <= y,
                    ">=": x >= y,
                    "=:=": x == y,
                    "=\\=": x != y,
                }[goal.functor]
                if held:
                    yield s
                return
            if goal.arity == 2 and goal.functor in ("==", "\\=="):
                same = term_to_text(self._resolve(goal.args[0], s)) == term_to_text(
                    self._resolve(goal.args[1], s)
                )
                if same == (goal.functor == "=="):
                    yield s
                return
            if goal.functor == "findall" and goal.arity == 3:
                template, inner, out = goal.args
                collected = []
                try:
                    for s1 in self._solve_one(inner, s, barrier + 1):
                        collected.append(self._resolve(template, s1))
                except _Cut:
                    pass
                lst: Term = Atom("[]")
                for item in reversed(collected):
                    lst = Struct(".", (item, lst))
                s2 = self._unify(out, lst, s)
                if s2 is not None:
                    yield s2
                return
        key = self._key(goal)
        my = barrier + 1
        try:
            for head, body in self.clauses.get(key, []):
                mapping: dict[int, Var] = {}
                h2 = self._rename(head, mapping)
                b2 = [self._rename(g, mapping) for g in body]
                s2 = self._unify(goal, h2, s)
                if s2 is None:
                    continue
                yield from self._solve_goals(b2, s2, my)
        except _Cut as c:
            if c.barrier != my:
                raise

    def answers(self, query_text: str) -> list[dict[str, str]]:
        """Resolved query-variable bindings, one dict per solution, in
        derivation order."""
        goals, varmap = parse_query(query_text)
        out = []
        try:
            for s in self._solve_goals(list(goals), {}, 0):
                out.append(
                    {
                        name: term_to_text(self._resolve(v, s))
                        for name, v in varmap.items()
                    }
                )
        except _Cut:
            pass
        return out
