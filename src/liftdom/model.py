"""The line-oriented model definition format.

Blocks declare named finite posets, base posets, presheaves, internal
posets and monotone maps.  `leq` and `order` entries list the relation
literally (reflexive pairs are implied, omitted pairs are incomparable),
so a relation that is not transitively closed is a validation error, not
something to repair silently.  Nor is any input dropped or overwritten: a
restriction off the base's strict pairs, a second line for one stage or
pair, and an entry with an unknown or repeated source are errors.  An
error names its line and column: a constructor's refusal points at the
last entry that states a pair the refusal names, else at the block's
keyword.  `#` starts a comment; whitespace is free inside blocks.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from .order import FinPoset, MonotoneMap, StructureError
from .presheaf import BasePoset, InternalPoset


class ModelError(ValueError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        where = f" (line {line}, column {col})" if line is not None else ""
        super().__init__(message + where)
        self.line = line
        self.col = col


@dataclass
class ModelSpec:
    posets: dict = field(default_factory=dict)
    bases: dict = field(default_factory=dict)
    presheaves: dict = field(default_factory=dict)
    iposets: dict = field(default_factory=dict)
    maps: dict = field(default_factory=dict)

    def lookup(self, name: str):
        for kind in ("posets", "bases", "presheaves", "iposets", "maps"):
            table = getattr(self, kind)
            if name in table:
                return kind, table[name]
        raise ModelError(f"unresolved reference {name!r}")

    def names(self) -> list[str]:
        out = []
        for kind in ("posets", "bases", "presheaves", "iposets", "maps"):
            out.extend(getattr(self, kind).keys())
        return out


@dataclass
class _Tok:
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for ch in "{};:":
            line = line.replace(ch, f" {ch} ")
        col = 1
        pos = 0
        for piece in line.split():
            col = raw.index(piece, pos) + 1 if piece in raw[pos:] else col
            pos = max(pos, col - 1 + len(piece))
            toks.append(_Tok(piece, ln, col))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0

    def peek(self) -> _Tok | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self, what: str) -> _Tok:
        t = self.peek()
        if t is None:
            last = self.toks[-1] if self.toks else _Tok("", 1, 1)
            raise ModelError(f"expected {what}, found end of input", last.line, last.col)
        self.i += 1
        return t

    def expect(self, text: str) -> _Tok:
        t = self.next(repr(text))
        if t.text != text:
            raise ModelError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def until_close_or_semi(self) -> list[_Tok]:
        out = []
        while True:
            t = self.peek()
            if t is None:
                raise ModelError("unterminated block", self.toks[-1].line, self.toks[-1].col)
            if t.text in (";", "}"):
                return out
            out.append(self.next("entry"))


def _rel_pairs(toks: list[_Tok], sep: str = "<=") -> list[tuple]:
    pairs = []
    for t in toks:
        if sep not in t.text:
            raise ModelError(f"expected a pair like x{sep}y, found {t.text!r}", t.line, t.col)
        x, y = t.text.split(sep, 1)
        if not x or not y:
            raise ModelError(f"malformed pair {t.text!r}", t.line, t.col)
        pairs.append((x, y))
    return pairs


def _arrows(toks: list[_Tok], sources, where: str) -> dict:
    """The x->y entries as a dict.  A source outside ``sources``, or given
    twice, is refused rather than dropped or overwritten."""
    out: dict = {}
    for t, (x, y) in zip(toks, _rel_pairs(toks, sep="->")):
        if x not in sources:
            raise ModelError(f"{x!r} is not in {where}", t.line, t.col)
        if x in out:
            raise ModelError(f"{x!r} is mapped twice", t.line, t.col)
        out[x] = y
    return out


def _reflexive(elements, pairs):
    rel = {(e, e) for e in elements} | set(pairs)
    return frozenset(rel)


def _stated(toks: list[_Tok], sep: str) -> list[tuple]:
    """The entries ``toks`` as (token, pair) in text order."""
    return list(zip(toks, _rel_pairs(toks, sep)))


@contextmanager
def _refusals(what: str, stated: list[tuple], head: _Tok):
    """A block whose constructor refusal becomes a ``ModelError`` at the
    last entry among ``stated`` that states a pair the refusal names, else
    at the block keyword ``head``."""
    try:
        yield
    except StructureError as e:
        at = next((t for t, pair in reversed(stated) if pair in e.pairs), head)
        raise ModelError(f"{what}: {e}", at.line, at.col) from e


def _build_poset(head: _Tok, elements, stated) -> FinPoset:
    with _refusals("invalid relation", stated, head):
        return FinPoset(tuple(elements), _reflexive(elements, [pair for _, pair in stated]))


def parse_model(text: str) -> ModelSpec:
    """Parse and fully validate a model; every invariant holds on return."""
    spec = ModelSpec()
    p = _Parser(_tokenize(text))
    while p.peek() is not None:
        head = p.next("a block keyword")
        if head.text not in ("poset", "base", "presheaf", "iposet", "map"):
            raise ModelError(f"unknown block {head.text!r}", head.line, head.col)
        name_t = p.next("a name")
        name = name_t.text
        if name in spec.names():
            raise ModelError(f"duplicate name {name!r}", name_t.line, name_t.col)
        if head.text in ("poset", "base"):
            p.expect("{")
            p.expect("elems")
            elems = [t.text for t in p.until_close_or_semi()]
            p.expect(";")
            p.expect("leq")
            stated = _stated(p.until_close_or_semi(), "<=")
            p.expect("}")
            P = _build_poset(head, elems, stated)
            if head.text == "poset":
                spec.posets[name] = P
            else:
                spec.bases[name] = BasePoset(P)
        elif head.text == "presheaf":
            p.expect("over")
            base_t = p.next("a base name")
            if base_t.text not in spec.bases:
                raise ModelError(
                    f"unresolved reference {base_t.text!r}", base_t.line, base_t.col
                )
            base = spec.bases[base_t.text]
            p.expect("{")
            stage_sets: dict = {}
            entries: dict = {}  # (src, tgt) -> its entry tokens, read once every stage set is known
            while True:
                t = p.next("'stage', 'restrict' or '}'")
                if t.text == "}":
                    break
                if t.text == ";":
                    continue
                if t.text == "stage":
                    st = p.next("a stage name")
                    if st.text not in base.stages:
                        raise ModelError(f"unknown stage {st.text!r}", st.line, st.col)
                    if st.text in stage_sets:
                        raise ModelError(f"stage {st.text!r} is given twice", st.line, st.col)
                    p.expect(":")
                    stage_sets[st.text] = tuple(x.text for x in p.until_close_or_semi())
                elif t.text == "restrict":
                    arrow = p.next("a stage pair like s1->s0")
                    at = (arrow.line, arrow.col)
                    if "->" not in arrow.text:
                        raise ModelError(f"expected s->t, found {arrow.text!r}", *at)
                    src, tgt = arrow.text.split("->", 1)
                    if src not in base.stages or tgt not in base.stages:
                        raise ModelError(f"unknown stage in {arrow.text!r}", *at)
                    if (src, tgt) not in base.strict_pairs():
                        raise ModelError(f"{arrow.text!r} is not a strict pair of the base", *at)
                    if (src, tgt) in entries:
                        raise ModelError(f"restriction {arrow.text!r} is given twice", *at)
                    p.expect(":")
                    entries[(src, tgt)] = p.until_close_or_semi()
                else:
                    raise ModelError(
                        f"expected 'stage' or 'restrict', found {t.text!r}", t.line, t.col
                    )
            for st in base.stages:
                stage_sets.setdefault(st, ())
            restrictions = {
                (src, tgt): _arrows(entries.get((src, tgt), []), stage_sets[src], f"stage {src!r}")
                for src, tgt in base.strict_pairs()
            }
            stated = [entry for toks in entries.values() for entry in _stated(toks, "->")]
            with _refusals("invalid presheaf", stated, head):
                try:
                    discrete = {st: _reflexive(els, ()) for st, els in stage_sets.items()}
                    spec.presheaves[name] = InternalPoset.make(base, stage_sets, restrictions, discrete)
                except KeyError as e:
                    raise ModelError(f"restriction is not total: missing {e}", head.line, head.col)
        elif head.text == "iposet":
            p.expect("over")
            base_t = p.next("a base name")
            if base_t.text not in spec.bases:
                raise ModelError(
                    f"unresolved reference {base_t.text!r}", base_t.line, base_t.col
                )
            base = spec.bases[base_t.text]
            p.expect("from")
            psh_t = p.next("a presheaf name")
            if psh_t.text not in spec.presheaves:
                raise ModelError(
                    f"unresolved reference {psh_t.text!r}", psh_t.line, psh_t.col
                )
            F = spec.presheaves[psh_t.text]
            if F.base != base:
                raise ModelError("presheaf lives over a different base", psh_t.line, psh_t.col)
            p.expect("{")
            orders: dict = {}
            while True:
                t = p.next("'order' or '}'")
                if t.text == "}":
                    break
                if t.text == ";":
                    continue
                if t.text != "order":
                    raise ModelError(f"expected 'order', found {t.text!r}", t.line, t.col)
                st = p.next("a stage name")
                if st.text not in base.stages:
                    raise ModelError(f"unknown stage {st.text!r}", st.line, st.col)
                if st.text in orders:
                    raise ModelError(f"the order at stage {st.text!r} is given twice", st.line, st.col)
                p.expect(":")
                orders[st.text] = _stated(p.until_close_or_semi(), "<=")
            with _refusals("invalid internal poset", [entry for st in orders for entry in orders[st]], head):
                spec.iposets[name] = InternalPoset(base, tuple(
                    FinPoset(F.at(st), _reflexive(F.at(st), [pair for _, pair in orders.get(st, [])]))
                    for st in base.stages
                ), F.restrictions)
        else:  # map
            p.expect(":")
            src_t = p.next("a source poset name")
            p.expect("->")
            tgt_t = p.next("a target poset name")
            for t in (src_t, tgt_t):
                if t.text not in spec.posets:
                    raise ModelError(f"unresolved reference {t.text!r}", t.line, t.col)
            p.expect("{")
            src = spec.posets[src_t.text]
            toks = p.until_close_or_semi()
            mapping = _arrows(toks, src.elements, f"poset {src_t.text!r}")
            p.expect("}")
            with _refusals("invalid map", _stated(toks, "->"), head):
                try:
                    spec.maps[name] = MonotoneMap.make(src, spec.posets[tgt_t.text], mapping)
                except KeyError as e:
                    raise ModelError(f"map is not total: missing {e}", head.line, head.col)
    return spec


def _fmt_rel(P: FinPoset) -> str:
    return " ".join(
        f"{x}<={y}" for x, y in sorted(
            ((x, y) for x, y in P.pairs if x != y),
            key=lambda xy: (P.index(xy[0]), P.index(xy[1])),
        )
    )


def _carrier(A: InternalPoset) -> tuple:
    # what an iposet takes from its presheaf: the stage sets and restrictions
    return A.base, [P.elements for P in A.stage_posets], A.restrictions


def render_model(spec: ModelSpec) -> str:
    """Emit the canonical text form; parse_model inverts this exactly."""
    lines = []
    for name, P in spec.posets.items():
        lines.append(
            f"poset {name} {{ elems {' '.join(map(str, P.elements))} ; leq {_fmt_rel(P)} }}"
        )
    for name, B in spec.bases.items():
        P = B.poset
        lines.append(
            f"base {name} {{ elems {' '.join(map(str, P.elements))} ; leq {_fmt_rel(P)} }}"
        )
    for name, F in spec.presheaves.items():
        base_name = next(n for n, b in spec.bases.items() if b == F.base)
        parts = []
        for st in F.base.stages:
            parts.append(f"stage {st}: {' '.join(map(str, F.at(st)))}")
        for p_, q_ in F.base.strict_pairs():
            arrows = " ".join(f"{x}->{F.res_el(p_, q_, x)}" for x in F.at(p_))
            parts.append(f"restrict {p_}->{q_}: {arrows}")
        lines.append(f"presheaf {name} over {base_name} {{ {' ; '.join(parts)} }}")
    for name, A in spec.iposets.items():
        base_name = next(n for n, b in spec.bases.items() if b == A.base)
        psh_name = next(n for n, F in spec.presheaves.items() if _carrier(F) == _carrier(A))
        parts = [f"order {st}: {_fmt_rel(A.stage_poset(st))}".rstrip() for st in A.base.stages]
        lines.append(f"iposet {name} over {base_name} from {psh_name} {{ {' ; '.join(parts)} }}")
    for name, f in spec.maps.items():
        src = next(n for n, P in spec.posets.items() if P == f.dom)
        tgt = next(n for n, P in spec.posets.items() if P == f.cod)
        arrows = " ".join(f"{x}->{f(x)}" for x in f.dom.elements)
        lines.append(f"map {name} : {src} -> {tgt} {{ {arrows} }}")
    return "\n".join(lines) + "\n"


DEFAULT_MODEL_TEXT = """\
# bundled default model: small named instances for the law suite

poset C1 { elems p ; leq }
poset C2 { elems a b ; leq a<=b }
poset C3 { elems x y z ; leq x<=y y<=z x<=z }
poset A2 { elems l r ; leq }
poset V3 { elems b l r ; leq b<=l b<=r }
poset D4 { elems w x y z ; leq w<=x w<=y x<=z y<=z w<=z }

map embed : C2 -> C3 { a->x b->z }
map collapse : C3 -> C2 { x->a y->a z->b }
map top : C2 -> C2 { a->b b->b }

base B1 { elems s ; leq }
base B2 { elems s0 s1 ; leq s0<=s1 }

presheaf PSH1 over B2 { stage s1: m ; stage s0: u v ; restrict s1->s0: m->u }
iposet IP1 over B2 from PSH1 { order s1: ; order s0: }
"""


def default_model() -> ModelSpec:
    return parse_model(DEFAULT_MODEL_TEXT)
