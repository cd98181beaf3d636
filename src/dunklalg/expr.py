"""Expression language for operator words.

Grammar (whitespace insignificant):

    expr    := term (("+" | "-") term)*
    term    := factor ("*" factor)*
    factor  := "-" factor | power
    power   := atom ("^" INT)?
    atom    := RATIONAL | coupling | "N"
             | "x[" i "]" | "D[" i "]" | "M[" i "," j "]" | "E[" i "," j "]"
             | "s[" i "]" | "s[" i "," j "]" | "S[" i "," j "]" | "Ssum"
             | "H" | "HOmega" | "Msq" | "rho" | w-literal
             | "(" expr ")" | "[" expr "," expr "]" | "{" expr "," expr "}"

Rationals are INT or INT/INT; "[ , ]" is a commutator and "{ , }" an
anticommutator; group elements are entered by their basis-image tuple,
e.g. w"2,-1,3". Indices are 1-based in the surface syntax.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from .cherednik import (
    CherednikContext,
    PBWElement,
    angular_hamiltonian,
    angular_momentum_ij,
    commutator,
    anticommutator,
    d_gen,
    e_generator,
    group,
    hamiltonian_H,
    m_squared,
    one,
    rho,
    s_elem,
    s_sum,
    x_gen,
)
from .coxeter import _apply_cols, invariant_sum_S
from .exactmath import CoeffPoly
from .subalgebra import SubElement, SubWord, get_subalgebra, h_omega_subelement, rho_subelement


class ExprSyntaxError(ValueError):
    """Parse failure with position information."""

    def __init__(self, message: str, line: int, column: int, expected: str = ""):
        self.line = line
        self.column = column
        self.expected = expected
        detail = "line %d, column %d: %s" % (line, column, message)
        if expected:
            detail += " (expected %s)" % expected
        super().__init__(detail)


class EvalError(ValueError):
    """Expression is syntactically fine but not evaluable in this mode."""


# -- AST ---------------------------------------------------------------------

@dataclass(frozen=True)
class Node:
    pass


@dataclass(frozen=True)
class Bin(Node):
    op: str                        # "+", "-", "*", "[" (commutator), "{" (anticommutator)
    left: Node
    right: Node


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    exponent: int


@dataclass(frozen=True)
class Neg(Node):
    operand: Node


@dataclass(frozen=True)
class RatLit(Node):
    value: Fraction


@dataclass(frozen=True)
class Name(Node):
    name: str                      # a coupling g..., N, Ssum, H, HOmega, Msq, rho


@dataclass(frozen=True)
class Atom(Node):
    kind: str                      # x, D, M, E, s, S
    indices: tuple[int, ...]       # 1-based


@dataclass(frozen=True)
class GroupW(Node):
    images: tuple[int, ...]        # signed 1-based images


_COUPLING = re.compile(r"g\d*")
_NAMES = ("N", "Ssum", "H", "HOmega", "Msq", "rho")
_BRACKETS = {"[": "]", "{": "}"}
_INFIX_LEVELS = (("+", "-"), ("*",))


_TOKEN_RE = re.compile(r"""
    (?P<num>\d+)
  | (?P<name>[A-Za-z][A-Za-z0-9]*)
  | (?P<string>"[^"]*")
  | (?P<op>[-+*^/,\[\]{}()])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(text: str):
    tokens = []
    pos = 0
    line = 1
    col = 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError("unexpected character %r" % text[pos], line, col)
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            tokens.append((kind, value, line, col))
        for ch in value:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val, line, col = self.peek()
        if val != value:
            raise ExprSyntaxError("found %r" % (val or "end of input"), line, col, repr(value))
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, val, line, col = self.peek()
        if kind != "eof":
            raise ExprSyntaxError("trailing input %r" % val, line, col, "end of input")
        return node

    def expr(self, level: int = 0) -> Node:
        """Left-associative infix operators, loosest level first."""
        if level == len(_INFIX_LEVELS):
            return self.factor()
        node = self.expr(level + 1)
        while self.peek()[1] in _INFIX_LEVELS[level]:
            op = self.advance()[1]
            node = Bin(op, node, self.expr(level + 1))
        return node

    def factor(self) -> Node:
        if self.peek()[1] == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        if self.peek()[1] == "^":
            self.advance()
            kind, val, line, col = self.advance()
            if kind != "num":
                raise ExprSyntaxError("found %r" % val, line, col, "an integer exponent")
            return Pow(node, int(val))
        return node

    def _indices(self, count_options=(1, 2)) -> tuple[int, ...]:
        self.expect("[")
        out = []
        while True:
            kind, val, line, col = self.advance()
            if kind != "num":
                raise ExprSyntaxError("found %r" % val, line, col, "an index")
            out.append(int(val))
            kind, val, line, col = self.peek()
            if val == ",":
                self.advance()
                continue
            break
        self.expect("]")
        if len(out) not in count_options:
            _, _, line, col = self.peek()
            raise ExprSyntaxError("wrong number of indices %r" % (tuple(out),), line, col)
        return tuple(out)

    def atom(self) -> Node:
        kind, val, line, col = self.peek()
        if kind == "num":
            self.advance()
            num = int(val)
            if self.peek()[1] == "/":
                self.advance()
                kind2, val2, line2, col2 = self.advance()
                if kind2 != "num":
                    raise ExprSyntaxError("found %r" % val2, line2, col2, "a denominator")
                if int(val2) == 0:
                    raise ExprSyntaxError("division by zero", line2, col2)
                return RatLit(Fraction(num, int(val2)))
            return RatLit(Fraction(num))
        if val == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if val in _BRACKETS:
            self.advance()
            left = self.expr()
            self.expect(",")
            right = self.expr()
            self.expect(_BRACKETS[val])
            return Bin(val, left, right)
        if kind == "name":
            self.advance()
            if val in ("x", "D"):
                return Atom(val, self._indices((1,)))
            if val in ("M", "E", "S"):
                return Atom(val, self._indices((2,)))
            if val == "s":
                return Atom(val, self._indices((1, 2)))
            if val == "w":
                kind2, val2, line2, col2 = self.advance()
                if kind2 != "string":
                    raise ExprSyntaxError("found %r" % val2, line2, col2, 'a quoted image tuple')
                try:
                    images = tuple(int(v) for v in val2.strip('"').split(","))
                except ValueError:
                    raise ExprSyntaxError("bad image tuple %s" % val2, line2, col2) from None
                return GroupW(images)
            if val in _NAMES or _COUPLING.fullmatch(val):
                return Name(val)
            raise ExprSyntaxError("unknown name %r" % val, line, col)
        raise ExprSyntaxError("found %r" % (val or "end of input"), line, col, "an atom")


def parse_expression(text: str) -> Node:
    return _Parser(text).parse()


# -- printing (round-trips through parse_expression) --------------------------

_PREC = {"add": 1, "mul": 2, "neg": 3, "pow": 4, "atom": 5}

# op -> (format, precedence, least precedence of the left and of the right
# operand printed without parentheses); infix operators associate to the left
_BIN_FORMAT = {"+": ("%s + %s", _PREC["add"], _PREC["add"], _PREC["add"] + 1),
               "-": ("%s - %s", _PREC["add"], _PREC["add"], _PREC["add"] + 1),
               "*": ("%s*%s", _PREC["mul"], _PREC["mul"], _PREC["mul"] + 1),
               **{o: (o + "%s, %s" + c, _PREC["atom"], 0, 0) for o, c in _BRACKETS.items()}}


def _print(node: Node) -> tuple[str, int]:
    if isinstance(node, Bin):
        fmt, prec, left_min, right_min = _BIN_FORMAT[node.op]
        return fmt % (_wrap(node.left, left_min), _wrap(node.right, right_min)), prec
    if isinstance(node, Neg):
        return "-%s" % _wrap(node.operand, _PREC["neg"]), _PREC["neg"]
    if isinstance(node, Pow):
        return "%s^%d" % (_wrap(node.base, _PREC["pow"] + 1), node.exponent), _PREC["pow"]
    if isinstance(node, RatLit):
        v = node.value
        if v.denominator == 1:
            return str(v.numerator), _PREC["atom"] if v >= 0 else _PREC["neg"]
        return "%d/%d" % (v.numerator, v.denominator), _PREC["atom"]
    if isinstance(node, Name):
        return node.name, _PREC["atom"]
    if isinstance(node, Atom):
        return "%s[%s]" % (node.kind, ",".join(str(i) for i in node.indices)), _PREC["atom"]
    if isinstance(node, GroupW):
        return 'w"%s"' % ",".join(str(i) for i in node.images), _PREC["atom"]
    raise TypeError("unknown node %r" % (node,))


def _wrap(node: Node, min_prec: int) -> str:
    s, prec = _print(node)
    return "(" + s + ")" if prec < min_prec else s


def print_expression(node: Node) -> str:
    return _print(node)[0]


# -- evaluation ----------------------------------------------------------------

def _group_from_images(ctx: CherednikContext, images: tuple[int, ...]):
    n = ctx.n
    if len(images) != n:
        raise EvalError("image tuple has %d entries, rank is %d" % (len(images), n))
    cols = []
    for v in images:
        k = abs(v) - 1
        if not 0 <= k < n:
            raise EvalError("image index %d out of range" % v)
        cols.append(tuple(Fraction(1 if v > 0 else -1) if t == k else Fraction(0)
                          for t in range(n)))
    cols = tuple(cols)
    # checked before interning, so a rejected literal leaves no element behind
    allroots = set(ctx.rs.positive_roots) | {tuple(-c for c in r) for r in ctx.rs.positive_roots}
    if {_apply_cols(cols, r) for r in allroots} != allroots:
        raise EvalError("group element does not preserve the root system")
    return ctx.rs.element(cols)


def _check_index(ctx: CherednikContext, i: int) -> int:
    if not 1 <= i <= ctx.n:
        raise EvalError("index %d out of range 1..%d" % (i, ctx.n))
    return i - 1


def _reflection_by_root(ctx: CherednikContext, k: int):
    if not 1 <= k <= len(ctx.rs.positive_roots):
        raise EvalError("root index %d out of range 1..%d" % (k, len(ctx.rs.positive_roots)))
    return ctx.rs.reflection(k - 1)


def _reflection(ctx: CherednikContext, indices: tuple[int, ...]):
    """s[k], the reflection in the k-th positive root, or s[i,j], the
    transposition of e_i and e_j."""
    if len(indices) == 1:
        return _reflection_by_root(ctx, indices[0])
    i, j = (_check_index(ctx, v) for v in indices)
    return _transposition(ctx, i, j)


def _transposition(ctx: CherednikContext, i: int, j: int):
    if i == j:
        raise EvalError("s[i,j] needs two distinct indices")
    n = ctx.n
    vec = tuple(Fraction(1 if t == i else (-1 if t == j else 0)) for t in range(n))
    hit = ctx.rs.find_root(vec)
    if hit is None:
        raise EvalError("s[i,j] needs the root e_i - e_j; use s[k] or w\"...\" here")
    return ctx.rs.reflection(hit[0])


_APPLY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "[": commutator, "{": anticommutator}


class Evaluator:
    """Evaluate an AST by one dispatch over its nodes. A mode supplies its
    unit, through which every scalar enters, and builds the other leaves:
    group elements, named elements and atoms."""

    def __init__(self, ctx: CherednikContext, unit):
        self.ctx = ctx
        self.unit = unit

    def eval(self, node: Node):
        if isinstance(node, Bin):
            return _APPLY[node.op](self.eval(node.left), self.eval(node.right))
        if isinstance(node, Neg):
            return -self.eval(node.operand)
        if isinstance(node, Pow):
            return self.eval(node.base) ** node.exponent
        if isinstance(node, RatLit):
            return self.unit.scaled(node.value)
        if isinstance(node, Name):
            if node.name == "N":
                return self.unit.scaled(self.ctx.n)
            if _COUPLING.fullmatch(node.name):
                return self.unit.scaled(self._coupling(node.name))
            return self._named(node.name)
        if isinstance(node, GroupW):
            return self._group(_group_from_images(self.ctx, node.images))
        if isinstance(node, Atom):
            return self._atom(node)
        raise TypeError("unknown node %r" % (node,))

    def _coupling(self, name: str) -> CoeffPoly:
        ctx = self.ctx
        symbols = ctx.rs.symbols
        if name not in symbols:
            raise EvalError("unknown coupling %r; this system has %s" % (name, list(symbols)))
        return ctx.gmap.of_orbit(symbols.index(name))


_PBW_NAMED = {"Ssum": s_sum, "H": hamiltonian_H, "HOmega": angular_hamiltonian,
              "Msq": m_squared, "rho": rho}


class PBWEvaluator(Evaluator):
    """Leaves in the full rewriting algebra."""

    def __init__(self, ctx: CherednikContext):
        super().__init__(ctx, one(ctx))

    def _group(self, w) -> PBWElement:
        return group(self.ctx, w)

    def _named(self, name: str) -> PBWElement:
        build = _PBW_NAMED.get(name)
        if build is None:
            raise EvalError("unknown named element %r" % name)
        return build(self.ctx)

    def _atom(self, node: Atom) -> PBWElement:
        ctx = self.ctx
        if node.kind == "x":
            return x_gen(ctx, _check_index(ctx, node.indices[0]))
        if node.kind == "D":
            return d_gen(ctx, _check_index(ctx, node.indices[0]))
        if node.kind == "s":
            return self._group(_reflection(ctx, node.indices))
        build = {"M": angular_momentum_ij, "E": e_generator, "S": s_elem}.get(node.kind)
        if build is None:
            raise EvalError("atom %s is not available" % node.kind)
        i, j = (_check_index(ctx, v) for v in node.indices)
        return build(ctx, i, j)


class SubEvaluator(Evaluator):
    """Leaves inside the so or gl subalgebra (basis-normal output)."""

    def __init__(self, ctx: CherednikContext, family: str):
        self.family = family
        self.alg = get_subalgebra(ctx, family)
        super().__init__(ctx, SubElement.of(self.alg, SubWord((), ctx.e)))

    def _group(self, w) -> SubElement:
        return SubElement.of(self.alg, SubWord((), w))

    def _group_sum(self, terms) -> SubElement:
        return SubElement(self.alg, {SubWord((), w): c for w, c in terms})

    def _named(self, name: str) -> SubElement:
        ctx = self.ctx
        if name == "Ssum":
            return self._group_sum(invariant_sum_S(ctx.rs, ctx.gmap).items())
        if name == "HOmega" and self.family == "so":
            return h_omega_subelement(self.alg)
        if name == "Msq" and self.family == "so":
            return SubElement(self.alg, {SubWord(((i, j), (i, j)), ctx.e): ctx.one
                                         for i in range(ctx.n) for j in range(i + 1, ctx.n)})
        if name == "rho" and self.family == "gl":
            return rho_subelement(self.alg)
        raise EvalError("%s is not an element of the %s subalgebra" % (name, self.family))

    def _atom(self, node: Atom) -> SubElement:
        ctx = self.ctx
        if node.kind == "s":
            return self._group(_reflection(ctx, node.indices))
        if node.kind == "S":
            i, j = (_check_index(ctx, v) for v in node.indices)
            return self._group_sum(ctx.s_terms(i, j))
        if (node.kind, self.family) not in (("M", "so"), ("E", "gl"), ("M", "gl")):
            raise EvalError("atom %s is not available in the %s subalgebra"
                            % (node.kind, self.family))
        i, j = (_check_index(ctx, v) for v in node.indices)

        def gen(k: int, l: int) -> SubElement:
            return SubElement.of(self.alg, SubWord(((k, l),), ctx.e))

        if self.family == "gl":
            return gen(i, j) if node.kind == "E" else gen(i, j) - gen(j, i)
        norm = self.alg.norm_pair(i, j)
        return SubElement(self.alg) if norm is None else gen(*norm[1]).scaled(norm[0])


def evaluate(text_or_ast, ctx: CherednikContext, mode: str = "cherednik"):
    node = parse_expression(text_or_ast) if isinstance(text_or_ast, str) else text_or_ast
    if mode == "cherednik":
        return PBWEvaluator(ctx).eval(node)
    if mode in ("so", "gl"):
        return SubEvaluator(ctx, mode).eval(node)
    raise ValueError("unknown mode %r" % mode)
