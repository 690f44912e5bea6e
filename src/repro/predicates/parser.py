"""Recursive-descent parser for textual FQL predicates.

Grammar (lowest to highest precedence)::

    predicate   := or_expr
    or_expr     := and_expr ('or' and_expr)*
    and_expr    := not_expr ('and' not_expr)*
    not_expr    := 'not' not_expr | condition
    condition   := sum (comparator sum
                       | 'between' sum 'and' sum
                       | ['not'] 'in' sum)?
                 | 'true' | 'false'
    sum         := term (('+' | '-') term)*
    term        := unary (('*' | '/' | '%') unary)*
    unary       := '-' unary | primary
    primary     := NUMBER | STRING | PARAM | list | func_call
                 | attr_path | '(' or_expr ')'
    list        := '[' (sum (',' sum)*)? ']'
    attr_path   := IDENT ('.' IDENT)*      -- '__key__' is the entry key
    func_call   := IDENT '(' (sum (',' sum)*)? ')'

A bare condition that is only an expression (e.g. ``"age"``) is rejected:
predicates must be boolean-shaped, which catches a whole class of typos
that SQL happily mis-executes.
"""

from __future__ import annotations

import functools
from typing import Any, Mapping

from repro.errors import PredicateError, PredicateSyntaxError
from repro.predicates.ast import (
    And,
    AttrRef,
    Between,
    BinOp,
    Comparison,
    Expr,
    FalsePredicate,
    FuncCall,
    KeyRef,
    Literal,
    Membership,
    Not,
    Or,
    Param,
    Predicate,
    TruePredicate,
    UnaryOp,
)
from repro.predicates.lexer import Token, tokenize

__all__ = ["parse_predicate", "parse_expression"]

_COMPARATORS = {"<", "<=", ">", ">=", "==", "!=", "=", "<>"}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token helpers -----------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def match(self, kind: str, text: str | None = None) -> Token | None:
        token = self.peek()
        if token.kind != kind:
            return None
        if text is not None and token.text != text:
            return None
        return self.advance()

    def match_keyword(self, word: str) -> Token | None:
        token = self.peek()
        if token.kind == "IDENT" and token.text.lower() == word:
            return self.advance()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        token = self.match(kind, text)
        if token is None:
            actual = self.peek()
            raise PredicateSyntaxError(
                f"expected {text or kind}, found {actual.text or actual.kind!r}",
                self.text,
                actual.position,
            )
        return token

    def fail(self, message: str) -> None:
        raise PredicateSyntaxError(message, self.text, self.peek().position)

    # -- grammar ---------------------------------------------------------------

    def parse(self) -> Predicate:
        pred = self.or_expr()
        if self.peek().kind != "EOF":
            self.fail(f"unexpected trailing input {self.peek().text!r}")
        return pred

    def or_expr(self) -> Predicate:
        parts = [self.and_expr()]
        while self.match_keyword("or"):
            parts.append(self.and_expr())
        return parts[0] if len(parts) == 1 else Or(*parts)

    def and_expr(self) -> Predicate:
        parts = [self.not_expr()]
        while self.match_keyword("and"):
            parts.append(self.not_expr())
        return parts[0] if len(parts) == 1 else And(*parts)

    def not_expr(self) -> Predicate:
        if self.match_keyword("not"):
            return Not(self.not_expr())
        return self.condition()

    def condition(self) -> Predicate:
        token = self.peek()
        if token.kind == "IDENT" and token.text.lower() in ("true", "false"):
            self.advance()
            return (
                TruePredicate()
                if token.text.lower() == "true"
                else FalsePredicate()
            )
        # '(' may open either a parenthesized predicate or an arithmetic
        # group; try predicate first with backtracking.
        if token.kind == "LPAREN":
            saved = self.pos
            try:
                self.advance()
                inner = self.or_expr()
                self.expect("RPAREN")
                return inner
            except PredicateSyntaxError:
                self.pos = saved
        left = self.sum()
        op_token = self.peek()
        if op_token.kind == "OP" and op_token.text in _COMPARATORS:
            self.advance()
            right = self.sum()
            return Comparison(op_token.text, left, right)
        if self.match_keyword("between"):
            lo = self.sum()
            if not self.match_keyword("and"):
                self.fail("expected 'and' in between-clause")
            hi = self.sum()
            return Between(left, lo, hi)
        negated = False
        saved = self.pos
        if self.match_keyword("not"):
            negated = True
        if self.match_keyword("in"):
            return Membership(left, self.sum(), negated=negated)
        if negated:
            self.pos = saved
            self.fail("expected 'in' after 'not'")
        self.fail(
            "predicate must be boolean-shaped (comparison, membership, "
            "between, true/false, or a boolean combination)"
        )
        raise AssertionError("unreachable")

    def sum(self) -> Expr:
        left = self.term()
        while True:
            token = self.peek()
            if token.kind == "OP" and token.text in ("+", "-"):
                self.advance()
                left = BinOp(token.text, left, self.term())
            else:
                return left

    def term(self) -> Expr:
        left = self.unary()
        while True:
            token = self.peek()
            if token.kind == "OP" and token.text in ("*", "/", "%"):
                self.advance()
                left = BinOp(token.text, left, self.unary())
            else:
                return left

    def unary(self) -> Expr:
        if self.match("OP", "-"):
            return UnaryOp(self.unary())
        return self.primary()

    def primary(self) -> Expr:
        token = self.peek()
        if token.kind == "NUMBER":
            self.advance()
            text = token.text
            if any(c in text for c in ".eE"):
                return Literal(float(text))
            return Literal(int(text))
        if token.kind == "STRING":
            self.advance()
            return Literal(token.text)
        if token.kind == "PARAM":
            self.advance()
            return Param(token.text)
        if token.kind == "LBRACKET":
            self.advance()
            items: list[Expr] = []
            if self.peek().kind != "RBRACKET":
                items.append(self.sum())
                while self.match("COMMA"):
                    items.append(self.sum())
            self.expect("RBRACKET")
            if all(isinstance(i, Literal) for i in items):
                return Literal([i.value for i in items])  # type: ignore[union-attr]
            return _ListExpr(items)
        if token.kind == "LPAREN":
            self.advance()
            inner = self.sum()
            self.expect("RPAREN")
            return inner
        if token.kind == "IDENT":
            self.advance()
            name = token.text
            if self.peek().kind == "LPAREN":
                self.advance()
                args: list[Expr] = []
                if self.peek().kind != "RPAREN":
                    args.append(self.sum())
                    while self.match("COMMA"):
                        args.append(self.sum())
                self.expect("RPAREN")
                try:
                    return FuncCall(name, args)
                except PredicateError as exc:
                    raise PredicateSyntaxError(
                        str(exc), self.text, token.position
                    ) from None
            if name.lower() in ("true", "false"):
                return Literal(name.lower() == "true")
            if name == "__key__":
                return KeyRef()
            path = [name]
            while self.match("DOT"):
                path.append(self.expect("IDENT").text)
            return AttrRef(*path)
        self.fail(f"unexpected token {token.text or token.kind!r}")
        raise AssertionError("unreachable")


class _ListExpr(Expr):
    """A list literal with non-constant elements (params, attrs)."""

    __slots__ = ("items",)

    def __init__(self, items: list[Expr]):
        self.items = items

    def eval(self, ctx: Any) -> list[Any]:
        return [i.eval(ctx) for i in self.items]

    def bind(self, params: Mapping[str, Any]) -> Expr:
        bound = [i.bind(params) for i in self.items]
        if all(isinstance(i, Literal) for i in bound):
            return Literal([i.value for i in bound])  # type: ignore[union-attr]
        return _ListExpr(bound)

    def attrs(self) -> set[str]:
        out: set[str] = set()
        for i in self.items:
            out |= i.attrs()
        return out

    def param_names(self) -> set[str]:
        out: set[str] = set()
        for i in self.items:
            out |= i.param_names()
        return out

    def to_source(self) -> str:
        return "[" + ", ".join(i.to_source() for i in self.items) + "]"


def parse_predicate(
    text: str, params: Mapping[str, Any] | None = None
) -> Predicate:
    """Parse textual predicate source into a transparent predicate.

    ``params`` binds ``$name`` placeholders **after** parsing — parameter
    values never pass through the lexer, so no value can alter the query's
    structure (paper contribution 10).

    >>> p = parse_predicate("age > $min and name != 'Bob'", {"min": 42})
    >>> from repro.fdm import tuple_function
    >>> p(tuple_function(age=47, name='Alice'))
    True
    """
    pred = _parse_predicate(text)
    if params is not None:
        pred = pred.bind(params)
    return pred


#: Distinct predicate texts whose unbound trees the process keeps (LRU);
#: a tree is never mutated after construction, so callers share it.
PREDICATE_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=PREDICATE_CACHE_SIZE)
def _parse_predicate(text: str) -> Predicate:
    return _Parser(text).parse()


def parse_expression(text: str, params: Mapping[str, Any] | None = None) -> Expr:
    """Parse a value expression (used by computed attributes)."""
    parser = _Parser(text)
    expr = parser.sum()
    if parser.peek().kind != "EOF":
        parser.fail("unexpected trailing input")
    if params is not None:
        expr = expr.bind(params)
    return expr
