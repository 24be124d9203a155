"""SQL-subset parser.

Seaweed's query language is "a subset of SQL": single-table
select-project-aggregate queries with no distributed joins.  The grammar
we accept covers everything in the paper's evaluation plus projections::

    SELECT SUM(Bytes) FROM Flow WHERE SrcPort = 80
    SELECT COUNT(*) FROM Flow WHERE Bytes > 20000
    SELECT AVG(Bytes) FROM Flow WHERE App = 'SMB'
    SELECT SUM(Packets) FROM Flow WHERE LocalPort < 1024
    SELECT SUM(Bytes) FROM Flow
        WHERE SrcPort=80 AND ts <= NOW() AND ts >= NOW() - 86400
    SELECT ts, Bytes FROM Flow WHERE DstPort = 443

``NOW()`` is evaluated with the *querying* endsystem's timestamp — the
caller binds it at parse time, matching the paper's loose-clock-sync
semantics (each endsystem then compares against its local data).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.db.aggregates import AGGREGATE_FUNCTIONS, AggregateSpec
from repro.db.expressions import (
    Comparison,
    Not,
    Or,
    And,
    Predicate,
    TruePredicate,
)


class SQLSyntaxError(ValueError):
    """Raised when the query text cannot be parsed."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d+|\.\d+|\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<op><=|>=|!=|<>|=|<|>)
  | (?P<punct>[(),*+\-])
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "NOW", "GROUP", "BY"}


@dataclass(frozen=True)
class Token:
    """One lexical token: ``kind`` in {number, string, op, punct, ident, keyword}."""

    kind: str
    value: Any
    position: int


def tokenize(text: str) -> list[Token]:
    """Lex ``text`` into tokens; raises :class:`SQLSyntaxError` on junk."""
    tokens: list[Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise SQLSyntaxError(
                f"unexpected character {text[position]!r} at offset {position}"
            )
        position = match.end()
        if match.lastgroup == "ws":
            continue
        value = match.group()
        kind = match.lastgroup
        if kind == "number":
            parsed: Any = float(value) if "." in value else int(value)
            tokens.append(Token("number", parsed, match.start()))
        elif kind == "string":
            tokens.append(Token("string", value[1:-1].replace("''", "'"), match.start()))
        elif kind == "ident":
            upper = value.upper()
            if upper in _KEYWORDS:
                tokens.append(Token("keyword", upper, match.start()))
            else:
                tokens.append(Token("ident", value, match.start()))
        else:
            tokens.append(Token(kind, value, match.start()))
    return tokens


@dataclass(frozen=True)
class ParsedQuery:
    """The parsed form of a Seaweed query.

    Exactly one of ``aggregates`` / ``projection`` is non-empty: aggregate
    queries are aggregated in-network; projection queries return raw rows.
    Frozen with tuple fields, so one parse is safely shared by every
    endsystem and can key a database's memo of exact answers.
    """

    table: str
    aggregates: tuple[AggregateSpec, ...] = ()
    projection: tuple[str, ...] = ()
    predicate: Predicate = field(default_factory=TruePredicate)
    group_by: tuple[str, ...] = ()

    @property
    def is_aggregate(self) -> bool:
        """Whether the query uses aggregation operators."""
        return bool(self.aggregates)


class _Parser:
    def __init__(self, tokens: list[Token], now: Optional[float]) -> None:
        self._tokens = tokens
        self._index = 0
        self._now = now

    def _peek(self) -> Optional[Token]:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            raise SQLSyntaxError("unexpected end of query")
        self._index += 1
        return token

    def _expect(self, kind: str, value: Optional[Any] = None) -> Token:
        token = self._next()
        if token.kind != kind or (value is not None and token.value != value):
            raise SQLSyntaxError(
                f"expected {value or kind} at offset {token.position}, "
                f"got {token.value!r}"
            )
        return token

    def _accept(self, kind: str, value: Optional[Any] = None) -> Optional[Token]:
        token = self._peek()
        if token is not None and token.kind == kind and (
            value is None or token.value == value
        ):
            self._index += 1
            return token
        return None

    # -- grammar ------------------------------------------------------

    def parse_query(self) -> ParsedQuery:
        self._expect("keyword", "SELECT")
        aggregates, projection = self._select_list()
        self._expect("keyword", "FROM")
        table = self._expect("ident").value
        predicate: Predicate = TruePredicate()
        if self._accept("keyword", "WHERE"):
            predicate = self._or_expr()
        group_by: list[str] = []
        if self._accept("keyword", "GROUP"):
            self._expect("keyword", "BY")
            group_by.append(self._expect("ident").value)
            while self._accept("punct", ","):
                group_by.append(self._expect("ident").value)
            if not aggregates:
                raise SQLSyntaxError("GROUP BY requires aggregate select items")
        trailing = self._peek()
        if trailing is not None:
            raise SQLSyntaxError(
                f"unexpected trailing input at offset {trailing.position}: "
                f"{trailing.value!r}"
            )
        return ParsedQuery(
            table=table,
            aggregates=tuple(aggregates),
            projection=tuple(projection),
            predicate=predicate,
            group_by=tuple(group_by),
        )

    def _select_list(self) -> tuple[list[AggregateSpec], list[str]]:
        aggregates: list[AggregateSpec] = []
        projection: list[str] = []
        while True:
            token = self._next()
            if token.kind == "ident" and token.value.upper() in AGGREGATE_FUNCTIONS:
                func = token.value.upper()
                self._expect("punct", "(")
                if self._accept("punct", "*"):
                    aggregates.append(AggregateSpec(func, None))
                else:
                    column = self._expect("ident").value
                    aggregates.append(AggregateSpec(func, column))
                self._expect("punct", ")")
            elif token.kind == "ident":
                projection.append(token.value)
            elif token.kind == "punct" and token.value == "*":
                projection.append("*")
            else:
                raise SQLSyntaxError(
                    f"bad select item at offset {token.position}: {token.value!r}"
                )
            if not self._accept("punct", ","):
                break
        if aggregates and projection:
            raise SQLSyntaxError("cannot mix aggregates and plain columns")
        return aggregates, projection

    def _or_expr(self) -> Predicate:
        left = self._and_expr()
        while self._accept("keyword", "OR"):
            left = Or(left, self._and_expr())
        return left

    def _and_expr(self) -> Predicate:
        left = self._unary()
        while self._accept("keyword", "AND"):
            left = And(left, self._unary())
        return left

    def _unary(self) -> Predicate:
        if self._accept("keyword", "NOT"):
            return Not(self._unary())
        if self._accept("punct", "("):
            inner = self._or_expr()
            self._expect("punct", ")")
            return inner
        return self._comparison()

    def _comparison(self) -> Predicate:
        column = self._expect("ident").value
        op_token = self._expect("op")
        op = "!=" if op_token.value == "<>" else op_token.value
        value = self._value_expr()
        return Comparison(column, op, value)

    def _value_expr(self) -> Any:
        value = self._term()
        while True:
            token = self._peek()
            is_arith = token is not None and token.kind == "punct" and token.value in "+-"
            if is_arith and isinstance(value, str):
                raise SQLSyntaxError("arithmetic on string literals is not supported")
            if self._accept("punct", "+"):
                value = value + self._numeric_term()
            elif self._accept("punct", "-"):
                value = value - self._numeric_term()
            else:
                return value

    def _numeric_term(self) -> float:
        term = self._term()
        if isinstance(term, str):
            raise SQLSyntaxError("arithmetic on string literals is not supported")
        return term

    def _term(self) -> Any:
        token = self._next()
        if token.kind == "number":
            return token.value
        if token.kind == "string":
            return token.value
        if token.kind == "keyword" and token.value == "NOW":
            self._expect("punct", "(")
            self._expect("punct", ")")
            if self._now is None:
                raise SQLSyntaxError("NOW() used but no current time was bound")
            return self._now
        if token.kind == "punct" and token.value == "-":
            return -self._numeric_term()
        raise SQLSyntaxError(
            f"expected a value at offset {token.position}, got {token.value!r}"
        )


def parse(text: str, now: Optional[float] = None) -> ParsedQuery:
    """Parse ``text`` into a :class:`ParsedQuery`.

    Args:
        text: The SQL text.
        now: Value substituted for ``NOW()`` — the injecting endsystem's
            current timestamp.

    Raises:
        SQLSyntaxError: on any lexical or grammatical error.
    """
    return _Parser(tokenize(text), now).parse_query()
