"""Reference answers the benchmark checks every op against.

RDF-H answers come from the generated TPC-H rows (the program never sees
them); DBLP answers come from a subject -> predicate -> objects model that
the benchmark keeps in step with every acknowledged write.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from datetime import date
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro import IRI, Literal, Triple
from repro.bench.tpch import TpchData, iter_reference_q3, iter_reference_q6

REL_TOL = 1e-9
"""Float sums are compared with this relative tolerance: the engine and the
reference add the same values in different orders."""


def close(a: float, b: float) -> bool:
    return math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=1e-6)


def python_value(term) -> object:
    """The value ``decode_rows`` yields for ``term``."""
    return term.to_python() if isinstance(term, Literal) else str(term)


def _orderkey(iri: str) -> int:
    return int(iri.rsplit("/", 1)[1])


class TpchOracle:
    """Memoized reference answers over the generated TPC-H tables."""

    def __init__(self, data: TpchData) -> None:
        self.data = data
        self._memo: Dict[tuple, object] = {}
        priority = {o.orderkey: o.orderpriority for o in data.orders}
        self._line_priority = [priority[line.orderkey] for line in data.lineitems]

    def expected(self, query: str, params: tuple) -> object:
        key = (query, params)
        if key not in self._memo:
            self._memo[key] = getattr(self, "_" + query)(*params)
        return self._memo[key]

    def _q3(self, segment: str, cutoff: date) -> Dict[int, tuple]:
        return {orderkey: (orderdate, revenue) for orderkey, revenue, orderdate
                in iter_reference_q3(self.data, segment=segment, cutoff=cutoff, limit=10)}

    def _q6(self, year: int, discount: float, quantity: int) -> float:
        return iter_reference_q6(self.data, ship_year=year, discount=discount,
                                 quantity_limit=quantity)

    def _q1(self, cutoff: date) -> Dict[tuple, list]:
        groups: Dict[tuple, list] = {}
        for line in self.data.lineitems:
            if line.shipdate > cutoff:
                continue
            acc = groups.setdefault((line.returnflag, line.linestatus), [0, 0.0, 0.0, 0])
            acc[0] += line.quantity
            acc[1] += line.extendedprice
            acc[2] += line.extendedprice * (1 - line.discount)
            acc[3] += 1
        return groups

    def _fk(self, priority: str) -> Counter:
        return Counter((line.quantity, round(line.extendedprice, 2), round(line.discount, 2))
                       for line, p in zip(self.data.lineitems, self._line_priority)
                       if p == priority)


def check_q3(rows: Sequence[tuple], expected: Dict[int, tuple], revenue_col: int) -> Optional[str]:
    """Q3 rows are (order IRI, orderdate, ..., revenue); ``revenue_col`` locates revenue."""
    got = {_orderkey(row[0]): (row[1], row[revenue_col]) for row in rows}
    if len(rows) != len(expected) or got.keys() != expected.keys():
        return f"q3 orders {sorted(got)} != expected {sorted(expected)}"
    for orderkey, (orderdate, revenue) in expected.items():
        if got[orderkey][0] != orderdate or not close(got[orderkey][1], revenue):
            return f"q3 order {orderkey}: {got[orderkey]} != {(orderdate, revenue)}"
    revenues = [row[revenue_col] for row in rows]
    if any(a < b and not close(a, b) for a, b in zip(revenues, revenues[1:])):
        return "q3 rows are not ordered by descending revenue"
    return None


def check_q6(rows: Sequence[tuple], expected: float) -> Optional[str]:
    if len(rows) != 1 or rows[0][0] is None or not close(rows[0][0], expected):
        return f"q6 {rows!r} != {expected!r}"
    return None


def check_q1(rows: Sequence[tuple], expected: Dict[tuple, list]) -> Optional[str]:
    got = {(row[0], row[1]): row[2:] for row in rows}
    if len(rows) != len(expected) or got.keys() != expected.keys():
        return f"q1 groups {sorted(got)} != expected {sorted(expected)}"
    for group, values in expected.items():
        if not all(close(a, b) for a, b in zip(got[group], values)):
            return f"q1 group {group}: {got[group]} != {values}"
    return None


def check_fk(rows: Sequence[tuple], expected: Counter) -> Optional[str]:
    got = Counter((int(q), round(p, 2), round(d, 2)) for q, p, d in rows)
    if got != expected:
        return f"fk-hop returned {sum(got.values())} rows, expected {sum(expected.values())}"
    return None


class GraphModel:
    """Subject -> predicate -> set of object terms, kept in step with writes."""

    def __init__(self, triples: Iterable[Triple]) -> None:
        self.subjects: Dict[str, Dict[str, Set[object]]] = defaultdict(lambda: defaultdict(set))
        self.count = 0
        for triple in triples:
            self.add(str(triple.subject), str(triple.predicate), triple.object)

    def add(self, subject: str, predicate: str, obj) -> bool:
        objects = self.subjects[subject][predicate]
        if obj in objects:
            return False
        objects.add(obj)
        self.count += 1
        return True

    def remove(self, subject: str, predicate: str, obj) -> bool:
        objects = self.subjects.get(subject, {}).get(predicate)
        if not objects or obj not in objects:
            return False
        objects.remove(obj)
        self.count -= 1
        return True

    def values(self, subject: str, predicate: str) -> List[object]:
        return [python_value(o) for o in self.subjects.get(subject, {}).get(predicate, ())]

    def triples(self) -> Iterator[Triple]:
        for subject, predicates in self.subjects.items():
            for predicate, objects in predicates.items():
                for obj in objects:
                    yield Triple(IRI(subject), IRI(predicate), obj)

    def decoded_triples(self) -> Counter:
        return Counter((s, p, python_value(o)) for s, predicates in self.subjects.items()
                       for p, objects in predicates.items() for o in objects)


def check_rows(label: str, rows: Sequence[tuple], expected: List[Tuple]) -> Optional[str]:
    """Bag equality of decoded rows."""
    if Counter(rows) != Counter(expected):
        return f"{label}: {len(rows)} rows != expected {len(expected)} ({expected[:3]}...)"
    return None
