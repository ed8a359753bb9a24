"""The benchmark's three workloads.

Each workload builds its inputs from the seed only (data through the
program's own generators, serialized to N-Triples text; op strings drawn
from a seeded generator), sets a store up from that text, and then yields a
closed-loop op stream: one client, one op at a time, each op's answer
checked against an oracle outside the op's timer.
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path
from typing import Dict, List, Optional

from repro import PlannerOptions, RDFStore, StoreConfig, StoreService
from repro.bench.dblp import (
    CLASS_INPROCEEDINGS, DBLP, P_CREATOR, P_ISSUED, P_PART_OF, P_TITLE, DblpConfig,
    generate_dblp,
)
from repro.bench.queries import q1_sparql, q3_sparql, q3_sql, q6_sparql, q6_sql
from repro.bench.rdfh import RDFH_VOC, sub_order_keys, tpch_to_triples
from repro.bench.tpch import MKT_SEGMENTS, ORDER_PRIORITIES, TpchConfig, generate_tpch
from repro.model import IRI, Literal
from repro.model.terms import RDF_TYPE
from repro.rio import parse_rdf
from repro.rio.ntriples import serialize_ntriples

from .oracles import (
    GraphModel, TpchOracle, check_fk, check_q1, check_q3, check_q6, check_rows,
)

# Explicit store settings: nothing is left to defaults or environment
# variables (``REPRO_BATCH_SIZE`` would otherwise leak into the numbers).
BATCH_SIZE = 1024
PAGE_SIZE = 1024
ZONE_SIZE = 1024
PLAN_CACHE_SIZE = 128
RDFH_POOL_PAGES = 96
"""Below the 151-168 distinct pages the RDF-H mix touches on seeds 1-10
(measured by the traced run as ``columnar.mix_pages_touched``), so the pool
evicts during the run."""
DBLP_POOL_PAGES = 1 << 20
"""Far above the DBLP store's pages: that data fits every cache."""
CHECKPOINT_EVERY = 100
WARMUP_READS = 30


def dir_bytes(path: Path) -> int:
    """Bytes of every file under ``path``."""
    return sum(os.path.getsize(os.path.join(folder, name))
               for folder, _dirs, names in os.walk(path) for name in names)


@dataclass
class Op:
    """One closed-loop request."""

    kind: str                      # "read", "write" or "checkpoint"
    label: str                     # op shape, e.g. "q3" or "new_paper"
    text: str = ""
    frontend: str = "sparql"       # "sparql", "sql", "update" or "maintenance"
    params: tuple = ()
    options: Optional[PlannerOptions] = None
    triples: List[tuple] = field(default_factory=list)   # (s, p, o) a write changes


class Deck:
    """Draws labels in shuffled blocks holding each label ``count`` times.

    Every block has the mix's exact proportions, so a run's composition does
    not drift with the seed; only the order within a block is random.
    """

    def __init__(self, counts: Dict[str, int], rng: random.Random) -> None:
        self.block = [label for label, count in counts.items() for _ in range(count)]
        self.rng = rng
        self.pending: List[str] = []

    def draw(self) -> str:
        if not self.pending:
            self.pending = self.block[:]
            self.rng.shuffle(self.pending)
        return self.pending.pop()


class Workload:
    """Common setup and execution; subclasses supply data, ops and checks."""

    name = ""
    min_reads = 1000
    min_writes = 0
    setup_repeats = 20
    """Set-ups per run, half before the timed loop and half after; ``setup_s``
    is their median."""
    durable = False
    pool_constrained = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.ops_rng = random.Random(f"{self.name}/{seed}/ops")
        self.warmup_rng = random.Random(f"{self.name}/{seed}/warmup")
        self.read_deck = Deck(self.read_mix, self.ops_rng)
        self.store: Optional[RDFStore] = None
        self.service: Optional[StoreService] = None
        self.db_path: Optional[Path] = None
        self.layout: List[Dict[str, float]] = []

    # -- inputs ----------------------------------------------------------------

    def generate(self) -> str:
        raise NotImplementedError

    def store_config(self) -> StoreConfig:
        raise NotImplementedError

    def sort_key_names(self) -> Optional[Dict[str, str]]:
        return None

    def settings(self) -> Dict[str, object]:
        config = self.store_config()
        return {"batch_size": config.batch_size, "page_size": config.page_size,
                "zone_size": config.zone_size, "buffer_pool_pages": config.buffer_pool_pages,
                "plan_cache_size": config.plan_cache_size,
                "flush_policy": "fsync per acknowledged update (the store's WAL)"
                if self.durable else "none (in-memory store)"}

    # -- setup -----------------------------------------------------------------

    def setup(self, text: str, tr, index: int,
              config: Optional[StoreConfig] = None) -> RDFStore:
        """Text to a warmed, ready store (plus ``save`` on a durable workload)."""
        with tr.span("rio.parse"):
            triples = list(parse_rdf(text))
        store = RDFStore(config or self.store_config())
        with tr.span("storage.load"):
            store.load(triples)
        with tr.span("cs.discover"):
            store.discover_schema()
        with tr.span("storage.cluster"):
            store.cluster(sort_key_names=self.sort_key_names())
        with tr.span("storage.warm"):
            store.warm()
        if self.durable:
            path = self.workdir / f"db-{index}"
            with tr.span("persist.save"):
                store.save(path)
        return store

    def adopt(self, store: RDFStore, index: int) -> None:
        """Make ``store`` (from setup number ``index``) the one the run uses."""
        self.store = store
        self.service = StoreService(store)
        if self.durable:
            self.db_path = self.workdir / f"db-{index}"
        self.record_layout("setup")

    def release(self) -> None:
        """Drop the run's store once the timed loop and its checks are done."""
        self.store = self.service = None

    def discard(self, index: int) -> None:
        if self.durable:
            shutil.rmtree(self.workdir / f"db-{index}", ignore_errors=True)

    def record_layout(self, when: str) -> None:
        summary = self.store.storage_summary()
        self.layout.append({"when": when,
                            "regular_fraction": float(summary["regular_fraction"]),
                            "irregular_triples": int(summary["irregular_triples"])})

    # -- ops -------------------------------------------------------------------

    read_mix: Dict[str, int] = {}
    """Read labels and their counts per block of the mix."""

    def sample_reads(self, rng: random.Random, count: int) -> List[Op]:
        deck = Deck(self.read_mix, rng)
        return [self.read_op(deck.draw(), rng) for _ in range(count)]

    def warmup_ops(self) -> List[Op]:
        return self.sample_reads(self.warmup_rng, WARMUP_READS)

    def next_op(self) -> Op:
        return self.read_op(self.read_deck.draw(), self.ops_rng)

    def read_op(self, label: str, rng: random.Random) -> Op:
        """A read of shape ``label`` with parameters drawn from ``rng``."""
        raise NotImplementedError

    def execute(self, op: Op, tr):
        """Run ``op`` through the public API; this is all the op timer covers."""
        store = self.store
        with tr.span("core.query"):
            if op.frontend == "sql":
                result = store.sql(op.text)
            else:
                result = store.sparql(op.text, op.options)
        with tr.span("engine.decode"):
            rows = store.decode_rows(result)
        return result, rows

    def check(self, op: Op, outcome) -> Optional[str]:
        """Compare ``op``'s outcome with the oracle (outside the timer)."""
        raise NotImplementedError

    def enough(self, reads: int, writes: int) -> bool:
        return reads >= self.min_reads and writes >= self.min_writes

    def finish(self) -> Dict[str, object]:
        """End-of-run checks and figures (outside every timer)."""
        return {}


def _fk_hop_sparql(priority: str) -> str:
    """Star over a lineitem plus one foreign-key hop to its order."""
    return f"""PREFIX rdfh: <{RDFH_VOC}>
SELECT ?o1 ?o2 ?o3
WHERE {{
  ?l rdfh:l_quantity ?o1 .
  ?l rdfh:l_extendedprice ?o2 .
  ?l rdfh:l_discount ?o3 .
  ?l rdfh:l_orderkey ?order .
  ?order rdfh:o_orderpriority "{priority}" .
}}
"""


class RdfhAnalytics(Workload):
    name = "rdfh_analytics"
    scale_factor = 0.002
    setup_repeats = 5
    pool_constrained = True

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.options = PlannerOptions(scheme="optimized", use_zone_maps=True)
        self.oracle: Optional[TpchOracle] = None

    def generate(self) -> str:
        data = generate_tpch(TpchConfig(scale_factor=self.scale_factor, seed=self.seed))
        self.oracle = TpchOracle(data)
        return serialize_ntriples(tpch_to_triples(data))

    def store_config(self) -> StoreConfig:
        return StoreConfig(batch_size=BATCH_SIZE, page_size=PAGE_SIZE, zone_size=ZONE_SIZE,
                           buffer_pool_pages=RDFH_POOL_PAGES,
                           plan_cache_size=PLAN_CACHE_SIZE)

    def sort_key_names(self) -> Dict[str, str]:
        return sub_order_keys()

    # Q3 30%, Q6 30% (each a third through SQL), star+FK-hop 30%, Q1 10%
    read_mix = {"q3.sparql": 6, "q3.sql": 3, "q6.sparql": 6, "q6.sql": 3, "fk": 9, "q1": 3}

    def read_op(self, label: str, rng: random.Random) -> Op:
        # parameters are drawn per op, so distinct texts outnumber the plan cache
        sql = label.endswith(".sql")
        frontend, options = ("sql", None) if sql else ("sparql", self.options)
        if label.startswith("q3"):
            segment = rng.choice(MKT_SEGMENTS)
            cutoff = date(1995, 3, 1) + timedelta(days=rng.randrange(31))
            text = q3_sql(segment, cutoff.isoformat()) if sql else q3_sparql(segment, cutoff)
            return Op("read", "q3", text, frontend, (segment, cutoff), options)
        if label.startswith("q6"):
            params = (rng.randrange(1993, 1998), rng.randrange(2, 10) / 100,
                      rng.randrange(20, 31))
            text = q6_sql(*params) if sql else q6_sparql(*params)
            return Op("read", "q6", text, frontend, params, options)
        if label == "fk":
            priority = rng.choice(ORDER_PRIORITIES)
            return Op("read", "fk", _fk_hop_sparql(priority), "sparql", (priority,), options)
        cutoff = date(1998, 12, 1) - timedelta(days=rng.randint(60, 120))
        return Op("read", "q1", q1_sparql(cutoff.isoformat()), "sparql", (cutoff,), options)

    def check(self, op: Op, outcome) -> Optional[str]:
        _result, rows = outcome
        expected = self.oracle.expected(op.label, op.params)
        if op.label == "q3":
            return check_q3(rows, expected, revenue_col=2 if op.frontend == "sql" else 3)
        if op.label == "q6":
            return check_q6(rows, expected)
        if op.label == "q1":
            return check_q1(rows, expected)
        return check_fk(rows, expected)


class DblpLookup(Workload):
    name = "dblp_lookup"
    papers = 2000

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.authors = self.papers // 4
        self.model: Optional[GraphModel] = None
        self.paper_iris: List[str] = []

    def generate(self) -> str:
        triples = generate_dblp(DblpConfig(papers=self.papers, conferences=8,
                                           authors=self.authors, seed=self.seed))
        self.model = GraphModel(triples)
        self.paper_iris = [f"{DBLP}inproc/{i}" for i in range(self.papers)]
        return serialize_ntriples(triples)

    def store_config(self) -> StoreConfig:
        return StoreConfig(batch_size=BATCH_SIZE, page_size=PAGE_SIZE, zone_size=ZONE_SIZE,
                           buffer_pool_pages=DBLP_POOL_PAGES,
                           plan_cache_size=PLAN_CACHE_SIZE)

    # paper star 60%, paper->venue hop 30%, papers-by-author 10%
    read_mix = {"star": 6, "hop": 3, "by_author": 1}

    def read_op(self, label: str, rng: random.Random) -> Op:
        # a fresh constant per op
        if label == "star":
            paper = rng.choice(self.paper_iris)
            text = (f"SELECT ?t ?c ?v WHERE {{ <{paper}> <{P_TITLE}> ?t . "
                    f"<{paper}> <{P_CREATOR}> ?c . <{paper}> <{P_PART_OF}> ?v . }}")
            return Op("read", "star", text, params=(paper,))
        if label == "hop":
            paper = rng.choice(self.paper_iris)
            text = (f"SELECT ?t ?vt ?y WHERE {{ <{paper}> <{P_TITLE}> ?t . "
                    f"<{paper}> <{P_PART_OF}> ?v . ?v <{P_TITLE}> ?vt . "
                    f"?v <{P_ISSUED}> ?y . }}")
            return Op("read", "hop", text, params=(paper,))
        author = f"{DBLP}author/{rng.randrange(self.authors)}"
        text = (f"SELECT ?p ?t ?v WHERE {{ ?p <{P_CREATOR}> <{author}> . "
                f"?p <{P_TITLE}> ?t . ?p <{P_PART_OF}> ?v . }}")
        return Op("read", "by_author", text, params=(author,))

    def expected_rows(self, op: Op) -> List[tuple]:
        model = self.model
        if op.label == "star":
            paper = op.params[0]
            return [(t, c, v) for t in model.values(paper, P_TITLE)
                    for c in model.values(paper, P_CREATOR)
                    for v in model.values(paper, P_PART_OF)]
        if op.label == "hop":
            paper = op.params[0]
            return [(t, vt, y) for v in model.values(paper, P_PART_OF)
                    for t in model.values(paper, P_TITLE)
                    for vt in model.values(v, P_TITLE) for y in model.values(v, P_ISSUED)]
        author = IRI(op.params[0])
        return [(paper, t, v) for paper, predicates in model.subjects.items()
                if author in predicates.get(P_CREATOR, ())
                for t in model.values(paper, P_TITLE) for v in model.values(paper, P_PART_OF)]

    def check(self, op: Op, outcome) -> Optional[str]:
        return check_rows(f"{op.label}({op.params[0]})", outcome[1], self.expected_rows(op))


class DblpReadWrite(DblpLookup):
    name = "dblp_read_write"
    min_writes = 200
    durable = True

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.new_papers = 0
        self.writes_since_checkpoint = 0
        self.kind_deck = Deck({"read": 8, "write": 2}, self.ops_rng)
        self.write_deck = Deck({"new_paper": 5, "add_creator": 3, "delete_title": 2},
                               self.ops_rng)

    def next_op(self) -> Op:
        # 80% reads, 20% writes (new paper 50%, extra creator 30%, title
        # DELETE DATA 20%); a checkpoint after every CHECKPOINT_EVERY writes
        if self.writes_since_checkpoint >= CHECKPOINT_EVERY:
            self.writes_since_checkpoint = 0
            return Op("checkpoint", "checkpoint", frontend="maintenance")
        rng = self.ops_rng
        if self.kind_deck.draw() == "read":
            return super().next_op()
        self.writes_since_checkpoint += 1
        label = self.write_deck.draw()
        if label == "new_paper":
            paper = f"{DBLP}inproc/new-{self.new_papers}"
            self.new_papers += 1
            triples = [(paper, RDF_TYPE, IRI(CLASS_INPROCEEDINGS)),
                       (paper, P_CREATOR, IRI(f"{DBLP}author/{rng.randrange(self.authors)}")),
                       (paper, P_TITLE, Literal(f"New paper {self.new_papers}")),
                       (paper, P_PART_OF, IRI(f"{DBLP}conf/{rng.randrange(8)}"))]
            return self._write("INSERT", "new_paper", triples)
        if label == "add_creator":
            paper = rng.choice(self.paper_iris)
            author = IRI(f"{DBLP}author/{rng.randrange(self.authors)}")
            return self._write("INSERT", "add_creator", [(paper, P_CREATOR, author)])
        while True:
            paper = rng.choice(self.paper_iris)
            titles = sorted(self.model.subjects.get(paper, {}).get(P_TITLE, ()),
                            key=lambda term: term.n3())
            if titles:
                return self._write("DELETE", "delete_title", [(paper, P_TITLE, titles[0])])

    @staticmethod
    def _write(verb: str, label: str, triples: List[tuple]) -> Op:
        body = " ".join(f"<{s}> <{p}> {o.n3()} ." for s, p, o in triples)
        return Op("write", label, f"{verb} DATA {{ {body} }}", "update", triples=triples)

    def execute(self, op: Op, tr):
        service = self.service
        if op.kind == "write":
            with tr.span("updates.update"):
                return service.update(op.text)
        if op.kind == "checkpoint":
            with tr.span("updates.compact"):
                service.compact()
            with tr.span("persist.checkpoint_write"):
                return service.checkpoint()
        with tr.span("server.snapshot_pin"):
            snapshot = service.snapshot()
        try:
            with tr.span("core.query"):
                result = snapshot.sparql(op.text, op.options)
            with tr.span("engine.decode"):
                rows = snapshot.decode_rows(result)
        finally:
            with tr.span("server.snapshot_release"):
                snapshot.close()
        return result, rows

    def check(self, op: Op, outcome) -> Optional[str]:
        if op.kind == "read":
            return super().check(op, outcome)
        if op.kind == "checkpoint":
            self.record_layout("checkpoint")
            live = self.store.live_triple_count()
            if live != self.model.count:
                return f"checkpoint: store holds {live} triples, model {self.model.count}"
            return None
        # the write was acknowledged: apply it to the model, then compare counts
        if op.label == "delete_title":
            changed = sum(self.model.remove(s, p, o) for s, p, o in op.triples)
            got = outcome.deleted
        else:
            changed = sum(self.model.add(s, p, o) for s, p, o in op.triples)
            got = outcome.inserted
            if op.label == "new_paper":
                self.paper_iris.append(op.triples[0][0])
        if got != changed:
            return f"{op.label}: store changed {got} triples, model {changed}"
        return None

    def finish(self) -> Dict[str, object]:
        """Durability reopen, then a final checkpoint for the space figure."""
        copy = self.workdir / "reopen"
        shutil.copytree(self.db_path, copy)
        try:
            reopened = RDFStore.open(copy)
            rows = reopened.decode_rows(reopened.sparql("SELECT ?s ?p ?o WHERE { ?s ?p ?o . }"))
            durable_error = check_rows("durability reopen", rows,
                                       list(self.model.decoded_triples().elements()))
        finally:
            shutil.rmtree(copy, ignore_errors=True)
        self.service.checkpoint()
        self.record_layout("final checkpoint")
        nt_bytes = len(serialize_ntriples(self.model.triples()).encode("utf-8"))
        return {"durability_error": durable_error, "db_bytes": dir_bytes(self.db_path),
                "live_nt_bytes": nt_bytes}


WORKLOADS = {cls.name: cls for cls in (RdfhAnalytics, DblpLookup, DblpReadWrite)}
