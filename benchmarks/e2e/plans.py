"""The four workloads: what is loaded, and which operations are timed.

Everything here is a pure function of ``(workload, seed)``: the corpus,
the order of the operations, which document a write replaces.  The
system under test only ever sees the generated inputs.  Operations come
in *rounds* — fixed-size deterministic blocks — and ``--seconds`` buys a
whole number of them at a fixed price (:data:`ROUND_SECONDS`), so the
operations a run executes never depend on how fast the box is today.

Why each workload exists is recorded in ``BENCHMARK.json`` (and, at
length, in the README next to this file).
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from repro.workloads import HEADINGS, WORDS, CorpusSpec, GeneratedFile, generate_corpus

#: ROADMAP's fig6 corpus size; every workload runs on a store this big.
DOCUMENTS = 400
PLANTED_TERM = "zephyr"
PLANT_EVERY = 40
STYLESHEET = "report.xsl"
ZIPF_EXPONENT = 1.1

#: Nominal seconds one round costs at the commit that defined the
#: benchmark (``ingest_durable``: 400 writes and the recovery after them).
#: A price list, not a measurement: a run of ``--seconds S`` executes
#: ``round(S / price)`` rounds whatever the clock says, so a parent and a
#: change — or a fast and a throttled box — time the same operations and
#: the exact counts repeat bit for bit.
ROUND_SECONDS = {
    "ingest_durable": 4.6,
    "search_cold": 0.55,
    "search_compose": 0.78,
    "mixed_rw": 1.6,
}

#: The Fig 7 composition stylesheet: sort, count, restructure.
REPORT_XSL = """<xsl:stylesheet>
  <xsl:template match="/">
    <report query="{results/@query}">
      <xsl:apply-templates select="results/result">
        <xsl:sort select="@doc"/>
      </xsl:apply-templates>
      <coverage><xsl:value-of select="count(results/result)"/></coverage>
    </report>
  </xsl:template>
  <xsl:template match="result">
    <chapter doc="{@doc}">
      <heading><xsl:value-of select="context"/></heading>
      <body><xsl:value-of select="normalize-space(content)"/></body>
    </chapter>
  </xsl:template>
</xsl:stylesheet>"""


class Op(NamedTuple):
    """One timed operation: a ``/search`` request or a file drop."""

    kind: str  # "read" | "write"
    target: str  # read: the request target; write: the file name
    body: str = ""  # write: the file content


def _heading(heading: str) -> str:
    return heading.replace(" ", "+")


def _search(params: str) -> str:
    return "/search?" + params


def _zipf_cumulative(count: int) -> list[float]:
    return list(
        itertools.accumulate(1.0 / rank**ZIPF_EXPONENT for rank in range(1, count + 1))
    )


def cold_queries() -> list[str]:
    """The 61 distinct uncached requests of ``search_cold``."""
    targets = [_search(f"Content={PLANTED_TERM}&limit=20&Cache=0")]
    for heading in HEADINGS:
        name = _heading(heading)
        targets += [
            _search(f"Context={name}&Cache=0"),
            _search(f"Context={name}&Content={PLANTED_TERM}&Cache=0"),
            _search(f"Context={name}&limit=5&Cache=0"),
        ]
    return targets


def compose_queries() -> list[str]:
    """The 60-query universe of ``search_compose``, most popular first.

    Popularity rank is fixed (it does not follow the seed) and walks the
    three result sizes in turn — 20, 5, every match — so the Zipf curve
    gives them 46 %, 30 % and 24 % of the requests: the median request
    composes 20 sections and the 90th percentile a whole heading, each
    well inside its class, on every seed.
    """
    shapes = ("Context={h}&limit=20", "Context={h}&limit=5", "Context={h}")
    return [
        _search(shapes[rank % 3].format(h=_heading(heading)) + "&xslt=" + STYLESHEET)
        for rank, heading in enumerate(h for _ in range(3) for h in HEADINGS)
    ]


def mixed_queries() -> list[str]:
    """The 1520-query universe of ``mixed_rw`` (20 headings x 76 terms).

    Most popular first, heading by heading.  ``Budget`` and ``Schedule``
    are also words of the body text, so their queries cost three times
    the others; ranked by term they were a tenth of the reads and the
    90th percentile read sat on the edge of that class.  Ranked by
    heading they are 3 %, and the percentile stays clear of it.
    """
    return [
        _search(f"Context={_heading(heading)}&Content={term}&limit=10")
        for heading in HEADINGS
        for term in WORDS
    ]


@dataclass
class Plan:
    """One workload instantiated for one seed."""

    name: str
    seed: int
    corpus: list[GeneratedFile]

    @property
    def preload(self) -> bool:
        """Whether the corpus is loaded during set-up (the read workloads)
        or is itself the timed work (``ingest_durable``)."""
        return self.name != "ingest_durable"

    def round_count(self, seconds: float) -> int:
        """How many rounds ``--seconds`` buys (at least one)."""
        return max(1, round(seconds / ROUND_SECONDS[self.name]))

    # -- ground truth --------------------------------------------------------

    def heading_counts(self) -> Counter:
        return Counter(h for generated in self.corpus for h in generated.headings)

    def plant_count(self) -> int:
        return sum(generated.text.count(PLANTED_TERM) for generated in self.corpus)

    # -- the operation stream ------------------------------------------------

    def rounds(self) -> Iterator[list[Op]]:
        """Endless deterministic stream of operation blocks."""
        rng = random.Random(f"{self.name}:{self.seed}")
        if self.name == "ingest_durable":
            block = [Op("write", g.name, g.text) for g in self.corpus]
            while True:
                yield block
        elif self.name == "search_cold":
            # 20 headings x 3 shapes plus the heading-free shape: 64
            # requests, every round the same multiset.  Four heading-free
            # requests (not twenty) keep the median request inside the
            # Context+Content class instead of on the edge between two.
            targets = cold_queries()
            block = targets[1:] + [targets[0]] * 4
            while True:
                rng.shuffle(block)
                yield [Op("read", target) for target in block]
        elif self.name == "search_compose":
            universe = compose_queries()
            weights = _zipf_cumulative(len(universe))
            while True:
                yield [
                    Op("read", target)
                    for target in rng.choices(universe, cum_weights=weights, k=250)
                ]
        elif self.name == "mixed_rw":
            universe = mixed_queries()
            weights = _zipf_cumulative(len(universe))
            revised = generate_corpus(_spec(len(self.corpus), self.seed + 1))
            while True:
                block = []
                for index, target in enumerate(
                    rng.choices(universe, cum_weights=weights, k=100)
                ):
                    if index % 4 == 0:
                        victim = rng.randrange(len(revised))
                        block.append(
                            Op("write", revised[victim].name, revised[victim].text)
                        )
                    block.append(Op("read", target))
                yield block
        else:
            raise ValueError(f"unknown workload {self.name!r}")

    def digest(self, rounds: int) -> str:
        """Fingerprint of the first ``rounds`` blocks (same seed, same digest)."""
        sha = hashlib.sha256()
        for block in itertools.islice(self.rounds(), rounds):
            for op in block:
                sha.update(f"{op.kind}\t{op.target}\t{len(op.body)}\n".encode())
                sha.update(op.body.encode("utf-8"))
        return sha.hexdigest()


def _spec(documents: int, seed: int) -> CorpusSpec:
    return CorpusSpec(
        documents=documents,
        seed=seed,
        planted_term=PLANTED_TERM,
        plant_every=PLANT_EVERY,
    )


def build_plan(name: str, seed: int, documents: int = DOCUMENTS) -> Plan:
    """Generate ``name``'s inputs from ``seed``."""
    if name not in ROUND_SECONDS:
        raise ValueError(f"unknown workload {name!r}")
    return Plan(name=name, seed=seed, corpus=generate_corpus(_spec(documents, seed)))
