"""Deterministic synthetic text generation.

All corpora derive from a seeded :class:`WordStream`, so every experiment
is reproducible run-to-run: same seed, same documents, same query answers.
The vocabulary is aerospace/programmatic English so that generated
documents look like the NASA material the paper integrates (proposals,
task plans, anomaly reports) and so that content searches have natural,
controllable selectivity.
"""

from __future__ import annotations

import random
from typing import Sequence

#: General prose vocabulary.
WORDS: tuple[str, ...] = (
    "mission", "vehicle", "system", "analysis", "review", "program",
    "milestone", "integration", "assessment", "baseline", "requirement",
    "design", "test", "flight", "ground", "payload", "orbit", "launch",
    "safety", "margin", "schedule", "risk", "budget", "resource",
    "procedure", "anomaly", "telemetry", "sensor", "thermal", "structure",
    "propulsion", "avionics", "software", "hardware", "interface",
    "verification", "validation", "criteria", "performance", "operations",
    "crew", "station", "module", "shuttle", "engine", "turbine", "nozzle",
    "tank", "valve", "panel", "inspection", "maintenance", "report",
    "document", "section", "appendix", "figure", "table", "summary",
    "finding", "recommendation", "action", "closure", "center", "division",
    "directorate", "proposal", "award", "contract", "grant", "research",
    "technology", "development", "demonstration", "prototype", "facility",
)

#: Section-heading vocabulary shared across corpora so that context
#: searches cross document and format boundaries.
HEADINGS: tuple[str, ...] = (
    "Abstract", "Introduction", "Background", "Objectives",
    "Technical Approach", "Budget", "Cost Details", "Schedule",
    "Milestones", "Management Plan", "Risk Assessment", "Technology Gap",
    "Related Work", "Facilities", "Personnel", "Travel", "Deliverables",
    "Conclusions", "References", "Lessons Learned",
)

NASA_CENTERS: tuple[str, ...] = (
    "Ames", "Johnson", "Kennedy", "Glenn", "Langley", "Marshall",
    "Goddard", "Dryden", "Stennis", "JPL",
)

NASA_DIVISIONS: tuple[str, ...] = (
    "Aeronautics", "Space Science", "Earth Science", "Exploration",
    "Space Operations", "Biological Research",
)

SUBSYSTEMS: tuple[str, ...] = (
    "Main Engine", "Thermal Protection", "Avionics", "Life Support",
    "Guidance", "Landing Gear", "Power", "Communications",
)

SEVERITIES: tuple[str, ...] = ("Low", "Medium", "High", "Critical")

_FIRST_NAMES: tuple[str, ...] = (
    "David", "Naveen", "Grace", "Alan", "Mae", "Sally", "Neil", "Judith",
    "Eileen", "Story", "Kalpana", "Ellison",
)
_LAST_NAMES: tuple[str, ...] = (
    "Maluf", "Ashish", "Hopper", "Shepard", "Jemison", "Ride", "Armstrong",
    "Resnik", "Collins", "Musgrave", "Chawla", "Onizuka",
)


class WordStream:
    """A seeded generator of words, sentences, paragraphs and names."""

    def __init__(self, seed: int = 2005) -> None:
        self._rng = random.Random(seed)

    # -- primitives ---------------------------------------------------------

    def choice(self, options: Sequence[str]) -> str:
        return self._rng.choice(list(options))

    def integer(self, low: int, high: int) -> int:
        return self._rng.randint(low, high)

    def sample(self, options: Sequence[str], count: int) -> list[str]:
        count = min(count, len(options))
        return self._rng.sample(list(options), count)

    def shuffle(self, items: list) -> None:
        self._rng.shuffle(items)

    # -- prose -----------------------------------------------------------------

    def word(self) -> str:
        return self.choice(WORDS)

    def words(self, count: int) -> list[str]:
        return [self.word() for _ in range(count)]

    def sentence(self, min_words: int = 6, max_words: int = 14) -> str:
        body = self.words(self.integer(min_words, max_words))
        text = " ".join(body)
        return text[0].upper() + text[1:] + "."

    def paragraph(self, min_sentences: int = 2, max_sentences: int = 5) -> str:
        return " ".join(
            self.sentence()
            for _ in range(self.integer(min_sentences, max_sentences))
        )

    def heading(self) -> str:
        return self.choice(HEADINGS)

    def title(self, word_count: int = 4) -> str:
        return " ".join(word.capitalize() for word in self.words(word_count))

    # -- entities ----------------------------------------------------------------

    def person(self) -> str:
        return f"{self.choice(_FIRST_NAMES)} {self.choice(_LAST_NAMES)}"

    def center(self) -> str:
        return self.choice(NASA_CENTERS)

    def division(self) -> str:
        return self.choice(NASA_DIVISIONS)

    def subsystem(self) -> str:
        return self.choice(SUBSYSTEMS)

    def severity(self) -> str:
        return self.choice(SEVERITIES)

    def dollars(self, low: int = 50, high: int = 5000) -> int:
        """A budget figure in thousands of dollars."""
        return self.integer(low, high) * 1000

