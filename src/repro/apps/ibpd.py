"""Integrated Budget Performance Document (Table 1, ~1 week).

"The Integrated Budget Performance Document (IBPD) is an integrated
budget document which unifies previously disconnected budget documents.
While manual assembly of the IBPD can take several weeks, NETMARK was
used to extract and integrate information from thousands of NASA task
plans containing the required budget information and compose an
integrated IBPD document."

The pipeline here is the full Fig 7 flow: ingest task plans → XDB context
queries pull the Budget and Center sections → XSLT composes the
integrated document → the app additionally aggregates dollar totals per
center and fiscal year.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.netmark import Netmark
from repro.sgml.dom import Document
from repro.workloads.corpus import GeneratedFile
from repro.xslt.processor import transform

_CENTER_RE = re.compile(r"executed at NASA ([A-Za-z ]+?)\.")
_FY_AMOUNT_RE = re.compile(r"(FY\d{2}) funding of \$([\d,]+)")

#: The composition stylesheet — one chapter per task plan's Budget section.
IBPD_STYLESHEET = """<xsl:stylesheet>
  <xsl:template match="/">
    <ibpd title="Integrated Budget Performance Document">
      <xsl:apply-templates select="/results/result">
        <xsl:sort select="@doc"/>
      </xsl:apply-templates>
      <coverage><xsl:value-of select="count(/results/result)"/></coverage>
    </ibpd>
  </xsl:template>
  <xsl:template match="result">
    <chapter plan="{@doc}">
      <xsl:value-of select="normalize-space(content)"/>
    </chapter>
  </xsl:template>
</xsl:stylesheet>"""


@dataclass
class BudgetLine:
    """One task plan's extracted budget facts."""

    file_name: str
    center: str
    amounts: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.amounts.values())


@dataclass
class IbpdResult:
    """Everything the IBPD run produced."""

    document: Document  # the composed integrated document
    lines: list[BudgetLine]

    def total_by_center(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for line in self.lines:
            totals[line.center] = totals.get(line.center, 0) + line.total
        return dict(sorted(totals.items()))

    def total_by_year(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for line in self.lines:
            for year, amount in line.amounts.items():
                totals[year] = totals.get(year, 0) + amount
        return dict(sorted(totals.items()))

    @property
    def grand_total(self) -> int:
        return sum(line.total for line in self.lines)

    @property
    def chapter_count(self) -> int:
        return len(self.document.find_all("chapter"))


class IbpdAssembler:
    """Assembles the IBPD from ingested task plans."""

    def __init__(self, netmark: Netmark | None = None) -> None:
        self.netmark = netmark or Netmark("ibpd")
        self.netmark.install_stylesheet("ibpd.xsl", IBPD_STYLESHEET)

    def load_task_plans(self, files: list[GeneratedFile]) -> int:
        records = self.netmark.ingest_many(
            [(file.name, file.text) for file in files]
        )
        return sum(1 for record in records if record.ok)

    def assemble(self) -> IbpdResult:
        """Extract, integrate and compose the IBPD."""
        budget_results = self.netmark.search("Context=Budget")
        center_results = {
            match.file_name: _search(_CENTER_RE, match.content)
            for match in self.netmark.search("Context=Center")
        }
        lines: list[BudgetLine] = []
        for match in budget_results:
            amounts = {
                year: int(amount.replace(",", ""))
                for year, amount in _FY_AMOUNT_RE.findall(match.content)
            }
            if not amounts:
                continue
            lines.append(
                BudgetLine(
                    file_name=match.file_name,
                    center=center_results.get(match.file_name, "Unknown"),
                    amounts=amounts,
                )
            )
        composed = transform(IBPD_STYLESHEET, budget_results.to_xml())
        return IbpdResult(document=composed, lines=lines)


def _search(pattern: re.Pattern[str], text: str) -> str:
    match = pattern.search(text)
    return match.group(1).strip() if match else ""
