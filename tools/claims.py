"""The paper's Section VI claims: one table, checked on the figure series.

Each :class:`Claim` row says how one series on one panel of a ``FIGURES``
figure behaves, and records its verdict on the committed
``results/<stem>.txt``: ``PASS``, or ``DEVIATION`` with a reason and an
evidence pointer.  ``tests/test_claims.py`` (tier-1),
``benchmarks/test_figures.py`` and ``tools/fill_experiments.py`` all
evaluate the rows here; docs/TESTING.md ("Claims") lists the relations.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.experiments import FIGURES
from repro.experiments.tables import PANELS

ROOT = Path(__file__).resolve().parent.parent
PASS, DEVIATION, UNAVAILABLE = "PASS", "DEVIATION", "N/A"

#: Metric -> the title line ``format_sweep_table`` prints above its panel.
PANEL_TITLES = {metric: f"{title} [{unit}]" for metric, title, unit in PANELS}
COMPARE: Dict[str, Callable[[float, float], bool]] = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
#: The last cell against the first.
TRENDS = {"rises": ">", "falls": "<"}

Rows = Union[str, Tuple[str, ...]]


def names(rows: Optional[Rows]) -> List[str]:
    """The row (or x) labels a claim field names."""
    return [rows] if isinstance(rows, str) else list(rows or ())


@dataclass(frozen=True)
class Claim:
    """``series`` on ``panel`` of ``figure`` stands in ``relation`` to
    ``factor`` x ``operand`` at the x labels ``x`` (None: every x).  A tuple
    of rows stands for the group's best cell at each x."""

    figure: str
    panel: str
    series: Rows
    relation: str
    operand: Optional[Rows] = None
    factor: float = 1.0
    x: Union[None, str, Tuple[str, ...]] = None
    tol: float = 0.0
    verdict: str = PASS
    reason: str = ""
    evidence: str = ""


LAT, SRV, GCH, PWR = "access_latency", "server_request_ratio", "gch_ratio", "power_per_gch"
SCHEMES, COOP = ("LC", "CC", "GC"), ("CC", "GC")
ADAPTIVE = ("least-pending", "latency-aware", "power-aware", "epsilon-greedy")
ADMISSION = ("GC+probcache", "GC+lcd")
SWAPS = (*ADMISSION, "GC+lru-min", "GC+greedy-dual", "GC+popularity")


def deviation(reason: str, evidence: str) -> Dict[str, Any]:
    """The keywords of a row the committed series does not bear out."""
    return dict(verdict=DEVIATION, reason=reason, evidence=evidence)


NOISE, ITEM_1 = "ROADMAP item 5", "ROADMAP item 1"
FILTER_FN = "GC skips searches its peer signature wrongly rules out"
#: Figure -> why GC collects fewer global hits than CC somewhere on it.
GC_TRAILS = {
    "fig2": deviation("at large caches CC's searches also reap cross-group hits",
                      "ROADMAP item 6"),
    "fig4": deviation(f"{FILTER_FN}; the gap narrows from -5.19 to -1.96 points as "
                      "the warm-up grows from 550 s to 3 000 s (seeds 1-4)",
                      "ROADMAP item 4"),
    "fig5": deviation(FILTER_FN, ITEM_1),
    "fig7": deviation(FILTER_FN, ITEM_1),
    "fig8": deviation(f"GC erodes faster: {FILTER_FN}", "ROADMAP item 2"),
}

#: Every claim; a comment names the figure's id in DESIGN.md's index, and
#: "shape" marks what the paper's Section VI states.
CLAIMS: Tuple[Claim, ...] = (
    # F2-F8 (an F2 and F4 shape): GC collects at least CC's hits, at less power.
    *(Claim(f"fig{n}", GCH, "GC", ">=", "CC", **GC_TRAILS.get(f"fig{n}", {}))
      for n in range(2, 9)),
    *(Claim(f"fig{n}", PWR, "GC", "<", "CC", reason="the signature filter "
            "bypasses most searches (ablation A4)") for n in (2, 4, 5, 7)),
    # F2 shape: latency and server ratio fall with cache size; GC >= CC >= LC.
    *(Claim("fig2", m, s, "falls") for m in (LAT, SRV) for s in SCHEMES),
    Claim("fig2", LAT, "CC", "<=", "LC"),
    *(Claim("fig2", SRV, s, "<", "LC") for s in COOP),
    Claim("fig2", LAT, "GC", "<=", "CC",
          **deviation("GC ties CC at the largest cache, inside seed noise", NOISE)),
    Claim("fig2", SRV, "GC", "<=", "CC", **GC_TRAILS["fig2"]),
    # F2: GC leads where caches are scarce and overall; LC has no global hits.
    *(Claim("fig2", GCH, "GC", ">", "CC", x=x) for x in ("50", "sum")),
    Claim("fig2", GCH, "LC", "zero"),
    *(Claim("fig2", GCH, s, "positive") for s in COOP),
    # F2 shape: power per GCH falls, then flattens or rises at large caches.
    *(Claim("fig2", PWR, s, "min-at", x=("100", "150", "200", "250"),
            reason="LCH crowds out GCH at the largest caches") for s in COOP),
    # F3 shape: latency and server ratio improve with theta; GCH rises, then
    # falls as LCH takes over; power per GCH rises.
    *(Claim("fig3", m, s, "falls") for m in (LAT, SRV) for s in SCHEMES),
    Claim("fig3", GCH, "CC", "max-at", x=("0.25", "0.5", "0.75")),
    Claim("fig3", GCH, "GC", "max-at", x=("0.25", "0.5", "0.75"),
          **deviation("GC's GCH peaks at uniform access, level to moderate skew", NOISE)),
    Claim("fig3", PWR, "CC", "rises",
          **deviation("CC's GCH count holds up better than its search count", NOISE)),
    Claim("fig3", PWR, "GC", "rises"),
    *(Claim("fig3", GCH, s, "positive") for s in COOP),
    # F4 shape: everything degrades with access range; F4: GC leads when narrow.
    *(Claim("fig4", m, s, "rises") for m in (LAT, SRV) for s in SCHEMES),
    *(Claim("fig4", GCH, s, "falls") for s in COOP),
    *(Claim("fig4", SRV, s, "<", "LC") for s in COOP),
    Claim("fig4", GCH, "GC", ">", "CC", x="500"),
    # F5 shape: size 1 is the worst case for GCH; GCH and server ratio improve
    # with size; power per GCH and congestion latency grow at very large sizes.
    *(Claim("fig5", GCH, s, "min-at", x="1") for s in COOP),
    *(Claim("fig5", m, s, r) for m, r in ((GCH, "rises"), (SRV, "falls"), (PWR, "rises"))
      for s in COOP),
    *(Claim("fig5", LAT, s, "min-at", x=("5", "10", "15")) for s in COOP),
    Claim("fig5", GCH, "LC", "zero"),
    # F6 shape: every scheme degrades with the update rate; power per GCH grows.
    *(Claim("fig6", LAT, s, "rises") for s in SCHEMES),
    *(Claim("fig6", SRV, s, "rises", tol=0.5, reason="muted at bench scale: the "
            "window is far shorter than the interval between two updates of an item",
            evidence="ROADMAP item 5") for s in SCHEMES),
    *(Claim("fig6", m, s, r) for m, r in ((GCH, "falls"), (PWR, "rises")) for s in COOP),
    # F7 shape: LC's latency blows up past the downlink knee, CC and GC stay
    # scalable; power per GCH grows with density.
    Claim("fig7", LAT, "LC", "rises", factor=3.0,
          reason="the offered load crosses the downlink capacity"),
    *(Claim("fig7", m, s, "<", "LC") for m in (LAT, SRV) for s in COOP),
    *(Claim("fig7", LAT, s, "<", "LC", factor=0.8, x="240") for s in COOP),
    *(Claim("fig7", PWR, s, "rises") for s in COOP),
    # F8 shape: LC's latency improves with P_disc; CC and GC lose GCH; GC pays
    # reconnection power per GCH.
    Claim("fig8", LAT, "LC", "falls"),
    *(Claim("fig8", GCH, s, "falls") for s in COOP),
    Claim("fig8", PWR, "GC", "rises",
          reason="membership sync and signature recollection over fewer hits"),
    # E2: loss erodes global hits smoothly; the MSS keeps latency bounded.
    *(Claim("fig-loss", GCH, s, r) for r in ("falls-stepwise", "falls") for s in COOP),
    *(Claim("fig-loss", LAT, s, "positive") for s in COOP),
    *(Claim("fig-loss", LAT, s, "<", factor=10.0) for s in COOP),
    # E3: every policy completes; under heavy loss an adaptive one beats arrival.
    *(Claim("fig-policy", LAT, row, "positive") for row in ("arrival", *ADAPTIVE)),
    Claim("fig-policy", LAT, ADAPTIVE, "<", "arrival", x=("0.2", "0.3")),
    # E4: the admission rule carries GC's edge; no swap beats it beyond noise.
    *(Claim("fig-matrix", GCH, rows, "<", "GC") for rows in (ADMISSION, "GC+popularity")),
    Claim("fig-matrix", GCH, SWAPS, "<", "GC", tol=2.0, evidence=NOISE,
          reason="two points of seed-to-seed spread stand in for a measured floor"),
    Claim("fig-matrix", GCH, "GC", ">=", SWAPS,
          **deviation("lru-min edges stock GC at moderate skew", "ROADMAP item 9")),
)  # fmt: skip


def parse_table(text: str) -> Tuple[List[str], Dict[str, Dict[str, List[str]]]]:
    """``(x labels, {panel title: {row: cells}})`` of a rendered sweep table."""
    labels: List[str] = []
    panels: Dict[str, Dict[str, List[str]]] = {}
    panel: Dict[str, List[str]] = {}
    lines = text.splitlines()
    for previous, line in zip(["", *lines], lines):
        if line.startswith("("):
            panel = panels[line] = {}
        elif "|" in line:
            name, cells = line.split("|")
            if previous.startswith("("):
                labels = cells.split()
            else:
                panel[name.strip()] = cells.split()
    return labels, panels


def _checks(
    claim: Claim, labels: List[str], y: List[float], ref: List[float]
) -> List[Tuple[str, bool]]:
    """``(x label, holds)`` for every cell ``claim`` tests."""
    at, refs = dict(zip(labels, y)), dict(zip(labels, ref))
    picks = names(claim.x) or labels
    op = TRENDS.get(claim.relation, claim.relation)
    slack = claim.tol if "<" in op else -claim.tol
    if claim.relation in ("min-at", "max-at"):
        extreme = min(y) if claim.relation == "min-at" else max(y)
        return [(labels[y.index(extreme)], any(at[x] == extreme for x in picks))]
    if claim.relation == "zero":
        return [(x, at[x] == 0) for x in picks]
    if claim.relation == "positive":
        return [(x, 0 < at[x] < math.inf) for x in picks]
    if claim.relation == "falls-stepwise":
        steps = zip(labels[1:], y[1:], y)
        return [(x, now <= before + claim.tol) for x, now, before in steps]
    if claim.x == "sum":
        return [("sum", COMPARE[op](sum(y), claim.factor * sum(ref) + slack))]
    if claim.relation in TRENDS:
        picks = labels[-1:]
    return [(x, COMPARE[op](at[x], claim.factor * refs[x] + slack)) for x in picks]


def evaluate(claim: Claim, text: str) -> Tuple[str, List[str]]:
    """``(verdict, x labels where it fails)`` of ``claim`` on a rendered
    table.  A row that reads an ``n/a`` cell (a quarantined run), or an x
    label the table's axis lacks (another profile's axis), is N/A."""
    labels, panels = parse_table(text)
    rows = panels[PANEL_TITLES[claim.panel]]

    def line(group: Rows) -> List[float]:
        cells = [[float(c) for c in x] for x in zip(*(rows[n] for n in names(group)))]
        return [max(x) if claim.panel == GCH else min(x) for x in cells]

    if not set(names(claim.x)) - {"sum"} <= set(labels):
        return UNAVAILABLE, []
    try:
        y = line(claim.series)
        ref = y[:1] * len(y) if claim.operand is None else line(claim.operand)
    except ValueError:  # float("n/a")
        return UNAVAILABLE, []
    failures = [x for x, holds in _checks(claim, labels, y, ref) if not holds]
    return (DEVIATION if failures else PASS), failures


def _rows(rows: Rows) -> str:
    return rows if isinstance(rows, str) else "best of " + "|".join(rows)


def describe(claim: Claim) -> str:
    """The row as text, e.g. ``gch_ratio: GC > CC at 50``."""
    words = [f"{claim.panel}:", _rows(claim.series), claim.relation]
    if claim.factor != 1:
        words.append(f"{claim.factor:g}x")
    if claim.relation in COMPARE:
        words.append("its first x" if claim.operand is None else _rows(claim.operand))
    if claim.x is not None:
        at = "" if claim.relation.endswith("-at") else "at "
        words.append(at + "|".join(names(claim.x)))
    if claim.tol:
        words.append(f"(tol {claim.tol:g})")
    return " ".join(words)


def verdicts(key: str, root: Path = ROOT) -> List[Tuple[Claim, str, List[str]]]:
    """Figure ``key``'s rows, each evaluated on ``root/results/<stem>.txt``."""
    text = (root / "results" / f"{FIGURES[key].stem}.txt").read_text()
    return [(claim, *evaluate(claim, text)) for claim in CLAIMS if claim.figure == key]


def mismatches(key: str, root: Path = ROOT) -> List[str]:
    """One message per row of ``key`` whose verdict differs from its record."""
    return [
        f"{key} {describe(claim)}: recorded {claim.verdict}, evaluates {verdict}"
        + (f" (fails at {', '.join(failures)})" if failures else "")
        for claim, verdict, failures in verdicts(key, root)
        if verdict != claim.verdict
    ]


def render(key: str, root: Path = ROOT) -> str:
    """Figure ``key``'s rows as PASS / DEVIATION lines for EXPERIMENTS.md;
    raises ``ValueError`` naming every row whose verdict moved."""
    problems = mismatches(key, root)
    if problems:
        raise ValueError("; ".join(problems))
    return "\n".join(
        f"{verdict:<9}  {describe(claim)}"
        + (f" -- fails at {', '.join(failures)}" if failures else "")
        + (f"; {claim.reason}" if claim.reason else "")
        + (f" [{claim.evidence}]" if claim.evidence else "")
        for claim, verdict, failures in verdicts(key, root)
    )

