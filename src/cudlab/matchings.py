"""Even-cycled CUD permutations as pairs of perfect matchings.

Drawing the functional graph of a permutation on a line with excedance arcs
(red) above and deficiency arcs (blue) below, the permutations whose cycles
are all even and fully alternating are exactly those where each color forms
a perfect matching and both matchings open (arc to the right) at the same
vertices.  The pair count on [2m] is therefore the secant number E_{2m}.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .perms import DomainError, Family, Permutation, is_member

Arc = tuple[int, int]

RED = "#cc0000"
BLUE = "#0044cc"
SPACING = 40


@dataclass(frozen=True)
class MatchingPair:
    """Two perfect matchings of [n] (arcs as (low, high) pairs, sorted by low
    endpoint) with identical opener sets."""

    n: int
    red: tuple[Arc, ...]
    blue: tuple[Arc, ...]

    def __post_init__(self):
        if self.n % 2 != 0:
            raise DomainError("matchings need an even number of vertices")
        for arcs in (self.red, self.blue):
            touched = set()
            for lo, hi in arcs:
                if not 1 <= lo < hi <= self.n:
                    raise DomainError(f"bad arc ({lo}, {hi})")
                touched.update((lo, hi))
            if list(arcs) != sorted(arcs) or len(touched) != self.n or len(arcs) * 2 != self.n:
                raise DomainError("arcs must form a sorted perfect matching")
        if {lo for lo, _ in self.red} != {lo for lo, _ in self.blue}:
            raise DomainError("red and blue matchings disagree on opener vertices")

    @classmethod
    def from_arcs(cls, n: int, red, blue) -> "MatchingPair":
        norm = lambda arcs: tuple(sorted((min(a, b), max(a, b)) for a, b in arcs))
        return cls(n, norm(red), norm(blue))


def to_matching_pair(p: Permutation) -> MatchingPair:
    """Excedance arcs become red, deficiency arcs blue."""
    if not is_member(p, Family.CUD_EVEN_ONLY) or not p.is_natural():
        raise DomainError(
            "input must be a CUD permutation of [n] with only even cycles "
            "(no fixed points, no odd or non-alternating cycles)"
        )
    arcs = p.mapping().items()
    red = [(a, b) for a, b in arcs if b > a]
    blue = [(b, a) for a, b in arcs if b < a]
    return MatchingPair.from_arcs(len(p.word), red, blue)


def from_matching_pair(mp: MatchingPair) -> Permutation:
    """Openers follow their red arc up, closers their blue arc down."""
    word = [0] * (mp.n + 1)
    for lo, hi in mp.red:
        word[lo] = hi
    for lo, hi in mp.blue:
        word[hi] = lo
    return Permutation._trusted(tuple(word[1:]))


def matching_pair_text(mp: MatchingPair) -> str:
    """Machine-diffable text form: ``red: 1-4 2-6 / blue: 1-6 2-4``."""
    fmt = lambda arcs: " ".join(f"{lo}-{hi}" for lo, hi in arcs)
    return f"red: {fmt(mp.red)} / blue: {fmt(mp.blue)}"


def arc_diagram_svg(p: Permutation) -> str:
    """Deterministic SVG 1.1 arc diagram: vertices on a horizontal line,
    red semicircles above, blue below, radius proportional to the span."""
    mp = to_matching_pair(p)
    n = mp.n
    max_radius = SPACING * (n - 1) // 2
    baseline = max_radius + 30
    width = SPACING * (n + 1)
    height = 2 * max_radius + 80
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<line x1="{SPACING}" y1="{baseline}" x2="{SPACING * n}" y2="{baseline}" '
        f'stroke="#888888" stroke-width="1"/>',
    ]
    for arcs, color, sweep in ((mp.red, RED, 1), (mp.blue, BLUE, 0)):
        for lo, hi in arcs:
            r = SPACING * (hi - lo) // 2
            lines.append(
                f'<path d="M {SPACING * lo} {baseline} A {r} {r} 0 0 {sweep} '
                f'{SPACING * hi} {baseline}" fill="none" stroke="{color}" '
                f'stroke-width="2"/>'
            )
    for i in range(1, n + 1):
        lines.append(
            f'<circle cx="{SPACING * i}" cy="{baseline}" r="3" fill="#000000"/>'
        )
        lines.append(
            f'<text x="{SPACING * i}" y="{baseline + 18}" font-size="11" '
            f'font-family="monospace" text-anchor="middle">{i}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_arc_diagram(p: Permutation, out: str | Path) -> Path:
    """Write the SVG; byte-identical output for identical input."""
    path = Path(out)
    path.write_text(arc_diagram_svg(p), encoding="ascii")
    return path
