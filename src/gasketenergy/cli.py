"""Command-line front end.

One-shot exact queries print a rational followed by its float value; scan
commands emit CSV (the canonical artifact) or a minimal static SVG bar
chart.  Everything is controlled by flags, and the same arguments always
produce byte-identical output, whatever the parallelism degree: ``ifs --jobs``, or
``verify --suite all`` in up to min(6, CPU count) processes, printing suite by suite.

``measure``, ``derivative`` and ``bvector`` (each word of a ``--level`` scan
too) check every exact value against an independent route before printing
it; ``edge-profile`` is unchecked.

Exit codes: 0 success, 1 invariant failure (``verify``), 2 argument error,
3 internal cross-route disagreement, 141 the reader closed stdout early (the
status of a filter killed by SIGPIPE, as in ``... | head``).

Each command imports the modules it uses when it runs, so a process loads
only its own command's code.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from . import BINS_MAX, EDGE_DEPTH_MAX, SUITE_NAMES

if TYPE_CHECKING:
    from . import dynamics as dy

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_ROUTES = 3
EXIT_PIPE = 141

#: Size arguments are bounded before any work starts; outside the bounds the
#: command exits 2.  A level scan holds 3^m rows.
BVECTOR_LEVEL_MAX = 12


def _check_range(flag: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise ValueError(f"{flag} must be between {lo} and {hi}, got {value}")


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        out = getattr(sys.stdout, "buffer", None)
        if out is None:  # a text-only sink such as io.StringIO
            sys.stdout.write(text)
            return
        # An unbuffered raw file may take only part of a write; the loop
        # hands it the rest, so a closed pipe raises instead of truncating.
        sys.stdout.flush()
        data = memoryview(text.encode(sys.stdout.encoding))
        while data:
            data = data[out.write(data):]
        return
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def _csv(rows: Iterable[Sequence[object]]) -> str:
    return "".join(",".join(str(x) for x in row) + "\n" for row in rows)


def _svg_bars(values: Sequence[float], title: str) -> str:
    """A static bar chart: one rect per bin, a baseline, nothing else."""
    width, height, pad = 840, 360, 20
    top = max(values) if values and max(values) > 0 else 1.0
    bar_w = (width - 2 * pad) / max(len(values), 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f"<title>{title}</title>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i, v in enumerate(values):
        h = (height - 2 * pad) * (v / top)
        x = pad + i * bar_w
        y = height - pad - h
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" height="{h:.2f}" fill="#4878a8"/>'
        )
    parts.append(
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _histogram_rows(hist: dy.Histogram, unit: str, value_name: str):
    yield (f"bin_lo_{unit}", f"bin_hi_{unit}", "count", value_name)
    values = hist.normalized_values()
    for i, (count, value) in enumerate(zip(hist.counts, values)):
        yield (repr(hist.bin_edges[i]), repr(hist.bin_edges[i + 1]), count, repr(value))


def _emit_histogram(hist: dy.Histogram, unit: str, value_name: str, fmt: str,
                    path: Optional[str], title: str) -> None:
    if fmt == "svg":
        _emit(_svg_bars(hist.normalized_values(), title), path)
    else:
        _emit(_csv(_histogram_rows(hist, unit, value_name)), path)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_measure(args: argparse.Namespace) -> int:
    from .core import format_rational
    from .measures import children_triple_via_refine, measure_of_cell, parse_coeffs

    c, word = parse_coeffs(args.coeffs), args.word
    value = measure_of_cell(c, word)
    kids = children_triple_via_refine(c, word[:-1])  # the refine route: the cell is a child
    if value != (kids[int(word[-1])] if word else sum(kids)):
        print(f"routes-disagree at {word!r}", file=sys.stderr)
        return EXIT_ROUTES
    print(f"{format_rational(value)} {float(value)!r}")
    return EXIT_OK


def cmd_derivative(args: argparse.Namespace) -> int:
    from .core import VertexAddress, format_rational
    from .derivatives import rn_derivative, rn_derivative_via_refine
    from .measures import parse_coeffs

    c = parse_coeffs(args.coeffs)
    vertex = VertexAddress.parse(args.vertex)
    value = rn_derivative(c, vertex)
    other = rn_derivative_via_refine(c, vertex)
    if value != other:
        print(
            f"routes-disagree at {vertex}: {format_rational(value)} vs {format_rational(other)}",
            file=sys.stderr,
        )
        return EXIT_ROUTES
    print(f"{format_rational(value)} {float(value)!r} routes-agree")
    return EXIT_OK


def cmd_bvector(args: argparse.Namespace) -> int:
    from . import bvectors as bv
    from .core import format_rational

    if args.level is None:
        word = args.word or ""
        b = bv.b_from_word(word)
        checked = [(word, b if bv.b_from_mass(word) == b == bv.b_from_kusuoka(word) else None)]
    else:
        _check_range("--level", args.level, 0, BVECTOR_LEVEL_MAX)
        checked = ((word, bv.unit_triple(rows[0]) if bv.rows_agree(*rows) else None)
                   for word, rows in bv.level_routes(args.level))
    lines = ["word,b0,b1,b2,b0_f,b1_f,b2_f\n"]  # one string per row keeps a scan's memory small
    for word, b in checked:  # b is None where the routes disagree
        if b is None:
            print(f"routes-disagree at {word!r}", file=sys.stderr)
            return EXIT_ROUTES
        rationals = ",".join(format_rational(x) for x in b)
        floats = ",".join(repr(float(x)) for x in b)
        lines.append(f"{word},{rationals},{floats}\n")
    _emit(f"{rationals}\n{floats}\n" if args.level is None else "".join(lines), args.output)
    return EXIT_OK


def cmd_edge_profile(args: argparse.Namespace) -> int:
    from .core import format_rational
    from .derivatives import edge_profile
    from .measures import parse_coeffs

    _check_range("--depth", args.depth, 1, EDGE_DEPTH_MAX)
    c = parse_coeffs(args.coeffs)
    try:
        j, k = (int(part) for part in args.edge.split(","))
    except ValueError:
        raise ValueError(f"edge must be two corners like '0,1', got {args.edge!r}") from None
    profile = edge_profile(c, args.word, (j, k), args.depth)
    rows: list[Sequence[object]] = [("position", "position_float", "value", "value_float")]
    for pos, value in profile:
        rows.append((format_rational(pos), repr(float(pos)), format_rational(value), repr(float(value))))
    _emit(_csv(rows), args.output)
    return EXIT_OK


def cmd_ifs(args: argparse.Namespace) -> int:
    from . import dynamics as dy  # the only command that needs numpy

    if args.mode == "angular":
        hist = dy.angular_histogram(args.level, slices=args.slices, arc=args.arc, jobs=args.jobs)
        _emit_histogram(hist, "rad", "mean_one_density", args.format, args.output,
                        f"angular level {args.level} ({args.arc})")
    elif args.mode == "radial":
        hist = dy.radial_histogram(args.level, bins=args.bins, jobs=args.jobs)
        _emit_histogram(hist, "r", "mass_ratio", args.format, args.output,
                        f"radial level {args.level}")
    else:
        hist = dy.boundary_orbit_histogram(iters=args.iters, bins=args.bins,
                                           arc=args.arc, jobs=args.jobs)
        _emit_histogram(hist, "rad", "mean_one_density", args.format, args.output,
                        f"boundary orbit {args.iters} iterations ({args.arc})")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suites

    ok = run_suites(args.suite, max_depth=args.max_depth)
    return EXIT_OK if ok else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gasketenergy",
        description="Exact energy-measure computations on the Sierpinski gasket.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="exact cell mass of a coefficient measure")
    p.add_argument("--coeffs", required=True, help="three comma-separated rationals, e.g. 1,1,1")
    p.add_argument("--word", default="", help="cell address over {0,1,2}; empty for the whole set")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("derivative", help="exact derivative against the reference measure")
    p.add_argument("--coeffs", required=True, help="three comma-separated rationals")
    p.add_argument("--vertex", required=True, help="vertex address '<word>:<corner>', e.g. 01:2")
    p.set_defaults(func=cmd_derivative)

    p = sub.add_parser("bvector", help="cell-averaging weight triple of a word")
    one_of = p.add_mutually_exclusive_group()
    one_of.add_argument("--word", default=None, help="cell address over {0,1,2}")
    one_of.add_argument("--level", type=int, default=None,
                        help=f"emit a CSV of every word at this level (0..{BVECTOR_LEVEL_MAX}) "
                             "instead of one triple")
    p.add_argument("--output", default=None, help="write to this path instead of stdout")
    p.set_defaults(func=cmd_bvector)

    p = sub.add_parser("edge-profile", help="derivative restricted to one cell edge, as CSV")
    p.add_argument("--coeffs", required=True, help="three comma-separated rationals")
    p.add_argument("--word", default="", help="cell whose edge is profiled")
    p.add_argument("--edge", default="1,2", help="two distinct corners, e.g. 1,2")
    p.add_argument("--depth", type=int, default=6,
                   help=f"dyadic subdivision depth along the edge (1..{EDGE_DEPTH_MAX})")
    p.add_argument("--output", default=None, help="write to this path instead of stdout")
    p.set_defaults(func=cmd_edge_profile)

    p = sub.add_parser("ifs", help="histograms of the induced disk dynamics")
    ifs_sub = p.add_subparsers(dest="mode", required=True)

    q = ifs_sub.add_parser("angular", help="angular distribution of the level-m weight cloud")
    q.add_argument("--level", type=int, default=11, help="enumeration depth m")
    q.add_argument("--slices", type=int, default=100,
                   help=f"number of angular bins (1..{BINS_MAX})")
    q.add_argument("--arc", choices=["full", "third", "sixth"], default="third",
                   help="reporting arc; points are folded in by the rotation symmetry")
    _common_ifs_flags(q)

    q = ifs_sub.add_parser("radial", help="radial distribution of the level-m weight cloud")
    q.add_argument("--level", type=int, default=11, help="enumeration depth m")
    q.add_argument("--bins", type=int, default=300,
                   help=f"number of radial bins (1..{BINS_MAX})")
    _common_ifs_flags(q)

    q = ifs_sub.add_parser("orbit", help="boundary-circle orbit histogram")
    q.add_argument("--iters", type=int, default=14, help="number of map iterations")
    q.add_argument("--bins", type=int, default=800,
                   help=f"number of angular bins (1..{BINS_MAX})")
    q.add_argument("--arc", choices=["full", "third", "sixth"], default="sixth",
                   help="reporting arc; points are folded in by the symmetries")
    _common_ifs_flags(q)

    p = sub.add_parser("verify", help="run module invariant suites")
    p.add_argument("--suite", choices=sorted(SUITE_NAMES) + ["all"], default="all")
    p.add_argument("--max-depth", type=int, default=4, help="word-length budget for the scans")
    p.set_defaults(func=cmd_verify)

    return parser


def _common_ifs_flags(q: argparse.ArgumentParser) -> None:
    q.add_argument("--jobs", type=int, default=1,
                   help="worker processes (at least 1; capped at the CPU count)")
    q.add_argument("--format", choices=["csv", "svg"], default="csv")
    q.add_argument("--output", default=None, help="write to this path instead of stdout")
    q.set_defaults(func=cmd_ifs)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # an OSError, so it goes before the branch below
        # Whatever is still buffered goes to devnull, so the flush at
        # interpreter exit cannot raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (ValueError, OSError) as exc:  # OSError: an --output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
