#!/usr/bin/env python3
"""Render the NoC heatmaps from a --profile report as ASCII grids.

Reads the ``heatmaps`` section of a ``<machine>_<workload>.profile.json``
produced by ``--profile`` runs (see DESIGN.md section 4h) and renders
each matrix as a shaded character grid, normalised to the matrix
maximum. Cumulative totals are shown by default; ``--frames`` renders
the per-interval deltas captured by the IntervalSampler so hotspots can
be followed over time.

Matrix shapes in the report:
  nocRouterFlits  ny x nx   flits routed per router, mesh layout
  nocLinkBusy     n  x 4    busy cycles per router output link (E W N S)
  nocLinkQueue    n  x 4    queued-flit cycles per router output link

Only the Python standard library is used; output is deterministic for
a given report.

Examples:
  tools/heatmap.py out/OOO8_SF_pathfinder.profile.json
  tools/heatmap.py out/OOO8_SF_pathfinder.profile.json --matrix nocRouterFlits
  tools/heatmap.py out/OOO8_SF_pathfinder.profile.json \
      --matrix nocLinkBusy --frames --values
"""

import argparse
import json
import sys

# 10-step intensity ramp, dark to bright; index 0 means an exact zero.
RAMP = " .:-=+*#%@"

LINK_DIRS = ["E", "W", "N", "S"]


def shade(value, peak):
    """Map value in [0, peak] onto the RAMP character set."""
    if value <= 0 or peak <= 0:
        return RAMP[0]
    idx = 1 + int((len(RAMP) - 2) * value / peak)
    return RAMP[min(idx, len(RAMP) - 1)]


def render_grid(cells, rows, cols, col_labels=None, values=False):
    """Return the ASCII lines for one rows x cols matrix."""
    peak = max(cells) if cells else 0
    lines = []
    width = max(len(str(peak)), 3) if values else 1
    if col_labels:
        header = "      " + " ".join(
            lbl.rjust(width) for lbl in col_labels)
        lines.append(header)
    for r in range(rows):
        row_cells = cells[r * cols:(r + 1) * cols]
        if values:
            body = " ".join(str(v).rjust(width) for v in row_cells)
        else:
            body = " ".join(shade(v, peak) for v in row_cells)
        lines.append("  r%-3d %s" % (r, body))
    lines.append("  peak %d   ramp '%s' (left = 0)" % (peak, RAMP))
    return lines


def matrix_labels(name, cols):
    """Column labels: link matrices carry the mesh direction order."""
    if name.startswith("nocLink") and cols == len(LINK_DIRS):
        return LINK_DIRS
    return None


def frame_deltas(frames, index):
    """IntervalSampler frames are already per-interval deltas."""
    return frames[index]


def render_matrix(name, matrix, heat, args, out):
    rows, cols = matrix["rows"], matrix["cols"]
    labels = matrix_labels(name, cols)
    print("== %s (%dx%d, cumulative) ==" % (name, rows, cols), file=out)
    for ln in render_grid(matrix["total"], rows, cols, labels,
                          args.values):
        print(ln, file=out)
    if not args.frames:
        return
    frames = heat.get("frames", {})
    ticks = frames.get("ticks", [])
    series = frames.get("series", {}).get(name, [])
    prev_tick = 0
    for i, frame in enumerate(series):
        tick = ticks[i] if i < len(ticks) else prev_tick
        print("-- %s frame %d [%d, %d) --"
              % (name, i, prev_tick, tick), file=out)
        for ln in render_grid(frame, rows, cols, labels, args.values):
            print(ln, file=out)
        prev_tick = tick


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="ASCII renderer for profile.json NoC heatmaps")
    ap.add_argument("report", help="path to a *.profile.json report")
    ap.add_argument("--matrix", help="render only this matrix")
    ap.add_argument("--frames", action="store_true",
                    help="also render per-interval delta frames")
    ap.add_argument("--values", action="store_true",
                    help="print raw numbers instead of shade chars")
    ap.add_argument("--list", action="store_true",
                    help="list available matrices and exit")
    args = ap.parse_args(argv)

    try:
        with open(args.report) as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        print("heatmap.py: cannot read %s: %s" % (args.report, e),
              file=sys.stderr)
        return 1

    if report.get("schema") != "sf-profile":
        print("heatmap.py: %s is not an sf-profile report"
              % args.report, file=sys.stderr)
        return 1
    heat = report.get("heatmaps")
    if not heat:
        print("heatmap.py: no heatmaps section (was the run --profile?)",
              file=sys.stderr)
        return 1

    names = sorted(k for k in heat if k != "frames")
    if args.list:
        for n in names:
            m = heat[n]
            print("%s  %dx%d" % (n, m["rows"], m["cols"]))
        return 0
    if args.matrix:
        if args.matrix not in names:
            print("heatmap.py: no matrix '%s' (have: %s)"
                  % (args.matrix, ", ".join(names)), file=sys.stderr)
            return 1
        names = [args.matrix]

    cfg = report.get("config", {})
    print("profile: machine=%s cycles=%s interval=%s"
          % (cfg.get("machine", "?"), report.get("cycles", "?"),
             heat.get("frames", {}).get("interval", "?")))
    for n in names:
        render_matrix(n, heat[n], heat, args, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
