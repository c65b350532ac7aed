"""Render the turning-effort sweep and its distance predictors as SVG heatmaps.

Produces three panels over the reduced start/goal heading space: simulated
total turning, dual-headway orientation distance, and cosine distance, plus
their Spearman rank correlations (ties averaged) against the simulated
turning. Needs scipy, from the package's test extra.

Usage: python scripts/turning_heatmap.py [--grid N] [--out FILE]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from uniplan.config import ControlParams
from uniplan.experiments import turning_correlations


def heat_rects(cells, key, grid, x0, cell_px):
    vals = [c[key] for c in cells if key in c]
    lo, hi = min(vals), max(vals)
    span = hi - lo if hi > lo else 1.0
    parts = []
    for c in cells:
        if key not in c:
            color = "#dddddd"
        else:
            t = (c[key] - lo) / span
            r = int(255 * t)
            b = int(255 * (1 - t))
            color = f"rgb({r},64,{b})"
        parts.append(
            f'<rect x="{x0 + c["i"] * cell_px}" y="{(grid - 1 - c["j"]) * cell_px}" '
            f'width="{cell_px}" height="{cell_px}" fill="{color}"/>'
        )
    return parts


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=64)
    parser.add_argument("--out", type=Path, default=Path("out/turning_heatmap.svg"))
    args = parser.parse_args()

    cells, rho = turning_correlations(args.grid, ControlParams(), 1.0 / 3.0)
    print(f"spearman(turning, dualhead_orient) = {rho['dualhead_orient']:.3f}")
    print(f"spearman(turning, cosine)          = {rho['cosine']:.3f}")

    cell_px = max(2, 512 // args.grid)
    panel = args.grid * cell_px
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{3 * panel + 40}" '
        f'height="{panel + 30}">'
    ]
    for k, key in enumerate(("total_turning", "dualhead_orient", "cosine")):
        parts.extend(heat_rects(cells, key, args.grid, k * (panel + 20), cell_px))
        parts.append(
            f'<text x="{k * (panel + 20) + 4}" y="{panel + 20}" '
            f'font-size="14">{key}</text>'
        )
    parts.append("</svg>")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text("\n".join(parts))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
