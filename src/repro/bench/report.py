"""Markdown report generation.

``python -m repro.bench --report out.md`` regenerates the requested
figures and writes a self-contained markdown report: every figure's
series as a fenced table, plus computed headline ratios for the
figures that carry the paper's quantitative claims (Figs 6-10).  This
is how EXPERIMENTS.md's measured numbers were produced.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.bench import figures
from repro.bench.harness import BenchFigure
from repro.util.stats import geomean


def _headlines(target: str, figs: list[BenchFigure]) -> list[str]:
    """Computed claim lines for a figure's results (empty if none apply)."""
    out: list[str] = []
    try:
        if target == "fig6":
            contiguous, strided = figs[0], figs[1]
            gain = geomean(
                u / c
                for u, c in zip(
                    contiguous.get("UHCAF-Cray-SHMEM").ys,
                    contiguous.get("Cray-CAF").ys,
                )
            )
            out.append(
                f"UHCAF-Cray-SHMEM over Cray-CAF (contiguous): "
                f"{(gain - 1) * 100:.1f} % (paper: ~8 %)"
            )
            vs_naive = geomean(
                t / n
                for t, n in zip(
                    strided.get("UHCAF-Cray-SHMEM-2dim").ys,
                    strided.get("UHCAF-Cray-SHMEM-naive").ys,
                )
            )
            vs_cray = geomean(
                t / c
                for t, c in zip(
                    strided.get("UHCAF-Cray-SHMEM-2dim").ys,
                    strided.get("Cray-CAF").ys,
                )
            )
            out.append(f"2dim over naive (strided): {vs_naive:.1f}x (paper: ~9x)")
            out.append(f"2dim over Cray-CAF (strided): {vs_cray:.1f}x (paper: ~3x)")
        elif target == "fig8":
            fig = figs[0]
            shmem = fig.get("UHCAF-Cray-SHMEM").ys
            vs_cray = geomean(c / s for c, s in zip(fig.get("Cray-CAF").ys[1:], shmem[1:]))
            vs_gas = geomean(
                g / s for g, s in zip(fig.get("UHCAF-GASNet").ys[1:], shmem[1:])
            )
            out.append(
                f"locks: {(vs_cray - 1) * 100:.0f} % faster than Cray-CAF "
                f"(paper: 22 %), {(vs_gas - 1) * 100:.0f} % faster than "
                f"UHCAF-GASNet (paper: ~10 %)"
            )
        elif target == "fig9":
            fig = figs[0]
            shmem = fig.get("UHCAF-Cray-SHMEM").ys
            vs_cray = geomean(c / s for c, s in zip(fig.get("Cray-CAF").ys, shmem))
            vs_gas = geomean(g / s for g, s in zip(fig.get("UHCAF-GASNet").ys, shmem))
            out.append(
                f"DHT: {(vs_cray - 1) * 100:.0f} % faster than Cray-CAF "
                f"(paper: 28 %), {(vs_gas - 1) * 100:.0f} % faster than "
                f"UHCAF-GASNet (paper: 18 %)"
            )
        elif target == "fig10":
            fig = figs[0]
            gains = [
                s / g
                for s, g in zip(
                    fig.get("UHCAF-MVAPICH2-X-SHMEM").ys, fig.get("UHCAF-GASNet").ys
                )
            ]
            out.append(
                f"Himeno: SHMEM over GASNet gain {(min(gains) - 1) * 100:.1f} %"
                f"..{(max(gains) - 1) * 100:.1f} % rising with images "
                f"(paper: avg 6 %, max 22 %)"
            )
    except (KeyError, IndexError):
        out.append("(headline computation skipped: series missing)")
    return out


def generate_report(
    targets: Iterable[str] = ("tables", "fig2", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10"),
    quick: bool = True,
) -> str:
    """Run the targets and return the markdown report text."""
    lines = [
        "# Reproduction report",
        "",
        f"Sweep mode: {'quick' if quick else 'full'}.  All times are",
        "virtual microseconds from the calibrated machine models; see",
        "docs/MODEL.md.",
        "",
    ]
    for target in targets:
        lines.append(f"## {target}")
        lines.append("")
        if target == "kvservice":
            from repro.bench import kvservice

            section = kvservice.run_suite(quick=quick)
            lines.append("```")
            lines.append(json.dumps(section, indent=1))
            lines.append("```")
            lines.append("")
            cmp_ = section["cache_comparison"]
            lines.append(
                f"* hot-key caching cut open-loop p99 from "
                f"{cmp_['uncached_p99_us']} us to {cmp_['cached_p99_us']} us "
                f"({cmp_['p99_speedup']}x) on the skewed read-heavy mix"
            )
            lines.append(
                f"* live reshard moved {section['reshard']['moved']} entries "
                f"with {len(section['reshard']['lost'])} lost acked writes"
            )
            lines.append("")
            continue
        if target == "tables":
            results = figures.tables()
        else:
            r = getattr(figures, target)(quick=quick)
            results = r if isinstance(r, list) else [r]
        for item in results:
            lines.append("```")
            lines.append(item.render())
            lines.append("```")
            lines.append("")
        if target != "tables":
            for claim in _headlines(target, results):
                lines.append(f"* {claim}")
            lines.append("")
    return "\n".join(lines)
