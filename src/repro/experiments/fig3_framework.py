"""Fig. 3: the CoCoPeLia framework, rendered from the live system.

The paper's Fig. 3 is an architecture diagram.  Rather than a static
picture, this module *introspects* the implementation — the deployed
sub-models, the registered predictors, the library routines — and
renders the same structure, so the diagram can never drift from the
code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..core.registry import available_models
from ..sim.machine import MachineConfig, get_testbed
from .harness import models_for


@dataclass
class Fig3Result:
    machine: str
    scale: str
    deployed: List[str] = field(default_factory=list)
    predictors: List[str] = field(default_factory=list)
    link_summary: str = ""


ROUTINE_WRAPPERS = ("gemm (d/s)", "gemv (d/s)", "axpy (d)")
SCHEDULER_FEATURES = (
    "square + rectangular tiling",
    "fetch-once tile cache",
    "1 stream per operation class",
    "multi-GPU column split",
)


def run(scale: str = "quick",
        machine: Optional[MachineConfig] = None) -> Fig3Result:
    machine = machine if machine is not None else get_testbed("testbed_ii")
    models = models_for(machine, scale)
    deployed = sorted(f"{p}{r}" for (r, p) in models.exec_lookups)
    link = models.link
    return Fig3Result(
        machine=machine.display_name,
        scale=scale,
        deployed=deployed,
        predictors=available_models(),
        link_summary=(
            f"h2d {link.h2d.bandwidth_gb:.2f} GB/s (sl {link.h2d.sl:.2f}) / "
            f"d2h {link.d2h.bandwidth_gb:.2f} GB/s (sl {link.d2h.sl:.2f})"
        ),
    )


def render(result: Fig3Result) -> str:
    def box(title: str, lines: List[str], width: int = 66) -> List[str]:
        inner = width - 4
        out = ["+" + "-" * (width - 2) + "+"]
        out.append("| " + title.center(inner) + " |")
        out.append("|" + "-" * (width - 2) + "|")
        for line in lines:
            out.append("| " + line.ljust(inner)[:inner] + " |")
        out.append("+" + "-" * (width - 2) + "+")
        return out

    lines: List[str] = [f"Fig. 3: the CoCoPeLia framework "
                        f"({result.machine}, scale={result.scale})", ""]
    lines += box("DEPLOYMENT (offline, once per machine)", [
        "transfer micro-benchmarks -> t_l, t_b, sl per direction",
        f"  fitted: {result.link_summary}",
        "kernel micro-benchmarks -> t_GPU^T lookup tables",
        f"  deployed routines: {', '.join(result.deployed)}",
        "95%-CI repetition; zero-intercept least squares",
    ])
    lines.append(" " * 30 + "|")
    lines.append(" " * 22 + "model database (JSON)")
    lines.append(" " * 30 + "v")
    lines += box("TILE SELECTION RUNTIME (CoCoPeLia_select)", [
        f"predictors: {', '.join(result.predictors)}",
        "candidate tiles = benchmarked sizes, T <= max(D)/1.5",
        "argmin over predicted offload time; cached per problem",
    ])
    lines.append(" " * 30 + "|")
    lines.append(" " * 26 + "T_best per problem")
    lines.append(" " * 30 + "v")
    lines += box("LIBRARY / TILE SCHEDULER", [
        f"routine wrappers: {', '.join(ROUTINE_WRAPPERS)}",
        *(f"  - {feat}" for feat in SCHEDULER_FEATURES),
        "backend: cuBLAS-like async transfers + kernels (simulated)",
    ])
    return "\n".join(lines)
