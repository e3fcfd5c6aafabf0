"""Deterministic DOT renderings of configuration graphs and arenas."""

from __future__ import annotations

from .games import GameVerdict, Role
from .pes import EventStructure


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def configuration_graph_dot(es: EventStructure) -> str:
    """Configurations as nodes, pomset transitions as labelled edges.

    Nodes appear in canonical (mask) order; terminating configurations
    are drawn with a double border."""
    configs = es.configurations()
    index = {c.mask: i for i, c in enumerate(configs)}
    lines = [f"digraph {_quote(es.name)} {{", "  rankdir=LR;"]
    for i, c in enumerate(configs):
        shape = "doubleoctagon" if es.terminates_mask(c.mask) else "box"
        lines.append(f"  n{i} [label={_quote(str(c))} shape={shape}];")
    for c in configs:
        for x, target in es.transition_masks(c.mask, step=False):
            lines.append(
                f"  n{index[c.mask]} -> n{index[target]} [label={_quote(es.format_mask(x))}];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def arena_dot(verdict: GameVerdict) -> str:
    """Positions as nodes (Spoiler-owned boxes, Duplicator-owned
    diamonds) coloured by winner, moves as rule-labelled edges."""
    arena = verdict.arena
    lines = [f"digraph {_quote(arena.es1.name + '_vs_' + arena.es2.name)} {{"]
    demoted = set(verdict.demoted_ids)
    for i, (pos, w) in enumerate(zip(arena.positions, verdict.win)):
        shape = "box" if pos.owner is Role.SPOILER else "diamond"
        color = "palegreen" if w is Role.DUPLICATOR else "lightcoral"
        extra = " peripheries=2" if i in demoted else ""
        lines.append(
            f"  n{i} [label={_quote(arena.describe(pos))} shape={shape} "
            f"style=filled fillcolor={color}{extra}];"
        )
    for i, (rules, out) in enumerate(zip(arena.rules, arena.succ)):
        for rule, j in zip(rules, out):
            lines.append(f"  n{i} -> n{j} [label={_quote(rule)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
