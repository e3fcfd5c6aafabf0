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
    index = {m: i for i, m in enumerate(configs)}
    lines = [f"digraph {_quote(es.name)} {{", "  rankdir=LR;"]
    for i, m in enumerate(configs):
        shape = "doubleoctagon" if es.terminates_mask(m) else "box"
        lines.append(f"  n{i} [label={_quote(es.format_mask(m))} shape={shape}];")
    for i, m in enumerate(configs):
        for x, target in es.transition_masks(m, step=False):
            lines.append(f"  n{i} -> n{index[target]} [label={_quote(es.format_mask(x))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def arena_dot(verdict: GameVerdict) -> str:
    """Positions as nodes (Spoiler-owned boxes, Duplicator-owned
    diamonds) coloured by winner, moves as rule-labelled edges."""
    arena = verdict.arena
    lines = [f"digraph {_quote(arena.es1.name + '_vs_' + arena.es2.name)} {{"]
    for i, (key, w) in enumerate(zip(arena.keys, verdict.win)):
        shape = "box" if key[4] is None else "diamond"
        color = "palegreen" if w is Role.DUPLICATOR else "lightcoral"
        extra = " peripheries=2" if i in verdict.demoted_ids else ""
        lines.append(
            f"  n{i} [label={_quote(arena.describe(key))} shape={shape} "
            f"style=filled fillcolor={color}{extra}];"
        )
    for i, (rules, out) in enumerate(zip(arena.rules, arena.succ)):
        for rule, j in zip(rules, out):
            lines.append(f"  n{i} -> n{j} [label={_quote(rule)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
