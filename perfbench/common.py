"""Shared pieces of the workload generators: the case record and file writers.

Generators write the files a user would hand to ``plansynth`` (problems,
domains, automata) with their own small writers, and keep in memory what
the independent checks need: the verdict known by construction, or the raw
tables the problem was built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# What `plansynth verify` is expected to do with a returned strategy.
VERIFY_ACCEPT = "accept"  # exit 0, prints ACCEPT
VERIFY_UNSUPPORTED = "unsupported"  # exit 4: no verifier for infinite traces
VERIFY_RAISES = "raises"  # a known fault: RecursionError escapes cli.main


@dataclass
class Case:
    """One problem of a workload and how to judge the program's answer.

    ``check(status, strategy_path)`` runs outside the timed sections and
    returns an error message, or None when the answer is right.  A case
    whose command is ``verify`` runs no solve: it verifies ``strategy``, a
    controller the generator wrote, and its check judges that file.
    """

    name: str
    command: str
    problem: str
    check: Callable[[str | None, str], str | None]
    verify: str = VERIFY_ACCEPT
    strategy: str | None = None


def bits(value: int, width: int) -> str:
    """Bit string of a value, variable 0 leftmost; '-' for an empty block."""
    if width == 0:
        return "-"
    return "".join("1" if value >> i & 1 else "0" for i in range(width))


def vars_line(env: list[str], agent: list[str]) -> str:
    return " ".join(env + ["|"] + agent)


def automaton_text(env, agent, rows, initial, finals=None, colors=None) -> str:
    """Automaton file: ``finals`` for a word automaton, ``colors`` for parity."""
    width = len(env) + len(agent)
    lines = [
        f"vars: {vars_line(env, agent)}",
        f"states: {len(rows)}",
        f"initial: {initial}",
    ]
    if colors is None:
        lines.append(("finals: " + " ".join(str(q) for q in sorted(finals))).rstrip())
    else:
        lines.append("colors: " + " ".join(str(c) for c in colors))
    for q, row in enumerate(rows):
        for sym, t in enumerate(row):
            lines.append(f"{q} {bits(sym, width)} {t}")
    return "\n".join(lines) + "\n"


def problem_text(semantics, assumption, goal, env=None, agent=None, domain=None) -> str:
    lines = [f"semantics: {semantics}"]
    if domain is not None:
        lines.append(f"domain: {domain}")
    else:
        lines.append(f"env: {' '.join(env)}")
        lines.append(f"agent: {' '.join(agent)}")
    lines.append(f"assumption: {assumption}")
    lines.append(f"goal: {goal}")
    return "\n".join(lines) + "\n"


def write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
