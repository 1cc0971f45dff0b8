"""The first diverging decision between two greedy decision logs.

A differential test that compares two restoration runs only by their
final marks or stats can say that they differ, not where.  The engines
and oracles log one ``(key, score)`` pair per action, server after
server; :func:`first_divergence` names the first action on which two
such logs disagree: the server, the step within that server's run, and
both decisions with their scores spelled exactly (``float.hex``).
"""

from __future__ import annotations

__all__ = ["assert_same_log", "first_divergence", "split_by_server"]

_END = "<end of log>"


def split_by_server(log: list, stats: dict) -> dict[int, list]:
    """A server-after-server log split into each server's decisions.

    ``stats`` maps each server of the run, ascending, to its restoration
    stats, whose ``evictions`` or ``switches`` count its actions.
    """
    out: dict[int, list] = {}
    at = 0
    for i in sorted(stats):
        st = stats[i]
        n = st.evictions if hasattr(st, "evictions") else st.switches
        out[i] = list(log[at : at + n])
        at += n
    if at != len(log):
        out[None] = list(log[at:])  # actions no server's stats count
    return out


def _spell(decision) -> str:
    if decision is None:
        return _END
    key, score = decision
    return f"({key}, {float(score).hex()})"


def first_divergence(log_a, log_b) -> str | None:
    """``None`` when the logs are equal, else a one-line report of their
    first difference.

    Each log maps a server to its ``(key, score)`` decisions in order; a
    plain list is one unnamed server's log.  Servers are compared in
    ascending order, and within a server the first step whose keys or
    scores differ (bit for bit) is reported, a log that runs out first
    reading ``<end of log>``.
    """
    if not isinstance(log_a, dict):
        log_a = {None: list(log_a)}
    if not isinstance(log_b, dict):
        log_b = {None: list(log_b)}
    servers = sorted(set(log_a) | set(log_b), key=lambda i: (i is None, i))
    for i in servers:
        a, b = log_a.get(i, []), log_b.get(i, [])
        for step in range(max(len(a), len(b))):
            da = a[step] if step < len(a) else None
            db = b[step] if step < len(b) else None
            if da is None or db is None or _spell(da) != _spell(db):
                where = "log" if i is None else f"server {i}"
                return f"{where}, step {step}: {_spell(da)} != {_spell(db)}"
    return None


def assert_same_log(got, want) -> None:
    """Fail with :func:`first_divergence`'s report unless the logs agree."""
    report = first_divergence(got, want)
    assert report is None, f"decision logs diverge at {report}"
