"""Routing schedules on timed graphs: load audits and delay conversion.

A schedule is a bag of (commodity, timed path, amount) entries over a
common horizon.  Amounts may be fractional.  The audit recomputes apparent
per-arc loads and per-commodity conservation instead of trusting whatever
produced the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .timed import TimedPath, validate_timed_path


class AuditError(AssertionError):
    """A schedule failed its load/conservation audit."""


@dataclass(frozen=True)
class ScheduleEntry:
    commodity: tuple
    path: TimedPath
    amount: object  # int, float or Fraction


@dataclass
class RoutingSchedule:
    horizon: int
    entries: tuple
    congestion: object = 1
    tolerance: float = 0.0
    meta: dict = field(default_factory=dict)

    def arc_loads(self):
        """Total amount per non-memory arc key (layer, edge_id, tail, head)."""
        loads = {}
        for e in self.entries:
            for key in e.path.steps():
                if key[1] is not None:
                    loads[key] = loads.get(key, 0) + e.amount
        return loads

    def max_load(self):
        return max(self.arc_loads().values(), default=0)

    def delivered(self):
        """Amount arriving at the final layer, per (commodity, end vertex)."""
        out = {}
        for e in self.entries:
            if e.path.end == self.horizon:
                key = (e.commodity, e.path.verts[-1])
                out[key] = out.get(key, 0) + e.amount
        return out


def audit_schedule(schedule, g, demands=None, legged=False):
    """Validate a schedule; raises AuditError on any violation.

    demands: optional {(origin, destination): amount} that end-to-end
    entries must deliver exactly (within tolerance).  legged schedules are
    instead checked for per-commodity flow conservation at every
    intermediate junction.
    Returns a stats dict (max_load, delivered).
    """
    tol = schedule.tolerance
    for e in schedule.entries:
        validate_timed_path(g, e.path, schedule.horizon)
        if e.amount < -tol:
            raise AuditError(f"negative amount {e.amount}")
    loads = schedule.arc_loads()
    for key, load in loads.items():
        if load > schedule.congestion + tol:
            raise AuditError(
                f"arc {key} load {load} exceeds congestion {schedule.congestion}")
    if demands is not None and not legged:
        got = {}
        for e in schedule.entries:
            if e.path.start != 0 or e.path.end != schedule.horizon:
                raise AuditError("end-to-end entry does not span the horizon")
            u, v = e.commodity
            if e.path.verts[0] != u or e.path.verts[-1] != v:
                raise AuditError(
                    f"entry endpoints {e.path.verts[0]}->{e.path.verts[-1]} "
                    f"do not match commodity {e.commodity}")
            got[e.commodity] = got.get(e.commodity, 0) + e.amount
        for pair, amt in demands.items():
            if abs(got.get(pair, 0) - amt) > max(tol, 1e-9) * max(1, abs(amt)):
                raise AuditError(
                    f"commodity {pair} delivered {got.get(pair, 0)} != {amt}")
        for pair in got:
            if pair not in demands and got[pair] > tol:
                raise AuditError(f"undemanded commodity {pair} routed")
    if legged:
        _audit_legged(schedule, tol)
    return {"max_load": max(loads.values(), default=0),
            "delivered": schedule.delivered()}


def _audit_legged(schedule, tol):
    """Per-commodity junction conservation for schedules made of path legs."""
    balance = {}  # (commodity, vertex, layer) -> in - out
    for e in schedule.entries:
        start_key = (e.commodity, e.path.verts[0], e.path.start)
        end_key = (e.commodity, e.path.verts[-1], e.path.end)
        balance[start_key] = balance.get(start_key, 0) - e.amount
        balance[end_key] = balance.get(end_key, 0) + e.amount
    for (comm, v, layer), net in balance.items():
        if 0 < layer < schedule.horizon and abs(net) > max(tol, 1e-9):
            raise AuditError(
                f"commodity {comm} unbalanced at ({v},{layer}): {net}")


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(x).limit_denominator(10 ** 12)


def _frac_floor(x):
    return x.numerator // x.denominator


def congestion_to_delay(schedule):
    """Convert a congestion-c schedule on horizon tau into a congestion-1
    schedule on horizon c*tau.

    Round t of the input becomes a window of c rounds.  Within each window
    an entry dwells on memory, crosses its arc in one designated slot, and
    dwells again, so per-step slot choices are independent.  Entries are
    split at slot boundaries where fractional amounts straddle two slots.
    Congestion-1 inputs are returned unchanged.
    """
    loads = schedule.arc_loads()
    max_load = max((_as_fraction(v) for v in loads.values()), default=Fraction(0))
    c = max(1, -(-max_load.numerator // max_load.denominator))
    if c <= 1:
        return schedule
    # cumulative offset per arc in deterministic entry order
    cursor = {}
    offsets = []  # per entry: {step_index: offset fraction}
    amounts = [_as_fraction(e.amount) for e in schedule.entries]
    for idx, e in enumerate(schedule.entries):
        offs = {}
        for j, key in enumerate(e.path.steps()):
            if key[1] is None:
                continue
            off = cursor.get(key, Fraction(0))
            offs[j] = off
            cursor[key] = off + amounts[idx]
        offsets.append(offs)
    new_entries = []
    for idx, e in enumerate(schedule.entries):
        amt = amounts[idx]
        if amt == 0:
            continue
        cuts = {Fraction(0), amt}
        for j, off in offsets[idx].items():
            lo = _frac_floor(off) + 1
            hi = off + amt
            k = Fraction(lo)
            while k < hi:
                cuts.add(k - off)
                k += 1
        marks = sorted(cuts)
        for lo, hi in zip(marks, marks[1:]):
            sub_amt = hi - lo
            if sub_amt <= 0:
                continue
            new_entries.append(ScheduleEntry(
                e.commodity,
                _dilate_path(e.path, c, offsets[idx], lo),
                sub_amt))
    return RoutingSchedule(horizon=c * schedule.horizon,
                           entries=tuple(new_entries),
                           congestion=1,
                           tolerance=schedule.tolerance,
                           meta={"dilation": c, **schedule.meta})


def _dilate_path(path, c, offs, lo):
    verts = [path.verts[0]]
    eids = []
    for j, eid in enumerate(path.edge_ids):
        u, v = path.verts[j], path.verts[j + 1]
        if eid is None:
            verts.extend([v] * c)
            eids.extend([None] * c)
        else:
            slot = _frac_floor(offs[j] + lo)
            assert 0 <= slot < c
            verts.extend([u] * slot)
            eids.extend([None] * slot)
            verts.append(v)
            eids.append(eid)
            verts.extend([v] * (c - slot - 1))
            eids.extend([None] * (c - slot - 1))
    return TimedPath(c * path.start, tuple(verts), tuple(eids))
