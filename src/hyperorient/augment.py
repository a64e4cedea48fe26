"""Connectivity-raising reorientation: one level at a time, one hyperarc at
a time, never letting the connectivity drop.

:func:`augment_to` is the one entry.  It checks the target, computes the
initial connectivity once and calls :func:`augment_one`, its per-level
loop, once for each level up to the target; each level starts at exactly
``k`` and ends at exactly ``k + 1``.  Raising the level from ``k`` to
``k + 1`` loops: compute the cut families at level ``k``, pick the
canonically smallest region of the ``r_family``, find an admissible path in
it, and reorient the path's hyperarcs one by one toward their recorded
tails (end to start inside an in-tight region, start to end inside an
out-tight one).  After every single reorientation the connectivity is
checked to stay at least ``k``: one step check
(:class:`~hyperorient.separator.IncrementalConnectivity`) keeps 2(n - 1)
root-pair flows for the whole run and repairs them after each step instead
of recomputing them.  :func:`augment_to` builds it once; each level raises
its cap to ``k + 1``, which adds at most one unit to each flow at the old
cap, and takes the level's connectivity from it.  The level's cut families
are read from the same flows.  Reaching ``k + 1`` mid-path ends the level
immediately, which keeps the per-step connectivity sequence
non-decreasing.  :func:`verify_trace` shares none of the repair code: it
decides each step's connectivity with one capped flow and the least
out-degree of a one-vertex set or its complement, which it counts itself
from the heads, and recomputes from scratch only when the two do not meet.
It takes its initial value, and every value it recomputes, from
:func:`~hyperorient.separator.connectivity` capped at a bound it holds, so
it reads no bound of the solver's.
Every flow of a run, in the step check, the families and the verifier,
runs on the hypergraph's one incidence structure
(:func:`~hyperorient.separator.network`) with a copy of an orientation's
heads, which the flow turns in place.  Each full path
strictly shrinks the potential ``(|m_all|, -covered vertices)``, so a level
runs at most ``n(n + 1)/2`` paths of fewer than ``n`` arcs each, under
``n^3`` single-hyperarc steps (the count is in :func:`augment_one`).

The input hypergraph must be sufficiently partition-connected for the target
level; that precondition is not tested exactly (deliberately out of scope).
One necessary part is tested before any flow: a vertex in fewer than
``2 * target`` hyperedges has in- plus out-degree below ``2 * target``, so
no orientation reaches the target, and the two-class partition that cuts
it off is the certificate.  Other violations surface as
:class:`NotPartitionConnectedError` through fail-fast guards: a missing safe
endpoint, a stuck search, a connectivity drop, whose certificate is the
minimum cut from the step's new head to its old one, a set of the lower
out-degree, or a potential that does not decrease.  Each guard inside a
level's loop names the level, the iteration and the search region it fired
in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from . import separator
from .core import (
    Hypergraph,
    InvariantViolation,
    Orientation,
    Partition,
    PreconditionError,
    VertexSet,
    _as_count,
    _as_hypergraph,
    crossing_edges,
    out_degree,
    reorient,
)
from .families import CutFamilies, compute_families, is_in_tight
from .pathsearch import AdmissiblePath, admissible_path_in_tminus, admissible_path_in_tplus
from .separator import IncrementalConnectivity, connectivity, hyperarc_connectivity, min_separator


class NotPartitionConnectedError(RuntimeError):
    """The instance cannot support the requested connectivity level.

    ``certificate`` carries a violated vertex set or partition when one is
    cheaply available, else ``None``.
    """

    def __init__(self, message: str, certificate: VertexSet | Partition | None = None):
        super().__init__(message)
        self.certificate = certificate


@dataclass(frozen=True)
class ReorientationStep:
    """One single-hyperarc reorientation with the connectivity after it."""

    edge: int
    old_head: int
    new_head: int
    lambda_after: int


@dataclass(frozen=True)
class ReorientationTrace:
    """Certified reorientation sequence from an initial orientation."""

    initial: Orientation
    k_target: int
    lambda_initial: int
    lambda_final: int
    steps: tuple[ReorientationStep, ...]

    @property
    def n(self) -> int:
        return self.initial.hypergraph.n

    @property
    def m(self) -> int:
        return self.initial.hypergraph.m


@dataclass(frozen=True)
class PathEvent:
    """Observer record emitted once per admissible path, before it is
    applied.  ``families`` and ``orientation`` are the pre-path state.

    The families' q sets are computed on read from residual snapshots that
    they hold (see :class:`~hyperorient.families.QSets`), so an observer
    that keeps events also keeps each event's snapshots, until every q set
    of it has been read."""

    level: int
    iteration: int
    region: VertexSet
    branch: str
    result: AdmissiblePath
    families: CutFamilies
    orientation: Orientation


Observer = Callable[[PathEvent], None]


def _potential(fam: CutFamilies) -> tuple[int, int]:
    return (len(fam.m_all), -sum(len(x) for x in fam.m_all))


def _held(h: Hypergraph) -> list[int]:
    """The number of edges holding each vertex, in one pass over the edges.
    Every edge has two vertices or more, so it is the ``in + out`` degree
    of ``{v}`` under every orientation."""
    held = [0] * h.n
    for edge in h.edges:
        for v in edge:
            held[v] += 1
    return held


def _least_one_vertex_degree(held: list[int], into: list[int]) -> int:
    """The least out-degree of a set ``{v}`` or ``V - {v}``, an upper bound
    on the connectivity, from :func:`_held` and ``into[v]``, the edges
    headed at each ``v``: those enter ``{v}``, and the other
    ``held[v] - into[v]`` edges at ``v`` leave it."""
    return min(min(d, held[v] - d) for v, d in enumerate(into))


def _reject_low_degree(h: Hypergraph, target: int) -> None:
    """Raise :class:`NotPartitionConnectedError` when some vertex lies in
    fewer than ``2 * target`` hyperedges, with the partition ``{v}, V - {v}``
    of the smallest such ``v`` as its certificate: its crossing edges are
    the ``in + out`` degree of ``{v}`` under every orientation, which
    :func:`_held` counts."""
    for v, d in enumerate(_held(h)):
        if d < 2 * target:
            p = Partition(h.n, [VertexSet.singleton(h.n, v), h.vertices().remove(v)])
            if crossing_edges(h, p) >= 2 * target:
                raise InvariantViolation(f"the degree certificate of vertex {v} does not hold")
            raise NotPartitionConnectedError(
                f"vertex {v} lies in {d} hyperedges, fewer than 2 * {target}: "
                f"no orientation reaches connectivity {target}",
                certificate=p,
            )


def augment_one(
    h: Hypergraph,
    o: Orientation,
    k: int,
    check: IncrementalConnectivity,
    observer: Optional[Observer] = None,
) -> tuple[Orientation, list[ReorientationStep]]:
    """One level of :func:`augment_to`: raise the connectivity of ``o`` from
    exactly ``k`` to exactly ``k + 1`` by single-hyperarc reorientations.

    ``check`` is the run's step check, current for ``o`` with a cap of at
    most ``k + 1``; its cap is raised to ``k + 1`` and it is left current
    for the returned orientation.  Returns the new orientation and the
    level's steps, whose connectivity is non-decreasing and never below
    ``k``.  A check whose value is not ``k`` raises
    :class:`InvariantViolation`.

    A step that lowers the connectivity raises
    :class:`NotPartitionConnectedError`, and its certificate is the cut the
    step lowered.  Turning edge ``e`` from head ``a`` to head ``b`` lowers
    by one the out-degree of exactly the sets that hold ``b`` and miss
    ``a``, and no other set's (the single-reorientation lemma).  Before
    the step every set has out-degree at least ``k``, so when the step
    check reads a value below ``k`` that value is the ``b -> a`` max flow,
    and its minimal cut has that out-degree.  It is one
    :func:`~hyperorient.separator.min_separator` query capped at ``k``.  A
    cut value that is not the step check's, or a cut whose
    :func:`~hyperorient.core.out_degree` is not that value, raises
    :class:`InvariantViolation` naming the step.

    Every level ends within a bounded number of paths and steps.
    :func:`~hyperorient.families.compute_families` makes ``m_all`` a
    subpartition (``_check_subpartition``), of nonempty sets (each is a q
    set, which holds its vertex, or the full set), and never empty (its
    fallback is ``{V}``).  So ``j`` members cover between ``j`` and ``n``
    vertices, and the potential ``(|m_all|, -covered)`` takes at most
    ``n(n + 1)/2`` values.  Each path must strictly lower it, or the
    potential guard raises, so that guard fires by iteration
    ``n(n + 1)/2 + 1``, which is at most ``n^2 + 1``.  The walk back of
    :func:`~hyperorient.pathsearch.admissible_path_in_tminus` and
    ``_tplus`` refuses a path of ``n`` arcs, so a level takes at most
    ``(n^3 - n)/2 < n^3`` steps, the bound :func:`verify_trace` holds a
    level to.  No iteration cap or step budget could fire before these
    guards, so the loop keeps none.
    """
    check.raise_cap(k + 1)
    if check.value != k:
        raise InvariantViolation(f"level {k} starts at connectivity {check.value}")

    n = h.n
    steps: list[ReorientationStep] = []
    cur = o
    lam_cur = k
    prev_potential: Optional[tuple[int, int]] = None
    iteration = 0

    while lam_cur == k:
        fam = compute_families(h, cur, check=check)
        if fam.k != k:  # lam_cur is exact here
            raise InvariantViolation(
                f"level {k}, iteration {iteration + 1}: families at {fam.k}, connectivity {lam_cur}"
            )
        iteration += 1
        region = fam.r_family[0]
        where = f"level {k}, iteration {iteration}, region {region}"  # every guard below names it
        pot = _potential(fam)
        if prev_potential is not None and not pot < prev_potential:
            raise NotPartitionConnectedError(
                f"{where}: families potential did not decrease: {prev_potential} -> {pot}"
            )
        prev_potential = pot

        in_branch = is_in_tight(h, cur, k, region, fam.r)
        try:
            if in_branch:
                result = admissible_path_in_tminus(h, cur, fam, region)
            else:
                result = admissible_path_in_tplus(h, cur, fam, region)
        except InvariantViolation as exc:
            raise NotPartitionConnectedError(f"{where}: {exc}") from exc
        if observer is not None:
            observer(
                PathEvent(
                    level=k,
                    iteration=iteration,
                    region=region,
                    branch="in-tight" if in_branch else "out-tight",
                    result=result,
                    families=fam,
                    orientation=cur,
                )
            )

        order = tuple(reversed(result.path.arcs)) if in_branch else result.path.arcs
        for arc in order:
            old_head = cur.heads[arc.edge]
            if old_head != arc.head:
                raise InvariantViolation(f"edge {arc.edge} changed head mid-path")
            cur = reorient(cur, arc.edge, arc.tail)
            lam_after = check.reorient(arc.edge, arc.tail)
            if lam_after < k:
                # the step lowered only the sets that hold its new head and miss its old one
                new, old = VertexSet.singleton(n, arc.tail), VertexSet.singleton(n, old_head)
                lam, x = min_separator(h, cur, new, old, limit=k)
                step = f"{where}, step {len(steps) + 1}"
                if lam != lam_after:
                    raise InvariantViolation(f"{step}: the step check reads {lam_after}, connectivity is {lam}")
                d = out_degree(h, cur, x)
                if d != lam:
                    raise InvariantViolation(f"{step}: the certificate {x} has out-degree {d}, not {lam}")
                raise NotPartitionConnectedError(
                    f"{where}: connectivity dropped to {lam_after} during a path", certificate=x
                )
            steps.append(ReorientationStep(arc.edge, old_head, arc.tail, lam_after))
            lam_cur = lam_after
            if lam_cur > k:
                break
    return cur, steps


def augment_to(
    h: Hypergraph,
    o: Orientation,
    k_target: int,
    observer: Optional[Observer] = None,
) -> ReorientationTrace:
    """Raise the connectivity to ``k_target``, one level at a time.

    The trace uses at most ``(k_target - lambda_initial) * (n^3 - n)/2``
    steps, by the count in :func:`augment_one`, within the ``n^3`` per level
    that :func:`verify_trace` holds a trace to.  An ``h`` that is not a
    :class:`~hyperorient.core.Hypergraph`, an ``o`` that is not an
    orientation of it, and a ``k_target`` that is not a non-negative
    ``int`` (an ``IntEnum`` is one, and the trace holds it as a plain
    ``int``; a ``bool`` is not) raise :class:`PreconditionError`.  A target
    below the initial connectivity is rejected, and so is, before any flow,
    one that some vertex's degree rules out.  Each level ends at exactly one
    above the last, so one step check, built here, serves every level.
    """
    k_target = _as_count("k_target", k_target)
    _as_hypergraph(h)
    _reject_low_degree(h, k_target)
    lam0 = hyperarc_connectivity(h, o)
    if k_target < lam0:
        raise PreconditionError(f"target {k_target} is below the initial connectivity {lam0}")
    steps: list[ReorientationStep] = []
    cur = o
    check = IncrementalConnectivity(h, o, cap=lam0 + 1) if lam0 < k_target else None
    for k in range(lam0, k_target):
        # one call per level, through the module global: a wrapped augment_one sees each level
        cur, level_steps = augment_one(h, cur, k, check, observer)
        steps.extend(level_steps)
    return ReorientationTrace(
        initial=o,
        k_target=k_target,
        lambda_initial=lam0,
        lambda_final=k_target,
        steps=tuple(steps),
    )


def apply_trace(trace: ReorientationTrace) -> Orientation:
    """Replay a trace's steps from its initial orientation.  What
    :func:`verify_trace` refuses or reports before any replay, a trace that
    is no :class:`ReorientationTrace` from an
    :class:`~hyperorient.core.Orientation` or a malformed entry, raises
    :class:`PreconditionError`, and so does an illegal step."""
    _as_well_formed(trace)
    cur = trace.initial
    for step in trace.steps:
        cur = reorient(cur, step.edge, step.new_head)
    return cur


@dataclass(frozen=True)
class VerifyFailure:
    """One violated check: the 1-based step index (``None`` for trace-level
    checks) and what went wrong."""

    step: Optional[int]
    message: str


@dataclass(frozen=True)
class VerifyReport:
    failures: tuple[VerifyFailure, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        if self.ok:
            return "trace OK"
        lines = []
        for f in self.failures:
            where = f"step {f.step}" if f.step is not None else "trace"
            lines.append(f"FAIL {where}: {f.message}")
        return "\n".join(lines)


def _malformed_entry(trace: ReorientationTrace) -> Optional[VerifyFailure]:
    """The first entry of ``trace`` that a parsed trace cannot hold, or
    ``None``: a field that is not an ``int``, by
    :func:`~hyperorient.toolkit.parse_trace`'s rule (``type(x) is int``, so
    a ``bool`` is not one), ``steps`` that are not a tuple, or a step that
    is not a :class:`ReorientationStep`.  A ``trace`` that is not a
    :class:`ReorientationTrace` from an
    :class:`~hyperorient.core.Orientation` raises
    :class:`PreconditionError`."""
    if not isinstance(trace, ReorientationTrace) or not isinstance(trace.initial, Orientation):
        raise PreconditionError("trace must be a ReorientationTrace that starts from an Orientation")
    steps = trace.steps if type(trace.steps) is tuple else ()
    records = [(None, {name: getattr(trace, name) for name in ("lambda_initial", "k_target", "lambda_final")})]
    records += enumerate(steps, start=1)
    for i, record in records:
        if i is not None:
            if type(record) is not ReorientationStep:
                return VerifyFailure(i, f"step is a {type(record).__name__}, not a ReorientationStep")
            record = vars(record)
        for name, value in record.items():
            if type(value) is not int:
                return VerifyFailure(i, f"{name} is {value!r}, not an int")
    if type(trace.steps) is not tuple:
        return VerifyFailure(None, f"steps is a {type(trace.steps).__name__}, not a tuple")
    return None


def _as_well_formed(trace: ReorientationTrace) -> None:
    """Refuse what :func:`verify_trace` refuses or reports before any
    replay (:func:`_malformed_entry`): raise :class:`PreconditionError`
    with the report's text.  :func:`apply_trace` and
    :func:`~hyperorient.toolkit.format_trace` call it, so neither takes a
    trace that the text format could not hold."""
    bad = _malformed_entry(trace)
    if bad is not None:
        raise PreconditionError(VerifyReport((bad,)).render())


def verify_trace(h: Hypergraph, trace: ReorientationTrace) -> VerifyReport:
    """Independent certification of a trace.

    A ``trace`` that is not a :class:`ReorientationTrace` from an
    :class:`~hyperorient.core.Orientation` raises :class:`PreconditionError`.  Otherwise it first checks that ``steps``
    is a tuple of :class:`ReorientationStep` and that every count, head and
    edge id is an ``int``, and then
    that the step count respects the ``(k_target - lambda_initial) * n^3``
    bound, so a malformed or over-long trace is rejected before any replay.
    Then replays every step, computes the exact connectivity after each, and
    checks: steps are single legal reorientations, the computed connectivity
    matches the recorded one and never decreases, and the final connectivity
    equals the claim and reaches the target.

    Each step's value comes from two bounds where they meet.  Turning edge
    ``e`` from head ``a`` to head ``b`` lowers by one the out-degree of
    exactly the sets ``X`` with ``b`` in ``X`` and ``a`` not, raises it by
    one for the sets with ``a`` in and ``b`` out, and leaves every other set
    alone (the hypergraph form of the single-reorientation lemma behind Ito
    et al. 2022).  So the new connectivity is at least the old ``lam`` if
    and only if the new ``b -> a`` max flow is at least ``lam``: one flow
    capped at ``lam``, on the hypergraph's one ``network(h)`` and a copy of
    the new orientation's heads.
    From above, the connectivity is at most the out-degree of every set
    ``{v}`` and ``V - {v}``.  With ``held[v]`` the edges holding ``v`` and
    ``into[v]`` those headed at it, those degrees are ``held[v] - into[v]``
    and ``into[v]``: every edge headed at ``v`` enters ``{v}`` and every
    other edge at ``v`` leaves it.  ``held`` is counted once and ``into``
    moves by one at ``a`` and ``b`` on each step, so the verifier keeps no
    set and reads none from another routine.  The flow runs only when the
    least of those degrees is ``lam``.
    Every other value comes from
    :func:`~hyperorient.separator.connectivity`, capped at a bound the
    verifier holds, so the capped value is exact.  The initial value is
    capped at the least one-vertex degree of the initial orientation.
    When either bound of a step fails, the cap is the lower of ``lam + 1``
    and the step's least one-vertex degree: one step moves the value by at
    most one, and ``lam`` is the verifier's own exact value.  These runs
    use the same network, so no step builds one, and they read no bound of
    the solver's.  Either way the value is exact, so the report does not
    depend on which bound decided it.
    """
    bad = _malformed_entry(trace)
    if trace.initial.hypergraph != h:
        return VerifyReport((VerifyFailure(None, "trace initial orientation is for a different hypergraph"),))
    if bad is not None:
        return VerifyReport((bad,))
    bound = max(0, trace.k_target - trace.lambda_initial) * h.n**3
    if len(trace.steps) > bound:
        return VerifyReport((VerifyFailure(None, f"{len(trace.steps)} steps exceed the bound {bound}"),))
    failures: list[VerifyFailure] = []
    held, into = _held(h), [0] * h.n
    for v in trace.initial.heads:
        into[v] += 1
    lam = connectivity(h, trace.initial, _least_one_vertex_degree(held, into))
    if lam != trace.lambda_initial:
        failures.append(
            VerifyFailure(None, f"initial connectivity is {lam}, trace claims {trace.lambda_initial}")
        )
    g = separator.network(h)
    cur = trace.initial
    for i, step in enumerate(trace.steps, start=1):
        if not 0 <= step.edge < h.m:
            failures.append(VerifyFailure(i, f"edge id {step.edge} out of range"))
            break
        if cur.heads[step.edge] != step.old_head:
            failures.append(
                VerifyFailure(
                    i,
                    f"edge {step.edge} has head {cur.heads[step.edge]}, step claims {step.old_head}",
                )
            )
        if step.new_head not in h.edges[step.edge] or step.new_head == cur.heads[step.edge]:
            failures.append(VerifyFailure(i, f"illegal new head {step.new_head} for edge {step.edge}"))
            break
        a, b = cur.heads[step.edge], step.new_head
        cur = reorient(cur, step.edge, b)
        into[a] -= 1
        into[b] += 1
        least = _least_one_vertex_degree(held, into)
        if least == lam and separator.max_flow_min_cut(
            g, [b], separator._sink_mask(h.n, [a]), limit=lam, residual=list(cur.heads)
        )[0] == lam:
            lam_after = lam
        else:
            lam_after = connectivity(h, cur, min(lam + 1, least))
        if lam_after != step.lambda_after:
            failures.append(
                VerifyFailure(i, f"connectivity after step is {lam_after}, step claims {step.lambda_after}")
            )
        if lam_after < lam:
            failures.append(VerifyFailure(i, f"connectivity decreased from {lam} to {lam_after}"))
        lam = lam_after
    else:
        if lam != trace.lambda_final:
            failures.append(
                VerifyFailure(None, f"final connectivity is {lam}, trace claims {trace.lambda_final}")
            )
        if trace.lambda_final < trace.k_target:
            failures.append(
                VerifyFailure(
                    None,
                    f"trace ends at connectivity {trace.lambda_final}, below target {trace.k_target}",
                )
            )
    return VerifyReport(tuple(failures))
