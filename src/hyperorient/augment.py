"""Connectivity-raising reorientation: one level at a time, one hyperarc at
a time, never letting the connectivity drop.

Raising the level from ``k`` to ``k + 1`` loops: compute the cut families at
level ``k``, pick the canonically smallest region of the ``r_family``, find
an admissible path in it, and reorient the path's hyperarcs one by one
toward their recorded tails (end to start inside an in-tight region, start
to end inside an out-tight one).  After every single reorientation the
connectivity is checked to stay at least ``k``: one step check
(:class:`~hyperorient.separator.IncrementalConnectivity`) keeps 2(n - 1)
root-pair flows for the whole run and repairs them after each step instead
of recomputing them.  :func:`augment_to` builds it once; each level raises
its cap to ``k + 1``, which adds at most one unit to each flow at the old
cap, and takes the level's connectivity from it.  The level's cut families
are read from the same flows.  Reaching ``k + 1`` mid-path ends the level
immediately, which keeps the per-step connectivity sequence
non-decreasing.  :func:`verify_trace` shares none of the repair code: it
decides each step's connectivity with one capped flow and a set kept from
an earlier from-scratch computation, and recomputes from scratch only when
no kept set is tight.  Every flow of a run, in the step check, the families
and the verifier, runs on the hypergraph's one incidence structure
(:func:`~hyperorient.separator.network`) with a copy of an orientation's
heads, which the flow turns in place.  Each full path strictly shrinks the
potential ``(|m_all|, -covered vertices)``, so a level finishes within
``n^2`` iterations and ``n^3`` single-hyperarc steps.

The input hypergraph must be sufficiently partition-connected for the target
level; that precondition is not tested exactly (deliberately out of scope).
One necessary part is tested before any flow: a vertex in fewer than
``2 * target`` hyperedges has in- plus out-degree below ``2 * target``, so
no orientation reaches the target, and the two-class partition that cuts
it off is the certificate.  Other violations surface as
:class:`NotPartitionConnectedError` through fail-fast guards: a missing safe
endpoint, a stuck search, a connectivity drop, a non-decreasing potential,
or a blown step budget.  Each guard inside :func:`augment_one`'s loop names
the level, the iteration and the search region it fired in.
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
    crossing_edges,
    degree,
    out_degree,
    reorient,
)
from .families import CutFamilies, compute_families, is_in_tight
from .pathsearch import AdmissiblePath, admissible_path_in_tminus, admissible_path_in_tplus
from .separator import IncrementalConnectivity, connectivity, hyperarc_connectivity


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
    applied.  ``families`` and ``orientation`` are the pre-path state."""

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


def _reject_low_degree(h: Hypergraph, target: int) -> None:
    """Raise :class:`NotPartitionConnectedError` when some vertex lies in
    fewer than ``2 * target`` hyperedges, with the partition ``{v}, V - {v}``
    of the smallest such ``v`` as its certificate: its crossing edges are
    the ``in + out`` degree of ``{v}`` under every orientation."""
    for v in range(h.n):
        d = degree(h, VertexSet.singleton(h.n, v))
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
    level: Optional[int] = None,
    observer: Optional[Observer] = None,
    *,
    check: Optional[IncrementalConnectivity] = None,
) -> tuple[Orientation, ReorientationTrace]:
    """Raise the connectivity from ``level`` (the current exact value by
    default) to ``level + 1`` by single-hyperarc reorientations.

    Returns the new orientation and a trace whose per-step connectivity is
    non-decreasing and never below ``level``.  If the orientation is already
    above ``level`` the trace is empty.  ``check`` is a step check for ``o``
    with a cap of at most ``level + 1``, kept from an earlier level; its cap
    is raised to ``level + 1`` and it is left current for the returned
    orientation.  Without one, one is built.  A vertex in fewer than
    ``2 * (level + 1)`` hyperedges is rejected before the check is touched,
    and a negative ``level`` raises :class:`PreconditionError`.
    """
    if level is not None and level < 0:
        raise PreconditionError(f"level {level} is negative")
    k = hyperarc_connectivity(h, o) if level is None else level
    _reject_low_degree(h, k + 1)
    if check is None:
        check = IncrementalConnectivity(h, o, cap=k + 1)
    elif check.heads != list(o.heads):
        raise PreconditionError("the step check is for another orientation")
    check.raise_cap(k + 1)
    lam0 = check.value
    if lam0 < k:
        raise PreconditionError(f"orientation has connectivity {lam0}, below level {k}")
    if lam0 > k:  # already above the level; the trace records the exact value
        lam0 = hyperarc_connectivity(h, o)

    n = h.n
    budget = n**3 + n
    steps: list[ReorientationStep] = []
    cur = o
    lam_cur = lam0
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
        if iteration > n * n:
            raise NotPartitionConnectedError(f"{where}: more than {n * n} path iterations")

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
            if len(steps) >= budget:
                raise NotPartitionConnectedError(f"{where}: step budget {budget} exhausted")
            old_head = cur.heads[arc.edge]
            if old_head != arc.head:
                raise InvariantViolation(f"edge {arc.edge} changed head mid-path")
            cur = reorient(cur, arc.edge, arc.tail)
            lam_after = check.reorient(arc.edge, arc.tail)
            if lam_after < k:
                raise NotPartitionConnectedError(
                    f"{where}: connectivity dropped to {lam_after} during a path",
                    certificate=check.witness(),
                )
            steps.append(ReorientationStep(arc.edge, old_head, arc.tail, lam_after))
            lam_cur = lam_after
            if lam_cur > k:
                break

    if lam_cur <= k:
        raise InvariantViolation("augmentation loop ended below its target")
    if len(steps) > n**3:
        raise InvariantViolation(f"level used {len(steps)} steps, above the n^3 bound")
    trace = ReorientationTrace(
        initial=o,
        k_target=k + 1,
        lambda_initial=lam0,
        lambda_final=lam_cur,
        steps=tuple(steps),
    )
    return cur, trace


def augment_to(
    h: Hypergraph,
    o: Orientation,
    k_target: int,
    observer: Optional[Observer] = None,
) -> ReorientationTrace:
    """Raise the connectivity to ``k_target`` by repeated single increments.

    The concatenated trace uses at most ``(k_target - lambda_initial) * n^3``
    steps.  ``k_target`` below the initial connectivity is rejected, and so
    is, before any flow, one that some vertex's degree rules out.
    """
    _reject_low_degree(h, k_target)
    lam0 = hyperarc_connectivity(h, o)
    if k_target < lam0:
        raise PreconditionError(f"target {k_target} is below the initial connectivity {lam0}")
    steps: list[ReorientationStep] = []
    cur = o
    lam = lam0
    check = IncrementalConnectivity(h, o, cap=lam0 + 1) if lam0 < k_target else None
    while lam < k_target:
        # one call per level, through the module global: a wrapped augment_one sees each level
        cur, partial = augment_one(h, cur, level=lam, observer=observer, check=check)
        steps.extend(partial.steps)
        lam = partial.lambda_final
    if len(steps) > (k_target - lam0) * h.n**3:
        raise InvariantViolation("total steps exceed the (k - lambda) * n^3 bound")
    return ReorientationTrace(
        initial=o,
        k_target=k_target,
        lambda_initial=lam0,
        lambda_final=lam,
        steps=tuple(steps),
    )


def apply_trace(trace: ReorientationTrace) -> Orientation:
    """Replay a trace's steps from its initial orientation."""
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


def verify_trace(h: Hypergraph, trace: ReorientationTrace) -> VerifyReport:
    """Independent certification of a trace.

    First checks that the step count respects the ``(k_target -
    lambda_initial) * n^3`` bound, so an over-long trace is rejected before
    any replay.  Then replays every step, computes the exact connectivity
    after each, and checks: steps are single legal reorientations, the
    computed connectivity matches the recorded one and never decreases, and
    the final connectivity equals the claim and reaches the target.

    Each step's value comes from two bounds where they meet.  Turning edge
    ``e`` from head ``a`` to head ``b`` lowers by one the out-degree of
    exactly the sets ``X`` with ``b`` in ``X`` and ``a`` not, raises it by
    one for the sets with ``a`` in and ``b`` out, and leaves every other set
    alone (the hypergraph form of the single-reorientation lemma behind Ito
    et al. 2022).  So the new connectivity is at least the old ``lam`` if
    and only if the new ``b -> a`` max flow is at least ``lam``: one flow
    capped at ``lam``, on the hypergraph's one ``network(h)`` and a copy of
    the new orientation's heads.
    From above, a set of out-degree ``lam`` after the step shows the value
    is at most ``lam``.  The sets tried are every set :func:`connectivity`
    has returned in this call; a kept set is never trusted for its old
    value, only ever shown tight again by :func:`~hyperorient.core.out_degree`.
    When either bound fails, ``connectivity(h, cur, cap=lam + 2)`` computes
    the value from scratch, exact because one step moves it by at most one,
    and its set is kept; it runs on the same network, so no step builds
    one.  Either way the value is exact, so the report does not depend on
    which bound decided it.
    """
    if trace.initial.hypergraph != h:
        return VerifyReport((VerifyFailure(None, "trace initial orientation is for a different hypergraph"),))
    bound = max(0, trace.k_target - trace.lambda_initial) * h.n**3
    if len(trace.steps) > bound:
        return VerifyReport((VerifyFailure(None, f"{len(trace.steps)} steps exceed the bound {bound}"),))
    failures: list[VerifyFailure] = []
    lam, x = connectivity(h, trace.initial)
    kept = [x]  # every set connectivity returned, each shown tight again by out_degree
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
        if (
            any(out_degree(h, cur, x) == lam for x in kept)
            and separator.max_flow_min_cut(g, b, a, limit=lam, residual=list(cur.heads))[0] == lam
        ):
            lam_after = lam
        else:
            lam_after, x = connectivity(h, cur, cap=lam + 2)
            kept.append(x)
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
