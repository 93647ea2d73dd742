"""Pass 2 — cut validity and transition analysis (codes ``RSC2xx``).

Definition 2.1 calls a component set a *cut* of ``T_w`` when it is an
antichain crossed exactly once by every root-to-leaf path, and
Theorem 2.1 guarantees every cut counts. This pass decides, without
routing a single token:

* whether a proposed component set is a valid cut
  (:func:`check_cut`), reporting every violation — bad paths, ancestor
  overlaps, coverage holes — rather than just the first;
* whether a cut-to-cut transition preserves the token-conservation
  precondition (:func:`check_transition`): both endpoints must be valid
  cuts of the *same* tree, and the changed regions must decompose into
  subtree-aligned splits and merges — the only reconfiguration steps
  with an exact state transfer (Section 2.2);
* whether a single split or merge may be applied to the live component
  set right now (:func:`check_split` / :func:`check_merge`), which is
  what :class:`repro.runtime.reconfig.Reconfigurator` consults before
  touching any state. The raising wrappers :func:`validate_split` /
  :func:`validate_merge` turn failures into
  :class:`repro.errors.InvalidTransitionError`.

Error codes
-----------
``RSC201``
    Empty component set (a cut needs at least one member).
``RSC202``
    A member path does not denote a node of the tree.
``RSC203``
    Two members overlap (one is an ancestor of the other).
``RSC204``
    A root-to-leaf path crosses no member (coverage hole).
``RSC205``
    Transition endpoints belong to different trees/widths.
``RSC206``
    Transition (or split/merge) violates the token-conservation
    precondition: the change is not expressible as subtree-aligned
    splits and merges of live members.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.errors import InvalidTransitionError, StructureError
from repro.staticcheck.diagnostics import Report

Path = Tuple[int, ...]


def _normalise(paths: Iterable[Path]) -> List[Path]:
    return sorted({tuple(p) for p in paths})


def check_cut(tree, paths: Iterable[Path], source: Optional[str] = None) -> Report:
    """Whether ``paths`` is a valid cut of ``tree`` (Definition 2.1).

    Works for any :class:`~repro.core.decomposition.DecompositionTree`:
    ``T_w`` or another structure's tree (:mod:`repro.ext`).
    """
    if source is None:
        source = "cut(w=%d)" % tree.width
    report = Report()
    members = _normalise(paths)
    if not members:
        report.add("RSC201", "a cut must have at least one member", source)
        return report
    valid: List[Path] = []
    for path in members:
        try:
            tree.node(path)
        except StructureError as exc:
            report.add(
                "RSC202",
                "member %r is not a component of T_%d: %s" % (path, tree.width, exc),
                source,
            )
        else:
            valid.append(path)
    member_set = frozenset(valid)
    for first, second in zip(valid, valid[1:]):
        if second[: len(first)] == first:
            report.add(
                "RSC203",
                "members overlap: %r is an ancestor of %r" % (first, second),
                source,
            )
    if not report.ok:
        return report
    prefixes = {path[:end] for path in member_set for end in range(len(path) + 1)}
    stack = [tree.root]
    while stack:
        spec = stack.pop()
        if spec.path in member_set:
            continue
        if spec.path not in prefixes or spec.is_leaf:
            report.add(
                "RSC204",
                "root-to-leaf path through %s crosses no member" % (spec,),
                source,
                component=str(spec),
            )
            continue
        stack.extend(spec.children())
    return report


def is_valid_cut(tree, paths: Iterable[Path]) -> bool:
    """Convenience boolean form of :func:`check_cut`."""
    return check_cut(tree, paths).ok


# ----------------------------------------------------------------------
# transitions
# ----------------------------------------------------------------------
def _change_regions(old: FrozenSet[Path], new: FrozenSet[Path]) -> Dict[Path, str]:
    """Map each maximal changed subtree root to ``"split"``/``"merge"``.

    For two valid cuts the symmetric difference partitions into maximal
    regions: at region root ``r`` either the old cut has the single
    member ``r`` refined by the new cut (a split cascade) or vice versa
    (a merge cascade). Region roots are the shallowest changed members.
    """
    removed = old - new
    added = new - old
    regions: Dict[Path, str] = {}
    for path in removed:
        # r is a region root when no shallower changed member covers it.
        if not any(path[: len(a)] == a for a in added if len(a) < len(path)):
            regions[path] = "split"
    for path in added:
        if not any(path[: len(r)] == r for r in removed if len(r) < len(path)):
            regions[path] = "merge"
    return regions


def check_transition(
    tree,
    old_paths: Iterable[Path],
    new_paths: Iterable[Path],
    source: Optional[str] = None,
) -> Report:
    """Whether ``old -> new`` is a token-conserving reconfiguration.

    Both endpoints must be valid cuts of ``tree``; the changed regions
    must then be subtree-aligned (each region is one old member refined
    by new members, or one new member coarsening old members), which
    makes the transition a composition of the exact split/merge state
    transfers of Section 2.2. The clean report carries no diagnostics;
    callers wanting the decomposition use :func:`transition_plan`.
    """
    if source is None:
        source = "transition(w=%d)" % tree.width
    report = Report()
    old_report = check_cut(tree, old_paths, source="%s:old" % source)
    new_report = check_cut(tree, new_paths, source="%s:new" % source)
    report.extend(old_report).extend(new_report)
    if not report.ok:
        return report
    old = frozenset(_normalise(old_paths))
    new = frozenset(_normalise(new_paths))
    for root, kind in sorted(_change_regions(old, new).items()):
        inner = new if kind == "split" else old
        region_members = [p for p in inner if p[: len(root)] == root]
        sub_report = check_cut(_Subtree(tree, root), region_members, source)
        if not sub_report.ok:
            report.add(
                "RSC206",
                "%s region at %r is not subtree-aligned: members %r do not "
                "partition the subtree" % (kind, root, sorted(region_members)),
                source,
            )
    return report


def transition_plan(tree, old_paths: Iterable[Path], new_paths: Iterable[Path]) -> Dict[Path, str]:
    """The split/merge decomposition of a (pre-validated) transition."""
    old = frozenset(_normalise(old_paths))
    new = frozenset(_normalise(new_paths))
    return _change_regions(old, new)


class _Subtree:
    """A view of ``tree`` re-rooted at ``root_path`` (duck-typed for
    :func:`check_cut`: only ``width``, ``root`` and ``node`` are used —
    member paths stay absolute)."""

    def __init__(self, tree, root_path: Path):
        self._tree = tree
        self.root = tree.node(root_path)
        self.width = self.root.width

    def node(self, path: Path):
        return self._tree.node(path)


# ----------------------------------------------------------------------
# single-operation validators for the runtime
# ----------------------------------------------------------------------
def _as_set(paths: Iterable[Path]) -> AbstractSet[Path]:
    """``paths`` as a set of tuples; a set (the directory's frozenset)
    is taken as is, since set members are already hashable tuples."""
    if isinstance(paths, (set, frozenset)):
        return paths
    return frozenset(tuple(p) for p in paths)


def check_split(tree, live_paths: Iterable[Path], path: Path, source: Optional[str] = None) -> Report:
    """Whether splitting live member ``path`` is valid right now.

    Only the local preconditions are checked: the target is live, is a
    node of ``T_w`` and is not a balancer. That is the whole gate, by a
    lemma: replacing a non-leaf member of a cut by all its children
    keeps the antichain an antichain and every root-to-leaf path crossed
    exactly once, and the change is one subtree-aligned split region. A
    global ``is_valid_cut(live)`` + ``check_transition(live, target)``
    could therefore only run when it cannot fail (and never ran on a
    live set with crash holes, which must not veto a survivor's split).
    The global invariant is still machine-checked where it can fail:
    ``AdaptiveCountingSystem.verify()`` rebuilds the deployed
    :class:`~repro.core.cut.Cut` (``directory.check_consistent``) and
    ``repro check`` runs :func:`check_cut`;
    ``tests/staticcheck/test_cuts.py`` holds this function equal to the
    global formulation over random cuts, holes and overlaps.
    """
    if source is None:
        source = "split%r" % (tuple(path),)
    report = Report()
    path = tuple(path)
    if path not in _as_set(live_paths):
        report.add("RSC206", "cannot split %r: not a live member" % (path,), source)
        return report
    try:
        spec = tree.node(path)
    except StructureError as exc:
        report.add("RSC202", "split target %r is not a component: %s" % (path, exc), source)
        return report
    if spec.is_leaf:
        report.add("RSC206", "cannot split the balancer %s" % (spec,), source)
    return report


def check_merge(tree, live_paths: Iterable[Path], path: Path, source: Optional[str] = None) -> Report:
    """Whether merging the live subtree below ``path`` is valid now.

    Token conservation requires the live descendants of ``path`` to
    partition its subtree exactly — a missing descendant means part of
    the component's past token stream is unaccounted for, and the merged
    counter state would be wrong.
    """
    if source is None:
        source = "merge%r" % (tuple(path),)
    report = Report()
    live = _as_set(live_paths)
    path = tuple(path)
    try:
        tree.node(path)
    except StructureError as exc:
        report.add("RSC202", "merge target %r is not a component: %s" % (path, exc), source)
        return report
    if path in live:
        return report  # already merged; a no-op is trivially valid
    descendants = [p for p in live if p[: len(path)] == path and p != path]
    if not descendants:
        report.add(
            "RSC206",
            "cannot merge %r: no live members below it" % (path,),
            source,
        )
        return report
    sub_report = check_cut(_Subtree(tree, path), descendants, source)
    if not sub_report.ok:
        report.add(
            "RSC206",
            "cannot merge %r: live members %r do not partition its subtree "
            "(token conservation would break)" % (path, sorted(descendants)),
            source,
        )
        report.extend(sub_report)
    return report


def validate_split(tree, live_paths: Iterable[Path], path: Path) -> None:
    """Raise :class:`~repro.errors.InvalidTransitionError` if
    :func:`check_split` finds any violation."""
    report = check_split(tree, live_paths, path)
    if not report.ok:
        raise InvalidTransitionError(report)


def validate_merge(tree, live_paths: Iterable[Path], path: Path) -> None:
    """Raise :class:`~repro.errors.InvalidTransitionError` if
    :func:`check_merge` finds any violation."""
    report = check_merge(tree, live_paths, path)
    if not report.ok:
        raise InvalidTransitionError(report)
