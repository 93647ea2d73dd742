"""The live-component directory: which cut is deployed, and where.

In the real system this state is implicit in the DHT (a component named
``b`` lives at node ``h(b)``, and it exists iff someone installed it).
The simulation keeps it explicit: a map from live component paths to
hosting node ids, kept in sync with the hash function as membership
changes. The directory is also where the component *naming* of
Section 2.1 is applied: the hash key of a component is its pre-order
index in ``T_w``.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.chord.hashing import name_to_point
from repro.chord.ring import ChordRing
from repro.core.cut import Cut
from repro.core.decomposition import ComponentSpec, DecompositionTree
from repro.errors import ComponentNotFound, ProtocolError

Path = Tuple[int, ...]
EdgeKey = Tuple[Path, int]


class ComponentDirectory:
    """Tracks the deployed cut and the home node of every component."""

    def __init__(self, tree: DecompositionTree, ring: ChordRing):
        self.tree = tree
        self.ring = ring
        self._owner: Dict[Path, int] = {}
        #: path -> hash point. A component's name (and therefore its
        #: point) depends only on the fixed tree and identifier space,
        #: so entries never invalidate; the memo spares the token hot
        #: path a tree walk + SHA-1 per lookup.
        self._points: Dict[Path, int] = {}
        #: Monotonic mutation stamp: bumped on every register/unregister,
        #: handoffs included (the client-side input-lookup cache is keyed
        #: by it).
        self._generation = 0
        #: Memo of ``live_paths()``; dropped when a path enters or leaves.
        self._live_memo: Optional[FrozenSet[Path]] = None
        #: The edge table (Section 3.5's remembered out-neighbours):
        #: (component path, out port) -> ``("out", wire)`` or
        #: ``("member", dest path, in port)``. A resolution names a path,
        #: never an owner, and depends on the live set only through the
        #: descent that ends at its destination; :meth:`_changed` holds
        #: the drop rule.
        self._edges: Dict[EdgeKey, Tuple] = {}
        #: destination path -> the edge keys resolved to it.
        self._edges_to: Dict[Path, Set[EdgeKey]] = {}
        #: path -> number of live paths strictly below it.
        self._live_below: Dict[Path, int] = {}

    # ------------------------------------------------------------------
    # naming and placement
    # ------------------------------------------------------------------
    def component_name(self, path: Path) -> str:
        """The paper's name: the pre-order index of the component,
        scoped by the network width so distinct networks don't collide."""
        spec = self.tree.node(path)
        return "cn/%d/%d" % (self.tree.width, self.tree.preorder_index(spec))

    def hash_point(self, path: Path) -> int:
        path = tuple(path)
        point = self._points.get(path)
        if point is None:
            point = name_to_point(self.component_name(path), self.ring.space)
            self._points[path] = point
        return point

    def home(self, path: Path) -> int:
        """The node id that should host ``path`` under the current ring."""
        return self.ring.successor(self.hash_point(path)).node_id

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, path: Path, node_id: int) -> None:
        """``path`` is hosted at ``node_id``: a new live member, or the
        handoff of a live one."""
        path = tuple(path)
        entered = path not in self._owner
        self._owner[path] = node_id
        self._changed(path, int(entered))

    def unregister(self, path: Path) -> None:
        path = tuple(path)
        left = path in self._owner
        if left:
            del self._owner[path]
        self._changed(path, -int(left))

    def _changed(self, path: Path, step: int) -> None:
        """The one mutation site of the stamp and of what hangs off the
        live set. ``step`` says whether ``path`` entered (1) or left
        (-1) the live set; 0 is a handoff, which changes no resolution.

        Otherwise drop exactly the edges whose destination is a prefix
        of ``path`` or has ``path`` as a prefix: a resolution descends
        from the sibling it enters to the first live path, so no other
        entry can change. Indexed destinations are live, so one lies
        strictly below ``path`` only while an ancestor and a descendant
        are both live, which ``_live_below`` tells, and it is one of the
        live descendants.
        """
        self._generation += 1
        if not step:
            return
        self._live_memo = None
        below = self._live_below
        for end in range(len(path)):
            prefix = path[:end]
            below[prefix] = below.get(prefix, 0) + step
            self._drop_edges_to(prefix)
        self._drop_edges_to(path)
        if below.get(path):
            for dest in self.live_descendants(path):
                self._drop_edges_to(dest)

    def _drop_edges_to(self, dest: Path) -> None:
        for key in self._edges_to.pop(dest, ()):
            self._edges.pop(key, None)

    @property
    def generation(self) -> int:
        """Current mutation stamp: changes whenever a path enters or
        leaves the deployed cut, and on every handoff too."""
        return self._generation

    def owner(self, path: Path) -> int:
        try:
            return self._owner[tuple(path)]
        except KeyError:
            raise ComponentNotFound("no live component at path %r" % (path,)) from None

    def is_live(self, path: Path) -> bool:
        return tuple(path) in self._owner

    def owner_reader(self) -> "Callable[[Path], Optional[int]]":
        """A bound, C-level ``dict.get`` over the owner map for hot
        paths (the per-hop liveness + owner probe). Keys must already be
        tuples; missing paths read as None. The underlying dict is
        mutated in place and never replaced, so the reader stays valid
        for the directory's lifetime."""
        return self._owner.get

    def edge_reader(self) -> "Callable[[EdgeKey], Optional[Tuple]]":
        """The per-hop probe of the edge table (one ``dict.get``), valid
        for the directory's lifetime like :meth:`owner_reader`."""
        return self._edges.get

    def remember_edge(self, key: EdgeKey, resolved: Tuple) -> None:
        """Record an ``"out"`` or ``"member"`` resolution made under
        the current live set (a ``"missing"`` crash hole is the caller's
        to retry, never to remember)."""
        self._edges[key] = resolved
        if resolved[0] == "member":
            self._edges_to.setdefault(resolved[1], set()).add(key)

    def live_paths(self) -> FrozenSet[Path]:
        memo = self._live_memo
        if memo is None:
            memo = self._live_memo = frozenset(self._owner)
        return memo

    def paths_on(self, node_id: int) -> List[Path]:
        return sorted(p for p, owner in self._owner.items() if owner == node_id)

    def __len__(self) -> int:
        return len(self._owner)

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    def spec(self, path: Path) -> ComponentSpec:
        return self.tree.node(path)

    def has_live_below(self, path: Path) -> bool:
        """Whether some live member lies strictly below ``path``: on a
        valid cut, whether ``path`` is split."""
        return self._live_below.get(tuple(path), 0) > 0

    def live_descendants(self, path: Path) -> List[Path]:
        """Live members strictly below ``path``, sorted: a descent from
        ``path`` that enters only subtrees ``_live_below`` says hold a
        live member, so it costs the subtree, not the owner map."""
        owner, below, node = self._owner, self._live_below, self.tree.node
        found: List[Path] = []
        stack = [tuple(path)]
        while stack:
            parent = stack.pop()
            if below.get(parent):
                for child in node(parent).children():
                    if child.path in owner:
                        found.append(child.path)
                    stack.append(child.path)
        found.sort()
        return found

    def as_cut(self) -> Cut:
        """The deployed cut; raises if the directory is inconsistent."""
        return Cut(self.tree, self._owner.keys())

    def check_consistent(self) -> None:
        """Directory invariant: the live paths form a valid cut and every
        component sits at its hash home."""
        self.as_cut()
        for path, node_id in self._owner.items():
            expected = self.home(path)
            if expected != node_id:
                raise ProtocolError(
                    "component %r hosted at %#x but its home is %#x"
                    % (path, node_id, expected)
                )
