"""Metric trees with delta vertex couplings.

A tree is built from a root star (one vertex, finitely many infinite
edges) by repeatedly cutting an external edge at a finite distance and
grafting a new vertex with fresh infinite edges there.  Every edge is
oriented away from the root and carries the coordinate x in [0, l] (or
[0, inf) for external edges), with x = 0 at the vertex closer to the
root.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Vertex:
    id: str
    alpha: float


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str               # initial vertex (closer to the root)
    head: str | None        # terminal vertex, None for infinite edges
    length: float           # math.inf for infinite edges

    @property
    def is_external(self) -> bool:
        return self.head is None


@dataclass(frozen=True)
class BuildStep:
    """One grafting step: cut ``cut_edge`` at distance ``a`` and attach a
    new vertex of strength ``alpha`` with ``new_edges`` fresh rays."""
    vertex: str
    cut_edge: str
    a: float
    alpha: float
    new_edges: tuple[str, ...]


class MetricTree:
    """Immutable metric tree.  Do not mutate after construction."""

    def __init__(self, vertices, edges, root, build=()):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.root = root
        self.build = tuple(build)
        self.vertex_map = {v.id: v for v in self.vertices}
        self.edge_map = {e.id: e for e in self.edges}
        self._incidence = self._build_incidence()

    # -- basic structure ------------------------------------------------

    def _build_incidence(self):
        inc = {v.id: [] for v in self.vertices}
        for e in self.edges:
            if e.tail in inc:
                inc[e.tail].append((e.id, 0.0))
            if e.head is not None and e.head in inc:
                inc[e.head].append((e.id, e.length))
        # incoming edge (endpoint at x = length) always comes first
        for vid, lst in inc.items():
            lst.sort(key=lambda item: 0 if item[1] != 0.0 else 1)
        return inc

    def incident(self, vertex_id):
        """Incident edges as (edge_id, endpoint coordinate) pairs, the
        incoming (parent) edge first, then outgoing edges in edge order."""
        return list(self._incidence[vertex_id])

    def degree(self, vertex_id) -> int:
        return len(self._incidence[vertex_id])

    @property
    def p(self) -> int:
        return len(self.vertices)

    @property
    def internal_edges(self):
        return [e for e in self.edges if not e.is_external]

    @property
    def external_edges(self):
        return [e for e in self.edges if e.is_external]

    def alpha(self, vertex_id) -> float:
        return self.vertex_map[vertex_id].alpha

    def parent_edge(self, vertex_id):
        """Incoming edge of a non-root vertex, or None for the root."""
        for eid, x in self._incidence[vertex_id]:
            if x != 0.0:
                return self.edge_map[eid]
        return None

    # -- construction sequence -------------------------------------------

    def construction_sequence(self):
        """Return (root_edge_ids, [BuildStep, ...]) describing how the tree
        is grown from its root star.  Uses the stored build record when
        present, otherwise a depth-first replay in edge order."""
        root_edges = [eid for eid, _ in self._incidence[self.root]]
        if self.build:
            return root_edges, list(self.build)
        steps = []
        stack = [self.root]
        while stack:
            vid = stack.pop()
            children = []
            for eid, x in self._incidence[vid]:
                e = self.edge_map[eid]
                if x == 0.0 and e.head is not None:
                    children.append(e)
            for e in reversed(children):
                stack.append(e.head)
            if vid != self.root:
                inc = self.parent_edge(vid)
                new = [eid for eid, x in self._incidence[vid] if x == 0.0]
                steps.append(BuildStep(vid, inc.id, inc.length,
                                       self.alpha(vid), tuple(new)))
        return root_edges, steps


def edge_coordinate_map(tree, vertex_id, edge_id):
    """Coordinate of the vertex on the edge: 0 at the initial vertex,
    l_e at the terminal one.  Errors if the vertex is not on the edge."""
    e = tree.edge_map[edge_id]
    if e.tail == vertex_id:
        return 0.0
    if e.head == vertex_id:
        return e.length
    raise ValueError(f"vertex {vertex_id!r} is not an endpoint of "
                     f"edge {edge_id!r}")


def star_tree(n, alpha, root="v1"):
    """Star with one vertex of strength alpha and n infinite edges."""
    edges = [Edge(f"e{j + 1}", root, None, math.inf) for j in range(n)]
    return MetricTree([Vertex(root, float(alpha))], edges, root)


def attach_vertex(tree, edge_id, a, alpha, n):
    """Cut external edge ``edge_id`` at distance ``a`` and attach a new
    vertex of strength ``alpha`` and degree ``n`` (so n - 1 new rays)."""
    e = tree.edge_map.get(edge_id)
    if e is None or not e.is_external:
        raise ValueError(f"edge {edge_id!r} is not an external edge")
    if not (a > 0 and math.isfinite(a)):
        raise ValueError("cut length must be positive and finite")
    if n < 2:
        raise ValueError("new vertex must have degree >= 2")
    vid = f"v{tree.p + 1}"
    while vid in tree.vertex_map:
        vid += "x"
    base = len(tree.edges)
    new_ids = []
    for j in range(n - 1):
        nid = f"e{base + j + 1}"
        while nid in tree.edge_map:
            nid += "x"
        new_ids.append(nid)
    vertices = list(tree.vertices) + [Vertex(vid, float(alpha))]
    edges = []
    for old in tree.edges:
        if old.id == edge_id:
            edges.append(Edge(old.id, old.tail, vid, float(a)))
        else:
            edges.append(old)
    edges += [Edge(nid, vid, None, math.inf) for nid in new_ids]
    step = BuildStep(vid, edge_id, float(a), float(alpha), tuple(new_ids))
    return MetricTree(vertices, edges, tree.root, tree.build + (step,))


def line_tree(alphas, spacings):
    """Line with len(alphas) delta potentials at mutual distances given
    by ``spacings`` (len(alphas) - 1 values)."""
    if len(spacings) != len(alphas) - 1:
        raise ValueError("need one spacing per consecutive vertex pair")
    tree = star_tree(2, alphas[0])
    eid = "e2"
    for a, al in zip(spacings, alphas[1:]):
        tree = attach_vertex(tree, eid, a, al, 2)
        eid = tree.build[-1].new_edges[0]
    return tree


# -- validation ------------------------------------------------------------


def validate_tree(tree):
    """Return a list of human-readable problems; empty means valid."""
    problems = []
    if tree.root not in tree.vertex_map:
        problems.append(f"root {tree.root!r} is not a vertex")
        return problems
    if len(tree.vertex_map) != len(tree.vertices):
        problems.append("duplicate vertex ids")
    if len(tree.edge_map) != len(tree.edges):
        problems.append("duplicate edge ids")
    for v in tree.vertices:
        if not math.isfinite(v.alpha):
            problems.append(f"vertex {v.id}: strength is not finite")
    for e in tree.edges:
        if e.tail not in tree.vertex_map:
            problems.append(f"edge {e.id}: unknown tail {e.tail!r}")
        if e.head is not None and e.head not in tree.vertex_map:
            problems.append(f"edge {e.id}: unknown head {e.head!r}")
        if e.head is None and math.isfinite(e.length):
            problems.append(f"edge {e.id}: external edge with finite length")
        if e.head is not None and not (0 < e.length < math.inf):
            problems.append(f"edge {e.id}: internal edge needs finite "
                            "positive length")
        if e.head == e.tail:
            problems.append(f"edge {e.id}: self-loop")
    if problems:
        return problems
    # orientation away from the root must give a spanning arborescence
    seen = {tree.root}
    frontier = [tree.root]
    while frontier:
        vid = frontier.pop()
        for eid, _ in tree.incident(vid):
            e = tree.edge_map[eid]
            if e.tail == vid and e.head is not None:
                if e.head in seen:
                    problems.append(f"edge {e.id}: cycle or duplicate parent "
                                    f"at vertex {e.head}")
                else:
                    seen.add(e.head)
                    frontier.append(e.head)
    if len(seen) != len(tree.vertices):
        missing = sorted(set(tree.vertex_map) - seen)
        problems.append(f"vertices not reachable from root: {missing}")
    if len(tree.internal_edges) != tree.p - 1:
        problems.append("edge count inconsistent with a tree")
    for v in tree.vertices:
        if tree.degree(v.id) < 2:
            problems.append(f"vertex {v.id}: degree {tree.degree(v.id)} < 2")
    return problems


# -- JSON serialization -----------------------------------------------------


def tree_to_json(tree):
    doc = {
        "vertices": [{"id": v.id, "alpha": v.alpha} for v in tree.vertices],
        "edges": [
            {"id": e.id, "from": e.tail, "to": e.head,
             "length": ("inf" if e.is_external else e.length)}
            for e in tree.edges
        ],
        "root": tree.root,
    }
    if tree.build:
        doc["build"] = [
            {"vertex": s.vertex, "attach_on": s.cut_edge, "a": s.a,
             "alpha": s.alpha, "n": len(s.new_edges) + 1,
             "new_edges": list(s.new_edges)}
            for s in tree.build
        ]
    return doc


def tree_from_json(doc):
    vertices = [Vertex(str(v["id"]), float(v["alpha"]))
                for v in doc["vertices"]]
    edges = []
    for e in doc["edges"]:
        head = e.get("to")
        length = e.get("length", "inf")
        if length in ("inf", None) or length == math.inf:
            length = math.inf
            head = None
        edges.append(Edge(str(e["id"]), str(e["from"]),
                          None if head is None else str(head), float(length)))
    build = []
    for s in doc.get("build", []):
        build.append(BuildStep(str(s["vertex"]), str(s["attach_on"]),
                               float(s["a"]), float(s["alpha"]),
                               tuple(str(x) for x in s["new_edges"])))
    return MetricTree(vertices, edges, str(doc["root"]), build)


def load_tree(path):
    with open(path) as fh:
        return tree_from_json(json.load(fh))


def save_tree(tree, path):
    with open(path, "w") as fh:
        json.dump(tree_to_json(tree), fh, indent=2)
        fh.write("\n")
