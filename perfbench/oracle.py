"""Independent answers for the benchmark's correctness checks.

Nothing here calls hgfactor: graphs are read as plain data (vertex count
plus (kind, vertices, colour) edge triples) and every test is written out
by hand, so a defect in the library cannot also hide in its check.
"""

from __future__ import annotations

import itertools


def edge_set(g) -> set:
    """(kind, vertices, colour) triples of a hypergraph's edges; unordered
    edges have their vertices sorted."""
    out = set()
    for e in g.edges:
        verts = tuple(e.vertices)
        if e.kind.value == "UNORDERED":
            verts = tuple(sorted(verts))
        out.add((e.kind.value, verts, e.colour))
    return out


def _relabel(edges, mapping) -> set:
    out = set()
    for kind, verts, colour in edges:
        new = tuple(mapping[v] for v in verts)
        out.add((kind, tuple(sorted(new)) if kind == "UNORDERED" else new, colour))
    return out


def induced_edges(edges, subset) -> set:
    """Edges inside subset, relabelled to 0..k-1 in ascending vertex order."""
    pos = {v: i for i, v in enumerate(sorted(subset))}
    return _relabel([e for e in edges if all(v in pos for v in e[1])], pos)


def two_colouring(n: int, edges) -> list | None:
    """A proper 2-colouring of a graph with binary edges, by breadth-first
    search, or None when an odd cycle exists."""
    adj = [[] for _ in range(n)]
    for _, (a, b), _ in edges:
        adj[a].append(b)
        adj[b].append(a)
    colour = [-1] * n
    for start in range(n):
        if colour[start] >= 0:
            continue
        colour[start] = 0
        queue = [start]
        for v in queue:
            for w in adj[v]:
                if colour[w] < 0:
                    colour[w] = 1 - colour[v]
                    queue.append(w)
                elif colour[w] == colour[v]:
                    return None
    return colour


def connected(n: int, edges, subset=None) -> bool:
    verts = set(range(n) if subset is None else subset)
    if not verts:
        return False
    start = min(verts)
    seen = {start}
    queue = [start]
    for v in queue:
        for _, vs, _ in edges:
            if v in vs and all(w in verts for w in vs):
                for w in vs:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
    return seen == verts


def triangle_free(n: int, edges) -> bool:
    pairs = {frozenset(vs) for _, vs, _ in edges}
    return not any({frozenset((a, b)), frozenset((a, c)), frozenset((b, c))} <= pairs
                   for a, b, c in itertools.combinations(range(n), 3))


def independent(edges, block) -> bool:
    return not any(all(v in block for v in vs) for _, vs, _ in edges)


def is_induced_embedding(f_edges, f_n: int, g_edges, g_n: int, mapping) -> bool:
    """Is mapping (f vertex -> g vertex) injective, in range, and such that
    the edges of g inside its image are exactly the images of f's edges?"""
    if len(mapping) != f_n or len(set(mapping)) != f_n:
        return False
    if any(not 0 <= w < g_n for w in mapping):
        return False
    image = set(mapping)
    inside = {e for e in g_edges if all(v in image for v in e[1])}
    return _relabel(f_edges, mapping) == inside


def dec_witness_error(witness, forbidden_edges, forbidden_n: int, parts_edges,
                      parts_sizes) -> str | None:
    """Re-check a join-refutation certificate; None when it holds.

    The certificate claims a forbidden graph F splits across the parts so
    that every connected component of every slice embeds induced into its
    part.  Checked: F is the expected forbidden graph; the split covers
    F's vertices once; each recorded component is connected in F, lies in
    one slice, and no F edge joins two components of the same slice; the
    recorded map of each component is an induced embedding into its part.
    """
    f = witness.forbidden
    if f.n != forbidden_n or edge_set(f) != forbidden_edges:
        return "witness names an unexpected forbidden graph"
    split = [tuple(s) for s in witness.split]
    if len(split) != len(parts_edges):
        return "split has the wrong number of slices"
    if sorted(v for s in split for v in s) != list(range(f.n)):
        return "split does not cover the forbidden graph once"
    comp_of = {}
    for idx, rec in enumerate(witness.components):
        i, comp = rec.part_index, tuple(rec.component)
        if not 0 <= i < len(split) or not set(comp) <= set(split[i]):
            return "component outside its slice"
        if any(v in comp_of for v in comp):
            return "components overlap"
        comp_of.update((v, (i, idx)) for v in comp)
        if not connected(f.n, forbidden_edges, comp):
            return "recorded component is not connected"
        sub = induced_edges(forbidden_edges, comp)
        if not is_induced_embedding(sub, len(comp), parts_edges[i], parts_sizes[i],
                                    tuple(rec.embedding.mapping)):
            return f"component {comp} does not embed induced into part {i}"
    if len(comp_of) != f.n:
        return "components do not cover the forbidden graph"
    for _, vs, _ in forbidden_edges:
        slices = {comp_of[v][0] for v in vs}
        if len(slices) == 1 and len({comp_of[v] for v in vs}) > 1:
            return "an edge joins two components of one slice"
    return None
