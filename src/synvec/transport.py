"""Exact solver for the balanced transportation problem.

Network simplex specialized to the dense bipartite graph of m supply rows
and n demand columns. The basis (m + n - 1 cells) is kept as a spanning
tree over the m + n nodes, rooted at row 0, with a parent, depth and child
list per node and one vector of node potentials (row potentials u, column
potentials v, with u_i + v_j = cost_ij on every basic cell).

- Start: least-cost rule. Cells are visited in order of increasing cost;
  each open cell whose row and column still have mass gets min(supply,
  demand) and closes exactly one of its two lines, so the start is a basic
  feasible solution whose cells form a spanning tree.
- Entering cell: normally the most negative reduced cost over the whole
  matrix (Dantzig). After more than ``stall_limit`` degenerate pivots in a
  row the solver switches to Bland's rule (lowest-index entering and
  leaving cells), whose anti-cycling guarantee makes termination certain.
- Pivot: the cycle the entering cell closes is found by walking parents
  up from its row and its column to their common ancestor. The leaving
  cell is cut, the subtree it separates from the root is re-hung from the
  entering cell, and only that subtree's potentials shift, by the entering
  reduced cost.

Supplies, demands and costs must be finite. The solver either returns an
exact optimum or raises; it never silently returns a suboptimal plan.
"""

from __future__ import annotations

import numpy as np


class TransportSolverError(RuntimeError):
    """The solver failed to converge (iteration cap exceeded)."""


def solve_transport(
    supply: np.ndarray,
    demand: np.ndarray,
    cost: np.ndarray,
    max_iterations: int | None = None,
    stall_limit: int | None = None,
) -> tuple[np.ndarray, float]:
    """Minimum-cost flow between discrete mass distributions.

    Parameters
    ----------
    supply : (m,) positive masses.
    demand : (n,) positive masses with the same total as ``supply``.
    cost : (m, n) non-negative unit transport costs.

    Returns
    -------
    (flow, total_cost) where flow is an (m, n) matrix whose row sums equal
    ``supply`` and column sums equal ``demand``.
    """
    supply = np.asarray(supply, dtype=np.float64)
    demand = np.asarray(demand, dtype=np.float64)
    cost = np.asarray(cost, dtype=np.float64)
    m, n = cost.shape
    if supply.shape != (m,) or demand.shape != (n,):
        raise ValueError("supply/demand shapes do not match the cost matrix")
    if not (np.isfinite(supply).all() and np.isfinite(demand).all()
            and np.isfinite(cost).all()):
        raise ValueError("supply, demand and cost entries must be finite")
    if (supply <= 0).any() or (demand <= 0).any():
        raise ValueError("supply and demand masses must be strictly positive")
    if not np.isclose(supply.sum(), demand.sum(), rtol=0, atol=1e-9):
        raise ValueError(
            f"unbalanced problem: supply {supply.sum()!r} vs demand {demand.sum()!r}"
        )

    flow, cells = _least_cost_start(supply, demand, cost)
    parent, depth, children, pot = _spanning_tree(cells, cost, m, n)
    # +1 on row nodes, -1 on column nodes: the sign of a subtree's shift.
    side = np.concatenate([np.ones(m), -np.ones(n)])
    # Reduced costs below -tol trigger a pivot; relative to the cost scale
    # so exactness does not degrade for very small or very large costs.
    tol = 1e-12 * float(np.abs(cost).max())
    if max_iterations is None:
        max_iterations = 1000 * (m + n) + 10_000
    if stall_limit is None:
        stall_limit = m + n + 16  # degenerate pivots tolerated before Bland's rule
    stalled = 0

    def cell(node):
        """Basic cell joining a non-root node to its parent."""
        return (node, parent[node] - m) if node < m else (parent[node], node - m)

    for _ in range(max_iterations):
        reduced = cost - pot[:m, None] - pot[None, m:]
        if stalled <= stall_limit:
            entering = _dantzig_entering(reduced, -tol)
        else:
            entering = _bland_entering(reduced, -tol)
        if entering is None:
            total = float((flow * cost).sum())
            return flow, total
        row, col = entering[0], m + entering[1]
        row_side, col_side = _paths_to_common_ancestor(parent, depth, row, col)
        # From each end of the entering cell the cycle's cells alternate
        # -, +, -, ...; the tightest losing cell (lowest index on ties) leaves.
        losers = [cell(x) for x in row_side[0::2] + col_side[0::2]]
        gainers = [cell(x) for x in row_side[1::2] + col_side[1::2]]
        theta = min(flow[c] for c in losers)
        leaving = min(c for c in losers if flow[c] == theta)
        for c in gainers:
            flow[c] += theta
        for c in losers:
            flow[c] -= theta
        flow[entering] = theta
        stalled = 0 if theta > 0.0 else stalled + 1

        # The leaving cell's child node roots the subtree cut off from row 0;
        # it holds one end of the entering cell, which becomes its new root.
        cut = leaving[0] if parent[leaving[0]] == m + leaving[1] else m + leaving[1]
        top, anchor = (row, col) if cut in row_side else (col, row)
        node, new_parent = top, anchor
        while True:
            old_parent = parent[node]
            children[old_parent].remove(node)
            parent[node] = new_parent
            children[new_parent].append(node)
            if node == cut:
                break
            node, new_parent = old_parent, node
        subtree = [top]
        depth[top] = depth[anchor] + 1
        for node in subtree:
            for child in children[node]:
                depth[child] = depth[node] + 1
                subtree.append(child)
        # Keep u_i + v_j = cost_ij on the entering cell: the subtree's nodes
        # of the same kind as its new root move by the reduced cost, the
        # others by its negative, which leaves every cell inside it tight.
        shift = reduced[entering] if top < m else -reduced[entering]
        pot[subtree] += shift * side[subtree]
    raise TransportSolverError(
        f"no convergence after {max_iterations} pivots on a {m}x{n} problem"
    )


def _least_cost_start(supply, demand, cost):
    """Basic feasible solution from the least-cost rule: m + n - 1 cells.

    Each allocation closes exactly one line (its row or its column), the
    last one both, so the cells form a spanning tree even when a row and a
    column run out together; the line left open then carries a zero-flow
    basic cell.
    """
    m, n = cost.shape
    a = supply.tolist()
    b = demand.tolist()
    flow = np.zeros((m, n))
    cells = []
    row_open = [True] * m
    col_open = [True] * n
    rows_left, cols_left = m, n
    order = np.argsort(cost, axis=None, kind="stable")
    for i, j in zip(*(x.tolist() for x in np.divmod(order, n))):
        if not (row_open[i] and col_open[j]):
            continue
        t = min(a[i], b[j])
        flow[i, j] = t
        cells.append((i, j))
        if rows_left == 1 and cols_left == 1:
            break
        if rows_left > 1 and (a[i] <= b[j] or cols_left == 1):
            row_open[i] = False
            rows_left -= 1
        else:
            col_open[j] = False
            cols_left -= 1
        a[i] -= t
        b[j] -= t
    return flow, cells


def _spanning_tree(cells, cost, m, n):
    """Parent, depth, child lists and potentials of the basis tree.

    Nodes are rows 0..m-1 and columns m..m+n-1; the root is row 0 with
    potential 0, and every basic cell (i, j) gets u_i + v_j = cost[i, j].
    """
    neighbours = [[] for _ in range(m + n)]
    for i, j in cells:
        neighbours[i].append(m + j)
        neighbours[m + j].append(i)
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    children = [[] for _ in range(m + n)]
    pot = np.zeros(m + n)
    order = [0]
    for node in order:
        for other in neighbours[node]:
            if other == parent[node]:
                continue
            parent[other] = node
            depth[other] = depth[node] + 1
            children[node].append(other)
            i, j = (node, other - m) if node < m else (other, node - m)
            pot[other] = cost[i, j] - pot[node]
            order.append(other)
    return parent, depth, children, pot


def _paths_to_common_ancestor(parent, depth, a, b):
    """Nodes on the tree paths from a and from b up to (not including)
    their common ancestor, each listed from its own end upwards."""
    from_a, from_b = [], []
    while depth[a] > depth[b]:
        from_a.append(a)
        a = parent[a]
    while depth[b] > depth[a]:
        from_b.append(b)
        b = parent[b]
    while a != b:
        from_a.append(a)
        from_b.append(b)
        a = parent[a]
        b = parent[b]
    return from_a, from_b


def _dantzig_entering(reduced, threshold):
    """Cell with the most negative reduced cost, or None at optimality."""
    flat = int(reduced.argmin())
    cell = divmod(flat, reduced.shape[1])
    return cell if reduced[cell] < threshold else None


def _bland_entering(reduced, threshold):
    """Lowest-index (row-major) cell with reduced cost below threshold.

    Slower than the Dantzig rule but immune to cycling; used to escape
    runs of degenerate pivots.
    """
    mask = reduced < threshold
    if not mask.any():
        return None
    flat = int(np.flatnonzero(mask.ravel())[0])
    return divmod(flat, reduced.shape[1])
