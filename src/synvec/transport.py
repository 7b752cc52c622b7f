"""Exact solver for the balanced transportation problem.

Network simplex specialized to the dense bipartite graph of m supply rows
and n demand columns. The basis (m + n - 1 cells) is kept as a spanning
tree over the m + n nodes, rooted at row 0, with a parent, depth and child
list per node and one list of node potentials (row potentials u, column
potentials v, with u_i + v_j = cost_ij on every basic cell). Each pass
prices every cell from that list into one (m, n) buffer, allocated once
per solve, and a pivot walks the re-hung subtree once, setting its depths
and shifting its potentials together. The tree is strongly feasible
(Cunningham 1976): every zero-flow basic cell (i, j) has column j as the
parent of row i, so it points towards the root.

- Start: least-cost rule. Cells are visited in order of increasing cost;
  each cell whose row and column still have mass gets min(supply, demand),
  which empties its row or its column, so the positive cells form a
  forest. The tree grows from row 0 over them. Every other component
  hangs by its lowest row, through a zero-flow cell, from the cheapest
  column already in the tree.
- Entering cell: the most negative reduced cost over the whole matrix
  (Dantzig).
- Leaving cell: the cycle is found by walking parents up from the entering
  cell's row and column to their common ancestor, the apex. Of the losing
  cells whose flow runs out first, the last one met when walking the
  cycle from the apex along the entering flow leaves, which keeps the tree
  strongly feasible. The subtree it cuts off is re-hung from the entering
  cell, and only that subtree's potentials shift, by the reduced cost.
- Termination: a pivot that moves mass lowers the total cost. One that
  moves none leaves through a zero-flow cell, which points towards the
  root and so lies on the entering row's side: the re-hung subtree holds
  the entering row, its u fall and its v rise, and sum(u) - sum(v) falls
  strictly. No basis recurs, so degenerate pivots cannot cycle.

The balance check lets the totals differ by 1e-9, so the start may leave
that much mass on one side, and a column whose whole demand fits in it
may get no flow. Such a column hangs from the root as a zero-flow leaf,
the one cell that points away from it. A cycle through the leaf enters at
it, moves no mass and cuts that same cell, so the column stays a leaf and
only its own v falls; the argument above holds for the other nodes. If
row 0 gets no flow, the first row that has some is the root.

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
) -> tuple[np.ndarray, float]:
    """Minimum-cost flow between discrete mass distributions.

    Parameters
    ----------
    supply : (m,) positive masses.
    demand : (n,) positive masses with the same total as ``supply``.
    cost : (m, n) non-negative unit transport costs.
    max_iterations : cap on passes of the pivot loop, by default
        1000 * (m + n) + 10_000; ``TransportSolverError`` when reached.
        Each pass prices every cell and then either pivots or, if no
        reduced cost is below the tolerance, returns: the final optimality
        check is a pass too, so a solve with p pivots takes p + 1 passes.

    Returns
    -------
    (flow, total_cost) where flow is an (m, n) matrix whose row sums equal
    ``supply`` and column sums equal ``demand``.
    """
    supply = np.asarray(supply, dtype=np.float64)
    demand = np.asarray(demand, dtype=np.float64)
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise ValueError(f"cost must be a non-empty 2-D matrix, got shape {cost.shape}")
    m, n = cost.shape
    if supply.shape != (m,) or demand.shape != (n,):
        raise ValueError("supply/demand shapes do not match the cost matrix")
    if not (np.isfinite(supply).all() and np.isfinite(demand).all()
            and np.isfinite(cost).all()):
        raise ValueError("supply, demand and cost entries must be finite")
    if (supply <= 0).any() or (demand <= 0).any():
        raise ValueError("supply and demand masses must be strictly positive")
    if not abs(float(supply.sum()) - float(demand.sum())) <= 1e-9:
        raise ValueError(
            f"unbalanced problem: supply {supply.sum()!r} vs demand {demand.sum()!r}"
        )
    if max_iterations is None:
        max_iterations = 1000 * (m + n) + 10_000
    elif max_iterations < 0:
        raise ValueError(f"max_iterations must be non-negative, got {max_iterations}")

    # Reduced costs below -tol trigger a pivot; relative to the cost scale
    # so exactness does not degrade for very small or very large costs.
    tol = 1e-12 * float(np.abs(cost).max())
    up_flow, parent, depth, children, pot = _least_cost_start(supply, demand, cost)

    reduced = np.empty((m, n))  # (cost_ij - u_i) - v_j, priced in place each pass
    for _ in range(max_iterations):
        u = np.array(pot, dtype=np.float64)
        np.subtract(cost, u[:m, None], out=reduced)
        np.subtract(reduced, u[None, m:], out=reduced)
        k = int(reduced.argmin())
        r = reduced.item(k)
        if not r < -tol:
            flow = np.zeros((m, n))
            for node, up in enumerate(parent):
                if up >= 0:
                    flow[(node, up - m) if node < m else (up, node - m)] = up_flow[node]
            return flow, float((flow * cost).sum())
        row, col = k // n, m + k % n
        row_side, col_side = _paths_to_common_ancestor(parent, depth, row, col)
        # A node on either path stands for the cell joining it to its parent.
        # From each end of the entering cell the cycle's cells alternate
        # -, +, -, ... Walking the cycle from the apex along the entering
        # flow meets the row side top-down, then the column side bottom-up;
        # the last losing cell met among those that run out first leaves.
        losers = row_side[0::2][::-1] + col_side[0::2]
        theta = min(up_flow[x] for x in losers)
        cut = [x for x in losers if up_flow[x] == theta][-1]
        for x in row_side[1::2] + col_side[1::2]:
            up_flow[x] += theta
        for x in losers:
            up_flow[x] -= theta
        # The leaving cell's child node roots the subtree cut off from the
        # root; it holds one end of the entering cell, which becomes its new
        # root. Reversing the path from there up to the cut moves each cell
        # (and its flow) one node along, and the entering cell onto the top.
        top, anchor = (row, col) if cut in row_side else (col, row)
        node, new_parent, carried = top, anchor, theta
        while True:
            old_parent = parent[node]
            children[old_parent].remove(node)
            parent[node] = new_parent
            children[new_parent].append(node)
            up_flow[node], carried = carried, up_flow[node]
            if node == cut:
                break
            node, new_parent = old_parent, node
        # Keep u_i + v_j = cost_ij on the entering cell: the subtree's nodes
        # of the same kind as its new root move by the reduced cost, the
        # others by its negative, which leaves every cell inside it tight.
        rise = r if top < m else -r
        subtree = [top]
        depth[top] = depth[anchor] + 1
        for node in subtree:
            pot[node] += rise if node < m else -rise
            for child in children[node]:
                depth[child] = depth[node] + 1
                subtree.append(child)
    raise TransportSolverError(
        f"no convergence after {max_iterations} iterations on a {m}x{n} problem"
    )


def _least_cost_start(supply, demand, cost):
    """Least-cost rule and a strongly feasible basis tree over its flows.

    Nodes are rows 0..m-1, then columns m..m+n-1. Returns, per node, the
    flow on the cell joining it to its parent, the parent, depth and child
    lists, and potentials: 0 at the root, u_i + v_j = cost[i, j] on every
    basic cell. Each allocation empties its row or its column, so the
    positive cells form a forest.
    """
    m, n = cost.shape
    a = supply.tolist()
    b = demand.tolist()
    neighbours = [[] for _ in range(m + n)]
    rows_left, cols_left = m, n
    order = np.argsort(cost, axis=None, kind="stable")
    for i, j in zip(*(x.tolist() for x in np.divmod(order, n))):
        if a[i] and b[j]:  # both still have mass; none ever falls below 0
            t = min(a[i], b[j])
            neighbours[i].append((m + j, t))
            neighbours[m + j].append((i, t))
            a[i] -= t
            b[j] -= t
            rows_left -= a[i] == 0
            cols_left -= b[j] == 0
            if not (rows_left and cols_left):
                break

    up_flow, pot = [0.0] * (m + n), [0.0] * (m + n)
    parent, depth = [-1] * (m + n), [0] * (m + n)
    children = [[] for _ in range(m + n)]

    def hang(node, up, t):
        """Place node below up by a cell carrying t, then the rest of its
        positive cells' tree below it."""
        queue = [(node, up, t)]
        for node, up, t in queue:
            up_flow[node], parent[node], depth[node] = t, up, depth[up] + 1
            children[up].append(node)
            i, j = (node, up - m) if node < m else (up, node - m)
            pot[node] = cost.item(i, j) - pot[up]
            for other, f in neighbours[node]:
                if other != up:
                    queue.append((other, node, f))

    root = next(i for i in range(m) if neighbours[i])
    for other, t in neighbours[root]:
        hang(other, root, t)
    for x in [x for x in range(m + n) if parent[x] < 0 and x != root]:
        if parent[x] >= 0:
            continue  # placed with an earlier row's component
        if x < m:
            cols = [j for j in range(n) if parent[m + j] >= 0]
            hang(x, m + cols[int(cost[x, cols].argmin())], 0.0)
        else:  # a column with no flow: see the module docstring
            hang(x, root, 0.0)
    return up_flow, parent, depth, children, pot


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
