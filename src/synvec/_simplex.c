/* The least-cost start and the pivot loop of synvec.transport, in C.

   transport.py keeps the same network simplex in Python as its reference
   and fallback, and its module docstring describes the algorithm. This
   file repeats every float operation of that code in the same order, so
   both give the same bits:
   - the start visits the cells in the order of numpy's
     argsort(cost, axis=None, kind="stable"): a stable order is unique,
     by cost and then by flat index, so the radix sort here repeats it
     (-0.0 and +0.0 compare equal in both);
   - a cell is priced as (cost[i, j] - u[i]) - v[j], and the entering cell
     is the first strict minimum in row-major order, as numpy's argmin
     picks it (a NaN, which only an overflow could make, wins at once);
   - the start gives min(a[i], b[j]) to a cell, a[i] on a tie, and hangs
     a row with no flow from the first cheapest column already placed;
   - theta is the first minimum over the losing cells, and the cell that
     leaves is the last loser equal to it, with the row side listed top
     down and then the column side bottom up.
   Build with -ffp-contract=off, so that no subtraction is fused.

   The caller (transport._native_basis) passes C-contiguous arrays: float64
   supply (m), demand (n) and cost (m x n), and int64 parent and float64
   up_flow (m + n) to fill. Nodes are rows 0..m-1, then columns
   m..m+n-1. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

struct tree {
    int64_t m, n;
    const double *cost;
    int64_t *parent, *depth, *first_child, *next_sibling, *prev_sibling;
    double *up_flow, *pot;
    /* The positive cells of the start, as per-node lists in allocation order. */
    int64_t *adj_head, *adj_tail, *adj_next, *adj_node;
    double *adj_flow;
    /* Breadth-first queue, shared by hang and the potential update. */
    int64_t *queue_node, *queue_up;
    double *queue_flow;
};

static void link_child(struct tree *t, int64_t node, int64_t up)
{
    int64_t next = t->first_child[up];
    t->prev_sibling[node] = -1;
    t->next_sibling[node] = next;
    if (next >= 0)
        t->prev_sibling[next] = node;
    t->first_child[up] = node;
}

static void unlink_child(struct tree *t, int64_t node, int64_t up)
{
    int64_t prev = t->prev_sibling[node], next = t->next_sibling[node];
    if (prev >= 0)
        t->next_sibling[prev] = next;
    else
        t->first_child[up] = next;
    if (next >= 0)
        t->prev_sibling[next] = prev;
}

static void add_neighbour(struct tree *t, int64_t slot, int64_t node, int64_t other, double flow)
{
    t->adj_node[slot] = other;
    t->adj_flow[slot] = flow;
    t->adj_next[slot] = -1;
    if (t->adj_tail[node] >= 0)
        t->adj_next[t->adj_tail[node]] = slot;
    else
        t->adj_head[node] = slot;
    t->adj_tail[node] = slot;
}

/* Place node below up by a cell carrying flow, then the rest of its
   positive cells' tree below it. */
static void hang(struct tree *t, int64_t node, int64_t up, double flow)
{
    int64_t m = t->m, n = t->n, size = 1;
    t->queue_node[0] = node;
    t->queue_up[0] = up;
    t->queue_flow[0] = flow;
    for (int64_t head = 0; head < size; head++) {
        node = t->queue_node[head];
        up = t->queue_up[head];
        t->up_flow[node] = t->queue_flow[head];
        t->parent[node] = up;
        t->depth[node] = t->depth[up] + 1;
        link_child(t, node, up);
        int64_t i = node < m ? node : up, j = node < m ? up - m : node - m;
        t->pot[node] = t->cost[i * n + j] - t->pot[up];
        for (int64_t e = t->adj_head[node]; e >= 0; e = t->adj_next[e]) {
            if (t->adj_node[e] != up) {
                t->queue_node[size] = t->adj_node[e];
                t->queue_up[size] = node;
                t->queue_flow[size] = t->adj_flow[e];
                size++;
            }
        }
    }
}

/* The flat indices 0..cells-1 sorted stably by cost, by an LSD radix sort
   of one byte a pass over keys that order as the costs do: the bits of
   cost + 0.0 (which turns -0.0 into +0.0), with every bit flipped for a
   negative cost and the sign bit for any other. Each pass is stable, so
   equal costs keep their index order. Works in the 4 * cells entries of
   buffer and returns the part that holds the result. */
static int64_t *cells_by_cost(const double *cost, int64_t cells, int64_t *buffer)
{
    uint64_t *key = (uint64_t *)buffer, *key_out = key + cells;
    int64_t *index = buffer + 2 * cells, *index_out = buffer + 3 * cells;
    int64_t count[8][257] = {{0}};
    for (int64_t k = 0; k < cells; k++) {
        double c = cost[k] + 0.0;
        uint64_t bits;
        memcpy(&bits, &c, sizeof bits);
        key[k] = bits ^ (bits >> 63 ? ~(uint64_t)0 : (uint64_t)1 << 63);
        index[k] = k;
        for (int byte = 0; byte < 8; byte++)
            count[byte][(key[k] >> 8 * byte & 255) + 1]++;
    }
    for (int byte = 0; byte < 8; byte++) {
        int64_t *start = count[byte];
        if (start[(key[0] >> 8 * byte & 255) + 1] == cells)
            continue;  /* every key has this byte: the pass would keep the order */
        for (int digit = 0; digit < 256; digit++)
            start[digit + 1] += start[digit];
        for (int64_t k = 0; k < cells; k++) {
            int64_t to = start[key[k] >> 8 * byte & 255]++;
            key_out[to] = key[k];
            index_out[to] = index[k];
        }
        uint64_t *swap_key = key;
        key = key_out;
        key_out = swap_key;
        int64_t *swap_index = index;
        index = index_out;
        index_out = swap_index;
    }
    return index;
}

static void least_cost_start(struct tree *t, const double *supply, const double *demand,
                             const int64_t *order, double *a, double *b)
{
    int64_t m = t->m, n = t->n, nodes = m + n, slots = 0;
    int64_t rows_left = m, cols_left = n;
    for (int64_t x = 0; x < nodes; x++) {
        t->adj_head[x] = t->adj_tail[x] = -1;
        t->parent[x] = t->first_child[x] = -1;
        t->depth[x] = 0;
        t->up_flow[x] = t->pot[x] = 0.0;
    }
    for (int64_t i = 0; i < m; i++)
        a[i] = supply[i];
    for (int64_t j = 0; j < n; j++)
        b[j] = demand[j];
    for (int64_t k = 0; k < m * n; k++) {
        int64_t i = order[k] / n, j = order[k] % n;
        if (a[i] != 0.0 && b[j] != 0.0) {
            double f = b[j] < a[i] ? b[j] : a[i];
            add_neighbour(t, slots++, i, m + j, f);
            add_neighbour(t, slots++, m + j, i, f);
            a[i] -= f;
            b[j] -= f;
            rows_left -= a[i] == 0.0;
            cols_left -= b[j] == 0.0;
            if (!(rows_left && cols_left))
                break;
        }
    }

    int64_t root = 0;
    while (t->adj_head[root] < 0)
        root++;
    for (int64_t e = t->adj_head[root]; e >= 0; e = t->adj_next[e])
        hang(t, t->adj_node[e], root, t->adj_flow[e]);
    for (int64_t x = 0; x < nodes; x++) {
        if (t->parent[x] >= 0 || x == root)
            continue;
        if (x < m) {
            const double *row = t->cost + x * n;
            int64_t best = -1;
            for (int64_t j = 0; j < n; j++)
                if (t->parent[m + j] >= 0 && (best < 0 || row[j] < row[best]))
                    best = j;
            hang(t, x, m + best, 0.0);
        } else {  /* a column with no flow: see transport.py's docstring */
            hang(t, x, root, 0.0);
        }
    }
}

/* Returns 0 at an optimum, 1 when max_passes passes found none, -1 when
   out of memory. */
int synvec_transport_basis(int64_t m, int64_t n, const double *supply, const double *demand,
                           const double *cost, double tol, int64_t max_passes,
                           int64_t *parent, double *up_flow)
{
    int64_t nodes = m + n;
    int64_t *ints = malloc(15 * nodes * sizeof *ints);
    double *reals = malloc(6 * nodes * sizeof *reals);
    int64_t *sorted = malloc(4 * m * n * sizeof *sorted);
    if (ints == NULL || reals == NULL || sorted == NULL) {
        free(ints);
        free(reals);
        free(sorted);
        return -1;
    }
    struct tree t = {
        .m = m, .n = n, .cost = cost, .parent = parent, .up_flow = up_flow,
        .depth = ints, .first_child = ints + nodes, .next_sibling = ints + 2 * nodes,
        .prev_sibling = ints + 3 * nodes, .adj_head = ints + 4 * nodes,
        .adj_tail = ints + 5 * nodes, .adj_next = ints + 6 * nodes,
        .adj_node = ints + 8 * nodes, .queue_node = ints + 10 * nodes,
        .queue_up = ints + 11 * nodes,
        .pot = reals, .adj_flow = reals + nodes, .queue_flow = reals + 3 * nodes,
    };
    int64_t *from_row = ints + 12 * nodes, *from_col = ints + 13 * nodes;
    int64_t *losers = ints + 14 * nodes;
    least_cost_start(&t, supply, demand, cells_by_cost(cost, m * n, sorted),
                     reals + 4 * nodes, reals + 5 * nodes);
    free(sorted);

    int status = 1;
    for (int64_t pass = 0; pass < max_passes; pass++) {
        const double *u = t.pot, *v = t.pot + m;
        double r = (cost[0] - u[0]) - v[0];
        int64_t k = 0;
        if (r == r) {
            for (int64_t i = 0; i < m; i++) {
                const double *row = cost + i * n;
                for (int64_t j = 0; j < n; j++) {
                    double x = (row[j] - u[i]) - v[j];
                    if (!(x >= r)) {
                        r = x;
                        k = i * n + j;
                        if (x != x)
                            goto priced;
                    }
                }
            }
        }
    priced:
        if (!(r < -tol)) {
            status = 0;
            break;
        }
        int64_t row = k / n, col = m + k % n;

        /* The tree paths from the entering cell's row and column up to
           their common ancestor; a node stands for the cell joining it to
           its parent. */
        int64_t a = row, b = col, n_row = 0, n_col = 0;
        while (t.depth[a] > t.depth[b]) {
            from_row[n_row++] = a;
            a = parent[a];
        }
        while (t.depth[b] > t.depth[a]) {
            from_col[n_col++] = b;
            b = parent[b];
        }
        while (a != b) {
            from_row[n_row++] = a;
            from_col[n_col++] = b;
            a = parent[a];
            b = parent[b];
        }
        int64_t row_losers = (n_row + 1) / 2, n_losers = 0;
        for (int64_t c = row_losers - 1; c >= 0; c--)
            losers[n_losers++] = from_row[2 * c];
        for (int64_t c = 0; c < n_col; c += 2)
            losers[n_losers++] = from_col[c];
        double theta = up_flow[losers[0]];
        for (int64_t c = 1; c < n_losers; c++)
            if (up_flow[losers[c]] < theta)
                theta = up_flow[losers[c]];
        int64_t last = n_losers - 1;
        while (up_flow[losers[last]] != theta)
            last--;
        int64_t cut = losers[last];
        for (int64_t c = 1; c < n_row; c += 2)
            up_flow[from_row[c]] += theta;
        for (int64_t c = 1; c < n_col; c += 2)
            up_flow[from_col[c]] += theta;
        for (int64_t c = 0; c < n_losers; c++)
            up_flow[losers[c]] -= theta;

        /* Re-hang the cut-off subtree from the entering cell, moving each
           cell on the path and its flow one node along. */
        int64_t top = last < row_losers ? row : col, anchor = last < row_losers ? col : row;
        int64_t node = top, new_parent = anchor;
        double carried = theta;
        for (;;) {
            int64_t old_parent = parent[node];
            unlink_child(&t, node, old_parent);
            parent[node] = new_parent;
            link_child(&t, node, new_parent);
            double f = up_flow[node];
            up_flow[node] = carried;
            carried = f;
            if (node == cut)
                break;
            new_parent = node;
            node = old_parent;
        }

        double rise = top < m ? r : -r;
        int64_t size = 1;
        t.queue_node[0] = top;
        t.depth[top] = t.depth[anchor] + 1;
        for (int64_t head = 0; head < size; head++) {
            node = t.queue_node[head];
            t.pot[node] += node < m ? rise : -rise;
            for (int64_t child = t.first_child[node]; child >= 0; child = t.next_sibling[child]) {
                t.depth[child] = t.depth[node] + 1;
                t.queue_node[size++] = child;
            }
        }
    }
    free(ints);
    free(reals);
    return status;
}
