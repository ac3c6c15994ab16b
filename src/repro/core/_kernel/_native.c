/* Native metric kernel: fused distance-limited Dijkstra + first-violation
 * scan for the Algorithm-2 hot loop.
 *
 * One call answers "what is the first violated spreading constraint
 * anchored at this source?" exactly like the scipy engines, but fused:
 * the Dijkstra, the (distance, id)-ordered prefix scan against g, and
 * the canonical-parent tree extraction all happen in one pass with zero
 * allocation, and the search stops the moment the first violation is
 * found instead of settling the whole distance-limited ball.
 *
 * Bit-identity contract (asserted by tests/test_native_kernel.py and the
 * differential fuzzer):
 *
 * - Distances are heap-order independent: relaxation takes the float64
 *   minimum of left-to-right path sums, so any correct Dijkstra over the
 *   same CSR produces the same dist array as scipy's.
 * - Settle order within one distance value is heap dependent, so popped
 *   nodes are buffered per distance *plateau* and flushed in node-id
 *   order once a strictly larger key pops — the flushed stream is
 *   exactly numpy's stable argsort order over (distance, id).
 * - The running sums replicate numpy's cumsum addition for addition, and
 *   g is evaluated with the same per-level expression and accumulation
 *   order as repro.core.gfunc.spreading_bound_array (unit-size instances
 *   use the precomputed bound table passed in from Python verbatim).
 * - Tree edges come from canonical parents (min (dist[v], v) among
 *   neighbours with dist[v] + d(v,w) == dist[w], exact float64), the
 *   same rule as SpreadingOracle._canonical_tree_edges.
 *
 * Robustness: the kernel reads a CSR data array it does not own, so it
 * must never crash or loop on garbage lengths (negative, NaN, inf): the
 * heap is capacity-bounded, NaN relaxations are rejected by the
 * `nd <= limit` filter, settled nodes never resettle, and a
 * canonical-parent miss (impossible on consistent data) degrades to a
 * structurally valid placeholder.
 */
#define PY_SSIZE_T_CLEAN
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <Python.h>
#include <numpy/arrayobject.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    npy_int64 n;            /* number of nodes */
    npy_int64 nnz;          /* CSR entries (2 per undirected edge) */
    const npy_int64 *indptr;     /* n + 1 */
    const npy_int64 *indices;    /* nnz */
    const npy_int64 *entry_edge; /* nnz: data position -> edge id */
    const double *sizes;         /* n, NULL for unit sizes */
    const double *unit_bounds;   /* n (g(1..n)), NULL unless unit sizes */
    const double *caps;          /* num_levels + 1 */
    const double *weights;       /* num_levels */
    npy_int64 num_levels;
    double leaf_capacity;   /* caps[0]: g == 0 at or below this */
    double limit;           /* exactness radius 2W */
    double tol;
    /* epoch-stamped workspaces: no O(n) clearing between calls */
    double *dist;           /* n */
    npy_int64 *seen;        /* n: epoch when dist[v] became valid */
    npy_int64 *done;        /* n: epoch when v settled */
    npy_int64 *order;       /* n: settled nodes in (dist, id) order */
    npy_int64 *plateau;     /* n: popped-but-unflushed equal-dist nodes */
    double *heap_key;       /* heap capacity nnz + 2 */
    npy_int64 *heap_node;
    npy_int64 heap_cap;
    npy_int64 epoch;
} KernelState;

static void
kernel_state_free(PyObject *capsule)
{
    KernelState *st = (KernelState *)PyCapsule_GetPointer(capsule, "repro._kernel");
    if (st == NULL) {
        PyErr_Clear();
        return;
    }
    free(st->dist);
    free(st->seen);
    free(st->done);
    free(st->order);
    free(st->plateau);
    free(st->heap_key);
    free(st->heap_node);
    free(st);
}

/* ---------------------------------------------------------------- heap */

static inline void
heap_push(KernelState *st, npy_int64 *size, double key, npy_int64 node)
{
    if (*size >= st->heap_cap) {
        return; /* only reachable on corrupted data; verdicts discarded */
    }
    npy_int64 i = (*size)++;
    while (i > 0) {
        npy_int64 parent = (i - 1) / 2;
        double pk = st->heap_key[parent];
        npy_int64 pn = st->heap_node[parent];
        if (pk < key || (pk == key && pn <= node)) {
            break;
        }
        st->heap_key[i] = pk;
        st->heap_node[i] = pn;
        i = parent;
    }
    st->heap_key[i] = key;
    st->heap_node[i] = node;
}

static inline void
heap_pop(KernelState *st, npy_int64 *size, double *key, npy_int64 *node)
{
    *key = st->heap_key[0];
    *node = st->heap_node[0];
    npy_int64 last = --(*size);
    double lk = st->heap_key[last];
    npy_int64 ln = st->heap_node[last];
    npy_int64 i = 0;
    for (;;) {
        npy_int64 left = 2 * i + 1;
        if (left >= last) {
            break;
        }
        npy_int64 child = left;
        npy_int64 right = left + 1;
        if (right < last &&
            (st->heap_key[right] < st->heap_key[left] ||
             (st->heap_key[right] == st->heap_key[left] &&
              st->heap_node[right] < st->heap_node[left]))) {
            child = right;
        }
        if (lk < st->heap_key[child] ||
            (lk == st->heap_key[child] && ln <= st->heap_node[child])) {
            break;
        }
        st->heap_key[i] = st->heap_key[child];
        st->heap_node[i] = st->heap_node[child];
        i = child;
    }
    st->heap_key[i] = lk;
    st->heap_node[i] = ln;
}

/* ------------------------------------------------------------ helpers */

/* Ascending insertion sort; plateaus are tiny in practice (ties require
 * exactly equal float64 distances). */
static void
sort_int64(npy_int64 *arr, npy_int64 len)
{
    for (npy_int64 i = 1; i < len; i++) {
        npy_int64 key = arr[i];
        npy_int64 j = i - 1;
        while (j >= 0 && arr[j] > key) {
            arr[j + 1] = arr[j];
            j--;
        }
        arr[j + 1] = key;
    }
}

/* g(x): must replicate spreading_bound_array term by term — the per-level
 * expression is (2.0 * overshoot) * weights[i], accumulated in level
 * order (numpy's `result += np.where(overshoot > 0, ...)`; adding the
 * where's 0.0 branch is a bitwise no-op on a nonnegative accumulator). */
static inline double
g_eval(const KernelState *st, double x)
{
    double result = 0.0;
    for (npy_int64 i = 0; i < st->num_levels; i++) {
        double overshoot = x - st->caps[i];
        if (overshoot > 0.0) {
            result += (2.0 * overshoot) * st->weights[i];
        }
    }
    return result;
}

/* --------------------------------------------------------------- init */

static int
check_array(PyObject *obj, int typenum, npy_int64 expected_len, const char *name)
{
    if (!PyArray_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "%s must be a numpy array", name);
        return 0;
    }
    PyArrayObject *arr = (PyArrayObject *)obj;
    if (PyArray_TYPE(arr) != typenum || !PyArray_IS_C_CONTIGUOUS(arr) ||
        PyArray_NDIM(arr) != 1) {
        PyErr_Format(PyExc_TypeError,
                     "%s must be a C-contiguous 1-D array of the expected dtype",
                     name);
        return 0;
    }
    if (expected_len >= 0 && PyArray_DIM(arr, 0) != expected_len) {
        PyErr_Format(PyExc_ValueError, "%s has wrong length", name);
        return 0;
    }
    return 1;
}

static PyObject *
kernel_init(PyObject *Py_UNUSED(self), PyObject *args)
{
    long long n_arg, num_levels_arg;
    PyObject *indptr, *indices, *entry_edge, *sizes, *unit_bounds;
    PyObject *caps, *weights;
    double limit, tol;

    if (!PyArg_ParseTuple(args, "LOOOOOOOLdd", &n_arg, &indptr, &indices,
                          &entry_edge, &sizes, &unit_bounds, &caps, &weights,
                          &num_levels_arg, &limit, &tol)) {
        return NULL;
    }
    npy_int64 n = (npy_int64)n_arg;
    npy_int64 num_levels = (npy_int64)num_levels_arg;
    if (n <= 0) {
        PyErr_SetString(PyExc_ValueError, "need at least one node");
        return NULL;
    }
    if (!check_array(indptr, NPY_INT64, n + 1, "indptr")) {
        return NULL;
    }
    npy_int64 nnz = ((npy_int64 *)PyArray_DATA((PyArrayObject *)indptr))[n];
    if (nnz < 0) {
        PyErr_SetString(PyExc_ValueError, "negative nnz");
        return NULL;
    }
    if (!check_array(indices, NPY_INT64, nnz, "indices") ||
        !check_array(entry_edge, NPY_INT64, nnz, "entry_edge") ||
        !check_array(caps, NPY_FLOAT64, num_levels + 1, "capacities") ||
        !check_array(weights, NPY_FLOAT64, num_levels, "weights")) {
        return NULL;
    }
    if (sizes != Py_None && !check_array(sizes, NPY_FLOAT64, n, "sizes")) {
        return NULL;
    }
    if (unit_bounds != Py_None &&
        !check_array(unit_bounds, NPY_FLOAT64, n, "unit_bounds")) {
        return NULL;
    }
    if ((sizes == Py_None) == (unit_bounds == Py_None)) {
        PyErr_SetString(PyExc_ValueError,
                        "exactly one of sizes / unit_bounds must be given");
        return NULL;
    }

    KernelState *st = (KernelState *)calloc(1, sizeof(KernelState));
    if (st == NULL) {
        return PyErr_NoMemory();
    }
    st->n = n;
    st->nnz = nnz;
    st->indptr = (const npy_int64 *)PyArray_DATA((PyArrayObject *)indptr);
    st->indices = (const npy_int64 *)PyArray_DATA((PyArrayObject *)indices);
    st->entry_edge = (const npy_int64 *)PyArray_DATA((PyArrayObject *)entry_edge);
    st->sizes = sizes == Py_None
                    ? NULL
                    : (const double *)PyArray_DATA((PyArrayObject *)sizes);
    st->unit_bounds = unit_bounds == Py_None
                          ? NULL
                          : (const double *)PyArray_DATA((PyArrayObject *)unit_bounds);
    st->caps = (const double *)PyArray_DATA((PyArrayObject *)caps);
    st->weights = (const double *)PyArray_DATA((PyArrayObject *)weights);
    st->num_levels = num_levels;
    st->leaf_capacity = st->caps[0];
    st->limit = limit;
    st->tol = tol;
    st->heap_cap = nnz + 2;
    st->dist = (double *)malloc(sizeof(double) * (size_t)n);
    st->seen = (npy_int64 *)calloc((size_t)n, sizeof(npy_int64));
    st->done = (npy_int64 *)calloc((size_t)n, sizeof(npy_int64));
    st->order = (npy_int64 *)malloc(sizeof(npy_int64) * (size_t)n);
    st->plateau = (npy_int64 *)malloc(sizeof(npy_int64) * (size_t)n);
    st->heap_key = (double *)malloc(sizeof(double) * (size_t)st->heap_cap);
    st->heap_node = (npy_int64 *)malloc(sizeof(npy_int64) * (size_t)st->heap_cap);
    st->epoch = 0;
    if (st->dist == NULL || st->seen == NULL || st->done == NULL ||
        st->order == NULL || st->plateau == NULL || st->heap_key == NULL ||
        st->heap_node == NULL) {
        PyObject *capsule_tmp = PyCapsule_New(st, "repro._kernel", kernel_state_free);
        if (capsule_tmp != NULL) {
            Py_DECREF(capsule_tmp);
        }
        return PyErr_NoMemory();
    }
    return PyCapsule_New(st, "repro._kernel", kernel_state_free);
}

/* -------------------------------------------------------------- check */

/* Flush one completed plateau through the violation scan.  Returns 1
 * when the first violation was found (outputs set), 0 otherwise. */
static inline int
scan_plateau(KernelState *st, npy_int64 plateau_len, npy_int64 *settled,
             double *cum_size, double *lhs, npy_int64 *viol_k,
             double *viol_lhs, double *viol_rhs)
{
    sort_int64(st->plateau, plateau_len);
    for (npy_int64 p = 0; p < plateau_len; p++) {
        npy_int64 w = st->plateau[p];
        st->order[(*settled)++] = w;
        double rhs;
        if (st->sizes == NULL) {
            *lhs += st->dist[w];
            rhs = st->unit_bounds[*settled - 1];
        } else {
            double size = st->sizes[w];
            *cum_size += size;
            *lhs += size * st->dist[w];
            if (*cum_size <= st->leaf_capacity) {
                continue; /* g = 0: trivially satisfied */
            }
            rhs = g_eval(st, *cum_size);
        }
        if (rhs - *lhs > st->tol) {
            *viol_k = *settled;
            *viol_lhs = *lhs;
            *viol_rhs = rhs;
            return 1;
        }
    }
    return 0;
}

static PyObject *
kernel_check(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *capsule, *data_obj;
    long long source_arg;
    if (!PyArg_ParseTuple(args, "OOL", &capsule, &data_obj, &source_arg)) {
        return NULL;
    }
    KernelState *st = (KernelState *)PyCapsule_GetPointer(capsule, "repro._kernel");
    if (st == NULL) {
        return NULL;
    }
    if (!check_array(data_obj, NPY_FLOAT64, st->nnz, "data")) {
        return NULL;
    }
    const double *data = (const double *)PyArray_DATA((PyArrayObject *)data_obj);
    npy_int64 source = (npy_int64)source_arg;
    if (source < 0 || source >= st->n) {
        PyErr_SetString(PyExc_ValueError, "source out of range");
        return NULL;
    }

    st->epoch++;
    npy_int64 epoch = st->epoch;
    npy_int64 heap_size = 0;
    npy_int64 settled = 0;
    npy_int64 plateau_len = 0;
    double plateau_d = 0.0;
    double cum_size = 0.0;
    double lhs = 0.0;
    npy_int64 viol_k = -1;
    double viol_lhs = 0.0, viol_rhs = 0.0;

    st->dist[source] = 0.0;
    st->seen[source] = epoch;
    heap_push(st, &heap_size, 0.0, source);

    while (heap_size > 0) {
        double d;
        npy_int64 v;
        heap_pop(st, &heap_size, &d, &v);
        if (st->done[v] == epoch) {
            continue; /* lazy-deleted duplicate */
        }
        if (st->seen[v] != epoch || d != st->dist[v]) {
            continue; /* stale entry */
        }
        if (d > st->limit) {
            break; /* scipy's limit= keeps dist == limit, drops beyond */
        }
        if (plateau_len > 0 && d > plateau_d) {
            if (scan_plateau(st, plateau_len, &settled, &cum_size, &lhs,
                             &viol_k, &viol_lhs, &viol_rhs)) {
                break; /* first violation: stop searching immediately */
            }
            plateau_len = 0;
        }
        st->done[v] = epoch;
        st->plateau[plateau_len++] = v;
        plateau_d = d;
        npy_int64 hi = st->indptr[v + 1];
        for (npy_int64 pos = st->indptr[v]; pos < hi; pos++) {
            npy_int64 w = st->indices[pos];
            double nd = d + data[pos];
            if (!(nd <= st->limit)) {
                continue; /* beyond the radius; also rejects NaN */
            }
            if (st->seen[w] == epoch) {
                if (st->done[w] == epoch) {
                    continue;
                }
                if (nd < st->dist[w]) {
                    st->dist[w] = nd;
                    heap_push(st, &heap_size, nd, w);
                }
            } else {
                st->seen[w] = epoch;
                st->dist[w] = nd;
                heap_push(st, &heap_size, nd, w);
            }
        }
    }
    if (viol_k < 0 && plateau_len > 0) {
        scan_plateau(st, plateau_len, &settled, &cum_size, &lhs, &viol_k,
                     &viol_lhs, &viol_rhs);
    }

    if (viol_k < 0) {
        return Py_BuildValue("LiOOdd", (long long)settled, 0, Py_None,
                             Py_None, 0.0, 0.0);
    }

    /* Canonical parents over the settled region (every candidate of a
     * prefix node is settled: positive floored lengths put parents on
     * strictly earlier plateaus, equal-dist parents — possible only via
     * float absorption — in the same, fully flushed, plateau). */
    npy_intp k = (npy_intp)viol_k;
    npy_intp dims_nodes[1] = {k};
    npy_intp dims_tree[1] = {k - 1};
    PyArrayObject *nodes_arr =
        (PyArrayObject *)PyArray_SimpleNew(1, dims_nodes, NPY_INT64);
    PyArrayObject *tree_arr =
        (PyArrayObject *)PyArray_SimpleNew(1, dims_tree, NPY_INT64);
    if (nodes_arr == NULL || tree_arr == NULL) {
        Py_XDECREF(nodes_arr);
        Py_XDECREF(tree_arr);
        return NULL;
    }
    npy_int64 *nodes_out = (npy_int64 *)PyArray_DATA(nodes_arr);
    npy_int64 *tree_out = (npy_int64 *)PyArray_DATA(tree_arr);
    memcpy(nodes_out, st->order, sizeof(npy_int64) * (size_t)k);
    for (npy_intp i = 1; i < k; i++) {
        npy_int64 w = st->order[i];
        double dw = st->dist[w];
        npy_int64 best_pos = -1;
        double best_dv = 0.0;
        npy_int64 best_v = -1;
        npy_int64 hi = st->indptr[w + 1];
        for (npy_int64 pos = st->indptr[w]; pos < hi; pos++) {
            npy_int64 v = st->indices[pos];
            if (st->done[v] != epoch) {
                continue;
            }
            double dv = st->dist[v];
            if (dv + data[pos] == dw) {
                if (best_pos < 0 || dv < best_dv ||
                    (dv == best_dv && v < best_v)) {
                    best_pos = pos;
                    best_dv = dv;
                    best_v = v;
                }
            }
        }
        if (best_pos < 0) {
            /* Inconsistent dist/data: shared state was scribbled mid-
             * flight (chaos corruption).  Emit a structurally valid
             * placeholder; the dispatch checksum discards it. */
            for (npy_int64 pos = st->indptr[w]; pos < hi; pos++) {
                npy_int64 v = st->indices[pos];
                double dv = st->done[v] == epoch ? st->dist[v] : HUGE_VAL;
                if (best_pos < 0 || dv < best_dv ||
                    (dv == best_dv && v < best_v)) {
                    best_pos = pos;
                    best_dv = dv;
                    best_v = v;
                }
            }
        }
        if (best_pos < 0) {
            Py_DECREF(nodes_arr);
            Py_DECREF(tree_arr);
            PyErr_Format(PyExc_RuntimeError,
                         "node %lld has no incident edges; cannot be in a "
                         "shortest-path tree",
                         (long long)w);
            return NULL;
        }
        tree_out[i - 1] = st->entry_edge[best_pos];
    }
    PyObject *result = Py_BuildValue(
        "LLNNdd", (long long)settled, (long long)viol_k, (PyObject *)nodes_arr,
        (PyObject *)tree_arr, viol_lhs, viol_rhs);
    return result;
}

/* ------------------------------------------------------------- module */

static PyMethodDef kernel_methods[] = {
    {"init", kernel_init, METH_VARARGS,
     "init(n, indptr, indices, entry_edge, sizes, unit_bounds, capacities, "
     "weights, num_levels, limit, tol) -> state capsule"},
    {"check", kernel_check, METH_VARARGS,
     "check(state, data, source) -> (settled, k, nodes, tree_edges, "
     "lhs, rhs); k == 0 means no violation"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    "_native",
    "Compiled distance-limited Dijkstra + first-violation kernel.",
    -1,
    kernel_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    import_array();
    return PyModule_Create(&kernel_module);
}
