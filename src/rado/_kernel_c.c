/* Compiled avoidability-search kernel.

   Mirrors _kernel_py.solve decision for decision; see that module for the
   algorithm.  Both must stay in lockstep so that status and assignment do
   not depend on the backend.  This module trusts its arguments to meet
   the contract stated in kernel.py.

   Constraints are stored CSR-style: constraint i is
   con_data[con_off[i] .. con_off[i+1]), and the constraints containing
   point q are adj_data[adj_off[q] .. adj_off[q+1]), in increasing order.
   When a point is colored h, both kernels reach the same verdict on each
   of its constraints, and so the same fixpoint or conflict: assign() below
   visits them in input order and counts each one's points not colored h,
   stopping at two, while _kernel_py visits them by shape (pairs, triples,
   larger sets) and intersects bitsets for the sets.

   Both search in one loop over an explicit stack with one Frame per open
   branch point, so a search of any depth takes no C stack.  They restore
   state differently: _kernel_py snapshots it per branch point, while here
   one trail records every coloring and every forbidden color bit, so
   undo() restores the state at a frame's mark exactly.  Both branch the
   same way: on the first uncolored point with exactly two colors left
   among the next LOOKAHEAD entries of the order, and on the next uncolored
   point when there is none.  The loop polls for signals once every
   SIGNAL_CHECK_MASK + 1 iterations, so Ctrl-C stops a long search. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* Py_NO_INLINE is public from Python 3.11 on; 3.10 has only _Py_NO_INLINE. */
#ifndef Py_NO_INLINE
#define Py_NO_INLINE _Py_NO_INLINE
#endif

#define SIGNAL_CHECK_MASK 4095
#define LOOKAHEAD 8  /* equal to _kernel_py.LOOKAHEAD */

typedef unsigned long long u64;

/* An open branch point: its point, the order position to resume at, the
   colors it has still to try (lowest first), the trail length before its
   first color and the colors introduced then. */
typedef struct {
    int point, resume, mark, introduced;
    u64 left;
} Frame;

typedef struct {
    int colors, olen;
    u64 full_mask;
    int *con_off, *con_data;
    int *adj_off, *adj_data;
    int *color;         /* per point, -1 while uncolored */
    u64 *forbid;        /* per point, bit g set when g is forbidden */
    int *order;
    int *trail_pts;     /* the trail: a point, and the forbidden bit set */
    u64 *trail_bits;    /* there, or 0 where the point was colored */
    int trail_len;
    int *queue_pts, *queue_cols;
    int introduced;     /* colors used on the current path */
    Frame *frames;      /* the open branch points, num_points + 1 of them */
    int *ints;          /* one block that holds every int array above */
    u64 *words;         /* one block that holds forbid and trail_bits */
} Engine;

/* Copy the items of a fast sequence of ints into out; -1 on error. */
static int
copy_ints(PyObject *seq, int *out)
{
    Py_ssize_t i, len = PySequence_Fast_GET_SIZE(seq);
    for (i = 0; i < len; i++) {
        long v = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i));
        if (v == -1 && PyErr_Occurred())
            return -1;
        out[i] = (int)v;
    }
    return 0;
}

/* Fill e (zeroed by the caller) from the Python arguments; -1 on error. */
static int
engine_init(Engine *e, int num_points, int colors, PyObject *constraints,
            PyObject *order)
{
    PyObject *cons = NULL, *ord = NULL, *fast = NULL;
    Py_ssize_t i, j, ncon, total = 0;
    /* each point is colored once and loses each color once per path */
    Py_ssize_t trail = (Py_ssize_t)num_points * (colors + 1);
    int *p, rc = -1;

    cons = PySequence_Fast(constraints, "constraints must be a sequence");
    if (cons == NULL)
        goto done;
    ncon = PySequence_Fast_GET_SIZE(cons);
    fast = PyList_New(ncon);
    if (fast == NULL)
        goto done;
    for (i = 0; i < ncon; i++) {
        PyObject *c = PySequence_Fast(PySequence_Fast_GET_ITEM(cons, i),
                                      "each constraint must be a sequence");
        if (c == NULL)
            goto done;
        PyList_SET_ITEM(fast, i, c);
        total += PySequence_Fast_GET_SIZE(c);
    }
    ord = PySequence_Fast(order, "order must be a sequence");
    if (ord == NULL)
        goto done;

    e->colors = colors;
    e->olen = (int)PySequence_Fast_GET_SIZE(ord);
    e->full_mask = (1ULL << colors) - 1;
    e->ints = PyMem_Calloc(ncon + 1 + 2 * total + 4 * (size_t)num_points + 4
                           + e->olen + trail, sizeof(int));
    e->words = PyMem_Calloc(num_points + trail, sizeof(u64));
    e->frames = PyMem_Calloc((size_t)num_points + 1, sizeof(Frame));
    if (e->ints == NULL || e->words == NULL || e->frames == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    p = e->ints;
    e->con_off = p;       p += ncon + 1;
    e->con_data = p;      p += total;
    e->adj_off = p;       p += num_points + 2;
    e->adj_data = p;      p += total;
    e->color = p;         p += num_points;
    e->order = p;         p += e->olen;
    e->trail_pts = p;     p += trail;
    e->queue_pts = p;     p += num_points + 1;
    e->queue_cols = p;
    e->forbid = e->words;
    e->trail_bits = e->words + num_points;

    for (i = 0; i < ncon; i++) {
        PyObject *c = PyList_GET_ITEM(fast, i);
        e->con_off[i + 1] = e->con_off[i] + (int)PySequence_Fast_GET_SIZE(c);
        if (copy_ints(c, e->con_data + e->con_off[i]) < 0)
            goto done;
    }
    if (copy_ints(ord, e->order) < 0)
        goto done;

    /* counting sort of constraint memberships into the per-point adjacency */
    for (j = 0; j < total; j++)
        e->adj_off[e->con_data[j] + 2]++;
    for (i = 2; i < num_points + 2; i++)
        e->adj_off[i] += e->adj_off[i - 1];
    for (i = 0; i < ncon; i++)
        for (j = e->con_off[i]; j < e->con_off[i + 1]; j++)
            e->adj_data[e->adj_off[e->con_data[j] + 1]++] = (int)i;

    for (i = 0; i < num_points; i++)
        e->color[i] = -1;
    rc = 0;
done:
    Py_XDECREF(cons);
    Py_XDECREF(ord);
    Py_XDECREF(fast);
    return rc;
}

/* Color point with g and propagate; 0 when a point loses its last color,
   the only conflict (see kernel.py).  Each constraint of a newly colored
   point q gets _kernel_py's verdict: its points not colored h are counted,
   stopping at two, and one that is still uncolored has h forbidden.  Kept
   out of line: inlined into the search loop, whose state then crowds its
   registers, it made the (S,S3) r=3 n=14 refutation about 25% slower
   (GCC 12 -O3, 2-vCPU x86-64 VM). */
static Py_NO_INLINE int
assign(Engine *e, int point, int g)
{
    int qtop = 0;
    e->queue_pts[qtop] = point;
    e->queue_cols[qtop++] = g;
    while (qtop > 0) {
        int q, h, a;
        u64 bit;
        qtop--;
        q = e->queue_pts[qtop];
        h = e->queue_cols[qtop];
        e->color[q] = h;
        if (h >= e->introduced)
            e->introduced = h + 1;
        e->trail_pts[e->trail_len] = q;
        e->trail_bits[e->trail_len++] = 0;
        bit = 1ULL << h;
        for (a = e->adj_off[q]; a < e->adj_off[q + 1]; a++) {
            int ci = e->adj_data[a], x, last = -1, rest = 0;
            u64 fb, left;
            for (x = e->con_off[ci]; x < e->con_off[ci + 1] && rest < 2; x++) {
                if (e->color[e->con_data[x]] != h) {
                    last = e->con_data[x];
                    rest++;
                }
            }
            if (rest > 1 || e->color[last] >= 0)
                continue;
            fb = e->forbid[last];
            if (fb & bit)
                continue;
            fb |= bit;
            e->forbid[last] = fb;
            e->trail_pts[e->trail_len] = last;
            e->trail_bits[e->trail_len++] = bit;
            if (fb == e->full_mask)
                return 0;
            left = e->full_mask ^ fb;
            if (!(left & (left - 1))) {
                /* one color left: color last with it */
                int forced = 0;
                while (!(left >> forced & 1))
                    forced++;
                e->queue_pts[qtop] = last;
                e->queue_cols[qtop++] = forced;
            }
        }
    }
    return 1;
}

/* Restore the state the trail held at length mark.  A point loses a color
   only while uncolored, so every entry's point was uncolored before it was
   made, and each entry, forbidden bit or coloring, is undone the same way. */
static void
undo(Engine *e, int mark)
{
    while (e->trail_len > mark) {
        int q = e->trail_pts[--e->trail_len];
        e->forbid[q] ^= e->trail_bits[e->trail_len];
        e->color[q] = -1;
    }
}

/* 1 when the points of the order can be colored, 0 when they cannot, -1
   with an exception set when a signal handler raised. */
static int
search(Engine *e)
{
    unsigned long steps = 0;
    int oi = 0, depth = 0;
    for (;;) {
        int j, end, top;
        Frame *f = e->frames + depth;
        if ((++steps & SIGNAL_CHECK_MASK) == 0 && PyErr_CheckSignals() < 0)
            return -1;
        while (oi < e->olen && e->color[e->order[oi]] >= 0)
            oi++;
        if (oi == e->olen)
            return 1;
        f->point = e->order[oi];
        /* the points before oi are colored, and order[oi] stays uncolored
           when another point is branched on, so the search resumes at oi */
        f->resume = oi + 1;
        end = oi + LOOKAHEAD < e->olen ? oi + LOOKAHEAD : e->olen;
        for (j = oi; j < end; j++) {
            int y = e->order[j];
            u64 left = e->full_mask ^ e->forbid[y];
            left &= left - 1;
            /* two colors left: one is left once the lowest is dropped */
            if (e->color[y] < 0 && left && !(left & (left - 1))) {
                if (j > oi) {
                    f->point = y;
                    f->resume = oi;
                }
                break;
            }
        }
        f->mark = e->trail_len;
        f->introduced = e->introduced;
        /* the colors the point is not forbidden, up to the first one not
           yet introduced */
        top = e->introduced < e->colors - 1 ? e->introduced : e->colors - 1;
        f->left = ((2ULL << top) - 1) & ~e->forbid[f->point];
        for (;;) {
            int g = 0;
            while (!(f->left >> g & 1))
                g++;
            f->left ^= 1ULL << g;
            if (assign(e, f->point, g))
                break;
            /* back up to the innermost branch point with a color left */
            while (!f->left) {
                if (depth == 0)
                    return 0;
                f = e->frames + --depth;
            }
            undo(e, f->mark);
            e->introduced = f->introduced;
        }
        depth++;
        oi = f->resume;
    }
}

static PyObject *
solve(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"num_points", "colors", "constraints", "order",
                             NULL};
    int num_points, colors, found, i;
    PyObject *constraints, *order, *assignment, *result = NULL;
    Engine e = {0};

    (void)module;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iiOO:solve", kwlist,
                                     &num_points, &colors, &constraints,
                                     &order))
        return NULL;
    if (engine_init(&e, num_points, colors, constraints, order) < 0)
        goto done;
    found = search(&e);
    if (found < 0)
        goto done;
    if (!found) {
        result = Py_BuildValue("(OO)", Py_False, Py_None);
        goto done;
    }
    assignment = PyList_New(num_points);
    if (assignment == NULL)
        goto done;
    for (i = 0; i < num_points; i++) {
        PyObject *v = PyLong_FromLong(e.color[i] >= 0 ? e.color[i] : 0);
        if (v == NULL) {
            Py_DECREF(assignment);
            goto done;
        }
        PyList_SET_ITEM(assignment, i, v);
    }
    result = Py_BuildValue("(ON)", Py_True, assignment);
done:
    PyMem_Free(e.ints);
    PyMem_Free(e.words);
    PyMem_Free(e.frames);
    return result;
}

PyDoc_STRVAR(solve_doc,
"solve($module, /, num_points, colors, constraints, order)\n--\n\n"
"Compiled twin of _kernel_py.solve: same contract, same results.");

static PyMethodDef methods[] = {
    {"solve", (PyCFunction)(void (*)(void))solve, METH_VARARGS | METH_KEYWORDS,
     solve_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_kernel_c",
    "Compiled avoidability-search kernel; see _kernel_py for the algorithm.",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__kernel_c(void)
{
    return PyModule_Create(&module_def);
}
