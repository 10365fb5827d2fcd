/* Compiled Levenshtein kernel, module gec_editkit._levenshtein_c, built by setup.py.
 *
 * It fills the full (n+1)(m+1) DP table, where the pure-Python kernel in
 * _levenshtein.py computes the same distances bit-parallel.  Both use unit
 * costs and the same backtrace preferences (MATCH, SUBSTITUTE, DELETE,
 * INSERT), so they return identical op streams;
 * tests/test_kernels.py::test_kernel_equals_the_dp_oracle checks both.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

enum { OP_MATCH, OP_SUBSTITUTE, OP_DELETE, OP_INSERT };

/* Copy a sequence of ints into a new array; NULL with an exception set on failure. */
static long *read_ids(PyObject *obj, Py_ssize_t *len) {
    PyObject *seq = PySequence_Tuple(obj);  /* a tuple cannot change while its ints are read */
    if (seq == NULL) return NULL;
    Py_ssize_t n = PyTuple_GET_SIZE(seq);
    long *ids = PyMem_New(long, n > 0 ? n : 1);
    if (ids == NULL) PyErr_NoMemory();
    for (Py_ssize_t k = 0; ids != NULL && k < n; k++) {
        ids[k] = PyLong_AsLong(PyTuple_GET_ITEM(seq, k));
        if (ids[k] == -1 && PyErr_Occurred()) { PyMem_Free(ids); ids = NULL; }
    }
    Py_DECREF(seq);
    *len = n;
    return ids;
}

static PyObject *backtrace_ops(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "backtrace_ops() takes 2 arguments (%zd given)", nargs);
        return NULL;
    }
    Py_ssize_t n = 0, m = 0;
    long *src = read_ids(args[0], &n);
    long *tgt = src == NULL ? NULL : read_ids(args[1], &m);
    Py_ssize_t width = m + 1;
    int *dp = NULL;
    char *ops = NULL;
    PyObject *out = NULL;
    if (tgt == NULL) goto done;
    if (n + 1 <= PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(int) / width) {
        dp = PyMem_New(int, (n + 1) * width);
        ops = PyMem_Malloc(n + m + 1);
    }
    if (dp == NULL || ops == NULL) { PyErr_NoMemory(); goto done; }
    for (Py_ssize_t j = 0; j < width; j++) dp[j] = (int)j;
    for (Py_ssize_t i = 1; i <= n; i++) {
        int *row = dp + i * width, *prev = row - width;
        long s = src[i - 1];
        row[0] = (int)i;
        for (Py_ssize_t j = 1; j < width; j++) {
            int best = prev[j - 1] + (s != tgt[j - 1]);
            if (prev[j] + 1 < best) best = prev[j] + 1;
            if (row[j - 1] + 1 < best) best = row[j - 1] + 1;
            row[j] = best;
        }
    }
    /* Walk back from the corner, filling ops from the end so they read forward. */
    Py_ssize_t i = n, j = m, k = n + m;
    while (i > 0 || j > 0) {
        int cost = dp[i * width + j];
        if (i > 0 && j > 0 && src[i - 1] == tgt[j - 1] && dp[(i - 1) * width + j - 1] == cost) {
            ops[--k] = OP_MATCH; i--; j--;
        } else if (i > 0 && j > 0 && dp[(i - 1) * width + j - 1] + 1 == cost) {
            ops[--k] = OP_SUBSTITUTE; i--; j--;
        } else if (i > 0 && dp[(i - 1) * width + j] + 1 == cost) {
            ops[--k] = OP_DELETE; i--;
        } else {
            ops[--k] = OP_INSERT; j--;
        }
    }
    out = PyBytes_FromStringAndSize(ops + k, n + m - k);
done:
    PyMem_Free(src);
    PyMem_Free(tgt);
    PyMem_Free(dp);
    PyMem_Free(ops);
    return out;
}

static int exec_module(PyObject *mod) {
    if (PyModule_AddIntConstant(mod, "OP_MATCH", OP_MATCH) < 0 || PyModule_AddIntConstant(mod, "OP_SUBSTITUTE", OP_SUBSTITUTE) < 0
        || PyModule_AddIntConstant(mod, "OP_DELETE", OP_DELETE) < 0 || PyModule_AddIntConstant(mod, "OP_INSERT", OP_INSERT) < 0)
        return -1;
    return 0;
}

static PyMethodDef methods[] = {
    {"backtrace_ops", (PyCFunction)(void (*)(void))backtrace_ops, METH_FASTCALL,
     "backtrace_ops(src_ids, tgt_ids) -> bytes\n\nMinimal-cost edit op codes between two id sequences, in forward order."},
    {NULL, NULL, 0, NULL},
};
static PyModuleDef_Slot slots[] = {{Py_mod_exec, exec_module}, {0, NULL}};
static struct PyModuleDef def = {PyModuleDef_HEAD_INIT, "_levenshtein_c", "Compiled Levenshtein kernel.", 0, methods, slots};

PyMODINIT_FUNC PyInit__levenshtein_c(void) { return PyModuleDef_Init(&def); }
