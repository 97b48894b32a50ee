/* The compiled sweep kernel of sparsewatch.inference: every sweep of n fits
 * in one call.  It runs, operation for operation and in the same order, the
 * Python kernel inference._kernel_source generates, so its output is that
 * kernel's bit for bit: each block's product through numpy's own
 * cblas_dgemv with the arguments ndarray.dot passes it, in-block cross
 * terms summed left to right, libm's exp, and the same clamp and stop
 * tests.  Built with -ffp-contract=off, so no multiply-add is fused. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define ALPHA_CLAMP 1e-12 /* inference.ALPHA_CLAMP */
#define BLOCK 12          /* inference._BLOCK */
#define N_FIELDS 5        /* inference._FIELDS: mu_tilde, mu_a, s2, alpha, spread */

/* numpy's bundled OpenBLAS: 64-bit integers, symbols prefixed and suffixed. */
void scipy_cblas_dgemv64_(int order, int trans, int64_t m, int64_t n, double alpha,
                          const double *a, int64_t lda, const double *x, int64_t incx,
                          double beta, double *y, int64_t incy);
enum { ROW_MAJOR = 101, NO_TRANS = 111 };

/* The sweeps of one fit at k_a = k.  raw_m is its k x k M and u its k-long
 * u; row holds the fields one after another, mu_tilde, mu_a and alpha of
 * the starting posterior on entry, the fit's posterior on return; scratch
 * holds k * k + 6 * k doubles.  Stores the sweeps run in *iters and returns
 * whether the fit converged, or -1 after setting ZeroDivisionError. */
static int
fit(const double *raw_m, const double *u, double *row, const double *factors, Py_ssize_t k,
    double se2, double v, double tol, long max_iters, long *iters, double *scratch)
{
    const double *inv_sj2 = factors, *logit_w = factors + k, *two_sj2 = factors + 2 * k;
    double *mt = row, *mu = row + k, *alpha = row + 3 * k;
    double *off = scratch, *c = off + k * k, *s2 = c + k, *sc = s2 + k, *vs = sc + k,
           *hm = vs + k, *d = hm + k;
    double two_se2 = 2.0 * se2, ntol = -tol;
    Py_ssize_t n_blocks = (k + BLOCK - 1) / BLOCK;
    int moved = 1;

    memcpy(off, raw_m, k * k * sizeof(double));
    for (Py_ssize_t t = 0; t < k; t++) {
        double m = raw_m[t * k + t], den = m / se2 + inv_sj2[t];
        if (den == 0.0) { /* where Python's float division raises */
            PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
            return -1;
        }
        off[t * k + t] = 0.0;
        s2[t] = 1.0 / den;
        sc[t] = s2[t] / se2;
        vs[t] = v * s2[t];
        hm[t] = m / two_se2;
        row[2 * k + t] = s2[t];
    }
    for (*iters = 1;; ++*iters) {
        moved = 0;
        for (Py_ssize_t b = 0; b < n_blocks; b++) {
            Py_ssize_t start = b * k / n_blocks, stop = (b + 1) * k / n_blocks;
            if (k == 1) /* ndarray.dot of a 1 x 1 matrix and a 1-vector multiplies */
                c[0] = off[0] * mt[0];
            else
                scipy_cblas_dgemv64_(ROW_MAJOR, NO_TRANS, stop - start, k, 1.0, off + start * k,
                                     k, mt, 1, 0.0, c + start, 1);
            for (Py_ssize_t t = start; t < stop; t++) {
                double cross = c[t], new, sq, logit, na, step;
                for (Py_ssize_t s = start; s < t; s++)
                    cross = cross + raw_m[t * k + s] * d[s];
                new = sc[t] * (u[t] - cross);
                sq = new * new;
                logit = logit_w[t] + sq / two_sj2[t] + hm[t] * (sq - s2[t] + vs[t]);
                /* Each branch's exponent is at most 0, and only the clamp on
                 * its own side of 1/2 can bind; the second test also catches
                 * a NaN logit. */
                if (logit >= 0.0) {
                    na = 1.0 / (1.0 + exp(-logit));
                    if (na > 1.0 - ALPHA_CLAMP)
                        na = 1.0 - ALPHA_CLAMP;
                } else {
                    double e = exp(logit);
                    na = e / (1.0 + e);
                    if (!(na >= ALPHA_CLAMP))
                        na = ALPHA_CLAMP;
                }
                if (!moved) {
                    double dmu = new - mu[t], da = na - alpha[t];
                    if (!(ntol < dmu && dmu < tol && ntol < da && da < tol))
                        moved = 1;
                }
                mu[t] = new;
                alpha[t] = na;
                step = new * na;
                d[t] = step - mt[t];
                mt[t] = step; /* the block's product is taken: later blocks read it */
            }
        }
        if (!moved || *iters == max_iters)
            break;
    }
    for (Py_ssize_t t = 0; t < k; t++)
        row[4 * k + t] = alpha[t] * (1.0 - alpha[t]) * mu[t] * mu[t];
    return !moved;
}

/* Takes obj's C-contiguous buffer into view if it holds items items of
 * itemsize bytes, else sets an error; returns 0 or -1. */
static int
get(PyObject *obj, Py_buffer *view, int flags, Py_ssize_t itemsize, Py_ssize_t items)
{
    if (PyObject_GetBuffer(obj, view, flags | PyBUF_C_CONTIGUOUS) < 0)
        return -1;
    if (view->itemsize != itemsize || view->len != itemsize * items) {
        PyBuffer_Release(view);
        PyErr_SetString(PyExc_ValueError, "sweep: an argument has the wrong size");
        return -1;
    }
    return 0;
}

/* sweep(raw_m, rows, u, factors, se2, v, tol, max_iters, converged, sweeps):
 * the fits of n rows, each to fit's stop rule.  raw_m (n, k, k), rows (n, 5,
 * k), u (n, k) and factors (3, k: 1/sigma_j^2, logit w, 2 sigma_j^2) are
 * C-contiguous float64; converged (n, bool) and sweeps (n, int64) receive
 * each row's flag and sweep count. */
static PyObject *
sweep(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer raw_m = {0}, rows = {0}, u = {0}, factors = {0}, converged = {0}, sweeps = {0};
    double se2, v, tol, *scratch = NULL;
    long max_iters;
    Py_ssize_t n, k;
    PyObject *result = NULL;

    (void)self;
    if (nargs != 10) {
        PyErr_SetString(PyExc_TypeError, "sweep takes 10 arguments");
        return NULL;
    }
    se2 = PyFloat_AsDouble(args[4]);
    v = PyFloat_AsDouble(args[5]);
    tol = PyFloat_AsDouble(args[6]);
    max_iters = PyLong_AsLong(args[7]);
    if (PyErr_Occurred())
        return NULL;
    if (max_iters < 1) {
        PyErr_SetString(PyExc_ValueError, "sweep: max_iters must be at least 1");
        return NULL;
    }
    if (PyObject_GetBuffer(args[0], &raw_m, PyBUF_C_CONTIGUOUS) < 0)
        return NULL;
    n = raw_m.ndim == 3 ? raw_m.shape[0] : 0;
    k = raw_m.ndim == 3 ? raw_m.shape[1] : 0;
    if (k < 1 || raw_m.shape[2] != k || raw_m.itemsize != sizeof(double)) {
        PyErr_SetString(PyExc_ValueError, "sweep: an argument has the wrong size");
        goto done;
    }
    if (get(args[1], &rows, PyBUF_WRITABLE, sizeof(double), n * N_FIELDS * k) < 0
        || get(args[2], &u, 0, sizeof(double), n * k) < 0
        || get(args[3], &factors, 0, sizeof(double), 3 * k) < 0
        || get(args[8], &converged, PyBUF_WRITABLE, 1, n) < 0
        || get(args[9], &sweeps, PyBUF_WRITABLE, sizeof(int64_t), n) < 0)
        goto done;
    scratch = malloc((k * k + 6 * k) * sizeof(double));
    if (scratch == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        long iters;
        int fitted = fit((const double *)raw_m.buf + i * k * k, (const double *)u.buf + i * k,
                         (double *)rows.buf + i * N_FIELDS * k, factors.buf, k, se2, v, tol,
                         max_iters, &iters, scratch);
        if (fitted < 0)
            goto done;
        ((char *)converged.buf)[i] = (char)fitted;
        ((int64_t *)sweeps.buf)[i] = iters;
    }
    result = Py_NewRef(Py_None);
done:
    free(scratch);
    PyBuffer_Release(&raw_m);
    PyBuffer_Release(&rows);
    PyBuffer_Release(&u);
    PyBuffer_Release(&factors);
    PyBuffer_Release(&converged);
    PyBuffer_Release(&sweeps);
    return result;
}

static PyMethodDef methods[] = {
    {"sweep", (PyCFunction)(void (*)(void))sweep, METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_sweep", NULL, -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__sweep(void)
{
    return PyModule_Create(&module);
}
