/* The compiled layers of sparsewatch's scalar step, in one extension.
 *
 * sweep       every VB sweep of n fits (inference._sweeps), operation for
 *             operation the Python kernel inference._kernel_source generates;
 * absorb      absorb_sample's W·x, u_c, q_c and moment update;
 * statistic   lambda_stat's products and sums;
 * draw        draw_anomaly_sample's slab/spike draw from given variates;
 * synthesize  synthesize_anomaly_signal's B_a·theta + sigma_e·noise;
 * score       score_variables' two products and score;
 * top         select_top_m's cut at the m-th largest score;
 * oracle      OracleScorer.subset_scores and the first maximum and tie count
 *             select reads.
 *
 * Each computes what its numpy body computes, in the same order, so its
 * output is that body's bit for bit: every product goes through numpy's own
 * cblas_dgemv, cblas_ddot or cblas_daxpy with the arguments ndarray.dot
 * passes (dot, which also mirrors how ndarray.dot treats a length-1
 * dimension), or for oracle's np.matmul, cblas_dgemv, cblas_ddot and
 * cblas_dgemm with the arguments np.matmul passes; and sweep uses libm's
 * exp.  Built with -ffp-contract=off, so no multiply-add is fused.  An
 * entry other than sweep takes C-contiguous float64 arrays of the sizes its
 * layer checked; given anything else it returns NotImplemented and the
 * layer runs its numpy body.  So does an entry whose numpy operations raise
 * a floating-point exception numpy reports (invalid, division by zero,
 * overflow, underflow): the numpy body then warns or raises as np.errstate
 * says. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <fenv.h>
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
double scipy_cblas_ddot64_(int64_t n, const double *x, int64_t incx, const double *y,
                           int64_t incy);
void scipy_cblas_daxpy64_(int64_t n, double alpha, const double *x, int64_t incx, double *y,
                          int64_t incy);
void scipy_cblas_dgemm64_(int order, int trans_a, int trans_b, int64_t m, int64_t n, int64_t k,
                          double alpha, const double *a, int64_t lda, const double *b, int64_t ldb,
                          double beta, double *c, int64_t ldc);
enum { ROW_MAJOR = 101, COL_MAJOR = 102, NO_TRANS = 111, TRANS = 112 };

/* An operand of ndarray.dot: one or two dimensions, strides in items. */
typedef struct {
    const double *data;
    int nd;
    Py_ssize_t dim[2], step[2];
} operand;

static operand
vector(const double *data, Py_ssize_t n)
{
    return (operand){data, 1, {n, 0}, {1, 0}};
}

static operand
matrix(const double *data, Py_ssize_t rows, Py_ssize_t cols)
{
    return (operand){data, 2, {rows, cols}, {cols, 1}};
}

/* The transpose of the C-ordered rows x cols matrix at data. */
static operand
transposed(const double *data, Py_ssize_t rows, Py_ssize_t cols)
{
    return (operand){data, 2, {cols, rows}, {1, cols}};
}

/* How ndarray.dot classes an operand: a vector or matrix of one element is
 * a scalar, a 1 x n matrix a row, an n-vector or n x 1 matrix a column. */
enum { SCALAR, COLUMN, ROW, MATRIX };

static int
shape_of(const operand *a)
{
    if (a->nd == 1)
        return a->dim[0] > 1 ? COLUMN : SCALAR;
    if (a->dim[0] > 1)
        return a->dim[1] == 1 ? COLUMN : MATRIX;
    return a->dim[1] == 1 ? SCALAR : ROW;
}

/* a·x for the matrix a, or a'·x, as ndarray.dot calls cblas_dgemv: row-major
 * when a is C-contiguous, else column-major. */
static void
gemv(const operand *a, int trans, const double *x, Py_ssize_t incx, double *y)
{
    int c_order = a->step[1] == 1 && a->step[0] == a->dim[1];
    Py_ssize_t lda = c_order ? a->dim[1] : a->dim[0];
    scipy_cblas_dgemv64_(c_order ? ROW_MAJOR : COL_MAJOR, trans, a->dim[0], a->dim[1], 1.0,
                         a->data, lda > 1 ? lda : 1, x, incx, 0.0, y, 1);
}

/* a.dot(b) into out, its n_out elements, as numpy's cblas_matrixproduct
 * computes it for float64 operands of which one at least is 1-D, whatever
 * their lengths: the output zeroed; nothing more when it is empty or the
 * summed length is 0; a scalar operand multiplies the other (one product,
 * or cblas_daxpy into the zeros, which a zero scalar leaves); a row or
 * vector with a column is 0.0 + cblas_ddot, as numpy's DOUBLE_dot sums it;
 * and a matrix with a vector is cblas_dgemv.  Every entry's products go
 * through it. */
static void
dot(operand a, operand b, double *out, Py_ssize_t n_out)
{
    const operand oa = a, ob = b;
    int sa = shape_of(&a), sb = shape_of(&b);
    Py_ssize_t l = a.dim[a.nd - 1], step = 0;

    memset(out, 0, n_out * sizeof(double));
    if (sa == SCALAR || sb == SCALAR) {
        if (sa == SCALAR) { /* the scalar goes second */
            a = ob;
            b = oa;
            sa = sb;
            sb = SCALAR;
        }
        step = a.step[sa == ROW];
        if (a.nd + b.nd == 3)
            l = oa.nd == 2 ? oa.dim[0] : ob.dim[1];
        if (oa.dim[oa.nd - 1] == 0)
            l = 0;
    }
    if (n_out == 0 || l == 0)
        return;
    if (sb == SCALAR) {
        if (l == 1)
            out[0] = b.data[0] * a.data[0];
        else
            scipy_cblas_daxpy64_(l, b.data[0], a.data, step, out, 1);
    }
    else if (sb == COLUMN && sa != MATRIX)
        out[0] = 0.0 + scipy_cblas_ddot64_(l, a.data, a.step[sa == ROW], b.data, b.step[0]);
    else if (sa == MATRIX)
        gemv(&a, NO_TRANS, b.data, b.step[0], out);
    else
        gemv(&b, TRANS, a.data, a.step[sa == ROW], out);
}

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

/* The step layers' entries.  Each takes its arguments' buffers through
 * array, which reports an argument it does not mirror; the entry then
 * returns NotImplemented before it writes anything.  An entry clears the
 * exceptions numpy reports before its numpy operations and returns
 * NotImplemented if any was raised (raised), before it writes an argument
 * numpy's body reads. */

#define REPORTED (FE_INVALID | FE_DIVBYZERO | FE_OVERFLOW | FE_UNDERFLOW)

#define MAX_ARRAYS 10

/* What an entry holds: its arguments' buffers and one scratch block. */
typedef struct {
    Py_buffer view[MAX_ARRAYS];
    int n;
    double *scratch;
} arrays;

static void
release(arrays *held)
{
    free(held->scratch);
    held->scratch = NULL;
    while (held->n > 0)
        PyBuffer_Release(&held->view[--held->n]);
}

/* A scratch block of n doubles, or NULL after releasing what the entry
 * holds and setting MemoryError. */
static double *
scratch(arrays *held, Py_ssize_t n)
{
    held->scratch = malloc((n + 1) * sizeof(double));
    if (held->scratch == NULL) {
        release(held);
        PyErr_NoMemory();
    }
    return held->scratch;
}

/* Whether the entry's numpy operations since feclearexcept raised an
 * exception numpy reports; releases what the entry holds either way. */
static int
raised(arrays *held)
{
    int any = fetestexcept(REPORTED) != 0;
    release(held);
    return any;
}

/* The data of obj if it is a C-contiguous array of native itemsize-byte
 * items of a format in formats, ndim nd (1 or 2) and shape (d0) or (d0, d1),
 * a dimension given as -1 taking any length; the actual shape is written to
 * shape.  NULL, with no error set, for anything else. */
static void *
array(arrays *held, PyObject *obj, int writable, const char *formats, Py_ssize_t itemsize, int nd,
      Py_ssize_t d0, Py_ssize_t d1, Py_ssize_t *shape)
{
    Py_buffer *view = &held->view[held->n];
    int flags = PyBUF_FORMAT | PyBUF_STRIDES | (writable ? PyBUF_WRITABLE : 0);

    if (PyObject_GetBuffer(obj, view, flags) < 0) {
        PyErr_Clear();
        return NULL;
    }
    held->n++;
    if (view->ndim != nd || view->itemsize != itemsize || view->format == NULL
        || view->format[0] == '\0' || view->format[1] != '\0'
        || strchr(formats, view->format[0]) == NULL || !PyBuffer_IsContiguous(view, 'C')
        || (d0 >= 0 && view->shape[0] != d0) || (nd == 2 && d1 >= 0 && view->shape[1] != d1))
        return NULL;
    if (shape != NULL) {
        shape[0] = view->shape[0];
        if (nd == 2)
            shape[1] = view->shape[1];
    }
    return view->buf;
}

#define DOUBLES(obj, writable, nd, d0, d1, shape) \
    ((double *)array(&held, obj, writable, "d", sizeof(double), nd, d0, d1, shape))

/* NotImplemented, after releasing what the entry holds. */
static PyObject *
not_mirrored(arrays *held)
{
    release(held);
    return Py_NewRef(Py_NotImplemented);
}

static int
nargs_is(Py_ssize_t nargs, Py_ssize_t n, const char *name)
{
    if (nargs == n)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments", name, n);
    return 0;
}

/* The rows z of the C-ordered p x k matrix b_a, into the m x k rows;
 * whether every index lies in [0, p). */
static int
gather(const double *b_a, Py_ssize_t p, Py_ssize_t k, const Py_ssize_t *z, Py_ssize_t m,
       double *rows)
{
    for (Py_ssize_t i = 0; i < m; i++) {
        if (z[i] < 0 || z[i] >= p)
            return 0;
        memcpy(rows + i * k, b_a + z[i] * k, k * sizeof(double));
    }
    return 1;
}

#define INDICES(obj, m) \
    ((Py_ssize_t *)array(&held, obj, 0, "lqn", sizeof(Py_ssize_t), 1, m, 0, NULL))

/* absorb(x, z, b_a, basis, c, m_c, raw_m, raw_u, keep, out_m, out_u):
 * absorb_sample's arithmetic for the observation x (m) at the subset z (m,
 * intp), with the anomaly basis b_a (p, k), the subset's geometry basis (m,
 * k_b), c (k_b) and m_c (k, k), and the moments raw_m (k, k) and raw_u (k).
 * W·x = x − basis·(c ∘ x'basis); writes raw_m·keep + m_c into out_m and
 * keep·raw_u + B_aZ'·W·x into out_u and returns x'·W·x. */
static PyObject *
absorb(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    arrays held = {.n = 0, .scratch = NULL};
    Py_ssize_t xs[2], bs[2], cs[2], m, p, k, kb;
    const double *x, *b_a, *basis, *c, *m_c, *raw_m, *raw_u;
    const Py_ssize_t *z;
    double keep, q, *out_m, *out_u, *rows, *t, *w_x, *u_c;

    (void)self;
    if (!nargs_is(nargs, 11, "absorb"))
        return NULL;
    keep = PyFloat_AsDouble(args[8]);
    if (keep == -1.0 && PyErr_Occurred())
        return NULL;
    if (!(x = DOUBLES(args[0], 0, 1, -1, 0, xs)) || !(z = INDICES(args[1], m = xs[0]))
        || !(b_a = DOUBLES(args[2], 0, 2, -1, -1, bs)) || !(c = DOUBLES(args[4], 0, 1, -1, 0, cs))
        || !(basis = DOUBLES(args[3], 0, 2, m, kb = cs[0], NULL))
        || !(m_c = DOUBLES(args[5], 0, 2, bs[1], bs[1], NULL))
        || !(raw_m = DOUBLES(args[6], 0, 2, bs[1], bs[1], NULL))
        || !(raw_u = DOUBLES(args[7], 0, 1, bs[1], 0, NULL))
        || !(out_m = DOUBLES(args[9], 1, 2, bs[1], bs[1], NULL))
        || !(out_u = DOUBLES(args[10], 1, 1, bs[1], 0, NULL)))
        return not_mirrored(&held);
    p = bs[0], k = bs[1];
    if (!(rows = scratch(&held, m * k + kb + m + k)))
        return NULL;
    if (!gather(b_a, p, k, z, m, rows))
        return not_mirrored(&held);
    t = rows + m * k, w_x = t + kb, u_c = w_x + m;
    feclearexcept(REPORTED);
    dot(vector(x, m), matrix(basis, m, kb), t, kb); /* x'basis */
    for (Py_ssize_t i = 0; i < kb; i++)
        t[i] = c[i] * t[i];
    dot(matrix(basis, m, kb), vector(t, kb), w_x, m);
    for (Py_ssize_t i = 0; i < m; i++)
        w_x[i] = x[i] - w_x[i];
    dot(transposed(rows, m, k), vector(w_x, m), u_c, k);
    dot(vector(x, m), vector(w_x, m), &q, 1);
    for (Py_ssize_t i = 0; i < k * k; i++)
        out_m[i] = raw_m[i] * keep + m_c[i];
    for (Py_ssize_t i = 0; i < k; i++)
        out_u[i] = keep * raw_u[i] + u_c[i];
    return raised(&held) ? Py_NewRef(Py_NotImplemented) : PyFloat_FromDouble(q);
}

/* statistic(x, z, b_a, mu_tilde, basis, col_sq, spread): lambda_stat of the
 * observation x (m) at the subset z (m, intp), with the anomaly basis b_a
 * (p, k), the posterior's mu_tilde and spread (k), and the subset's
 * geometry basis (m, k_b) and col_sq (k). */
static PyObject *
statistic(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    arrays held = {.n = 0, .scratch = NULL};
    Py_ssize_t xs[2], bs[2], gs[2], m, k, kb;
    const double *x, *b_a, *mu_tilde, *basis, *col_sq, *spread;
    const Py_ssize_t *z;
    double *rows, *y, *t, *p_y, yy, cs, yx, pyx, ypy;

    (void)self;
    if (!nargs_is(nargs, 7, "statistic"))
        return NULL;
    if (!(x = DOUBLES(args[0], 0, 1, -1, 0, xs)) || !(z = INDICES(args[1], m = xs[0]))
        || !(b_a = DOUBLES(args[2], 0, 2, -1, -1, bs))
        || !(mu_tilde = DOUBLES(args[3], 0, 1, k = bs[1], 0, NULL))
        || !(basis = DOUBLES(args[4], 0, 2, m, -1, gs))
        || !(col_sq = DOUBLES(args[5], 0, 1, k, 0, NULL))
        || !(spread = DOUBLES(args[6], 0, 1, k, 0, NULL)))
        return not_mirrored(&held);
    kb = gs[1];
    if (!(rows = scratch(&held, m * k + 2 * m + kb)))
        return NULL;
    if (!gather(b_a, bs[0], k, z, m, rows))
        return not_mirrored(&held);
    y = rows + m * k, p_y = y + m, t = p_y + m;
    feclearexcept(REPORTED);
    dot(matrix(rows, m, k), vector(mu_tilde, k), y, m);
    dot(transposed(basis, m, kb), vector(y, m), t, kb);
    dot(matrix(basis, m, kb), vector(t, kb), p_y, m);
    dot(vector(y, m), vector(y, m), &yy, 1);
    dot(vector(col_sq, k), vector(spread, k), &cs, 1);
    dot(vector(y, m), vector(x, m), &yx, 1);
    dot(vector(p_y, m), vector(x, m), &pyx, 1);
    dot(vector(y, m), vector(p_y, m), &ypy, 1);
    if (raised(&held))
        return Py_NewRef(Py_NotImplemented);
    /* on Python floats in the numpy body, which report nothing */
    return PyFloat_FromDouble(2.0 * (yx - pyx) - (yy + cs) + ypy);
}

/* A spike variance floor, sampling._VAR_FLOOR. */
#define VAR_FLOOR 1e-18

/* np.maximum(a, VAR_FLOOR): a NaN propagates. */
static double
floored(double a)
{
    return a >= VAR_FLOOR || a != a ? a : VAR_FLOOR;
}

/* draw(uniform, noise, alpha, mu_a, s2, v): draw_anomaly_sample from its k
 * uniforms and normals, written over noise: mu_a + sqrt(s2)·noise where
 * uniform < alpha, sqrt(v·s2)·noise elsewhere, each variance floored. */
static PyObject *
draw(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    arrays held = {.n = 0, .scratch = NULL};
    Py_ssize_t us[2], k;
    const double *uniform, *alpha, *mu_a, *s2;
    double v, *noise, *out;

    (void)self;
    if (!nargs_is(nargs, 6, "draw"))
        return NULL;
    v = PyFloat_AsDouble(args[5]);
    if (v == -1.0 && PyErr_Occurred())
        return NULL;
    if (!(uniform = DOUBLES(args[0], 0, 1, -1, 0, us))
        || !(noise = DOUBLES(args[1], 1, 1, k = us[0], 0, NULL))
        || !(alpha = DOUBLES(args[2], 0, 1, k, 0, NULL))
        || !(mu_a = DOUBLES(args[3], 0, 1, k, 0, NULL))
        || !(s2 = DOUBLES(args[4], 0, 1, k, 0, NULL)))
        return not_mirrored(&held);
    if (!(out = scratch(&held, k)))
        return NULL;
    feclearexcept(REPORTED);
    for (Py_ssize_t j = 0; j < k; j++) {
        double slab = sqrt(floored(1.0 * s2[j])) * noise[j];
        double spike = sqrt(floored(v * s2[j])) * noise[j];
        out[j] = uniform[j] < alpha[j] ? mu_a[j] + slab : spike;
    }
    if (!fetestexcept(REPORTED))
        memcpy(noise, out, k * sizeof(double));
    return Py_NewRef(raised(&held) ? Py_NotImplemented : Py_None);
}

/* synthesize(b_a, theta, noise, sigma_e): b_a (p, k)·theta (k) +
 * sigma_e·noise, written over noise (p). */
static PyObject *
synthesize(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    arrays held = {.n = 0, .scratch = NULL};
    Py_ssize_t bs[2], p, k;
    const double *b_a, *theta;
    double sigma_e, *noise, *y;

    (void)self;
    if (!nargs_is(nargs, 4, "synthesize"))
        return NULL;
    sigma_e = PyFloat_AsDouble(args[3]);
    if (sigma_e == -1.0 && PyErr_Occurred())
        return NULL;
    if (!(b_a = DOUBLES(args[0], 0, 2, -1, -1, bs))
        || !(theta = DOUBLES(args[1], 0, 1, k = bs[1], 0, NULL))
        || !(noise = DOUBLES(args[2], 1, 1, p = bs[0], 0, NULL)))
        return not_mirrored(&held);
    if (!(y = scratch(&held, p)))
        return NULL;
    feclearexcept(REPORTED);
    dot(matrix(b_a, p, k), vector(theta, k), y, p);
    for (Py_ssize_t i = 0; i < p; i++)
        y[i] = y[i] + sigma_e * noise[i];
    if (!fetestexcept(REPORTED))
        memcpy(noise, y, p * sizeof(double));
    return Py_NewRef(raised(&held) ? Py_NotImplemented : Py_None);
}

/* With y = b_a·mu_tilde into y (p), 2·x1_hat·y − (y·y + b_a_sq·spread)
 * into out (p): score_variables' arithmetic, which score and oracle run. */
static void
variable_scores(const double *x1, const double *b_a, const double *b_a_sq,
                const double *mu_tilde, const double *spread, Py_ssize_t p, Py_ssize_t k,
                double *y, double *out)
{
    dot(matrix(b_a, p, k), vector(mu_tilde, k), y, p);
    dot(matrix(b_a_sq, p, k), vector(spread, k), out, p);
    for (Py_ssize_t i = 0; i < p; i++)
        out[i] = 2.0 * x1[i] * y[i] - (y[i] * y[i] + out[i]);
}

/* score(x1_hat, b_a, b_a_sq, mu_tilde, spread, out): variable_scores into
 * out (p). */
static PyObject *
score(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    arrays held = {.n = 0, .scratch = NULL};
    Py_ssize_t xs[2], bs[2], p, k;
    const double *x1, *b_a, *b_a_sq, *mu_tilde, *spread;
    double *out, *y;

    (void)self;
    if (!nargs_is(nargs, 6, "score"))
        return NULL;
    if (!(x1 = DOUBLES(args[0], 0, 1, -1, 0, xs))
        || !(b_a = DOUBLES(args[1], 0, 2, p = xs[0], -1, bs))
        || !(b_a_sq = DOUBLES(args[2], 0, 2, p, k = bs[1], NULL))
        || !(mu_tilde = DOUBLES(args[3], 0, 1, k, 0, NULL))
        || !(spread = DOUBLES(args[4], 0, 1, k, 0, NULL))
        || !(out = DOUBLES(args[5], 1, 1, p, 0, NULL)))
        return not_mirrored(&held);
    if (!(y = scratch(&held, p)))
        return NULL;
    feclearexcept(REPORTED);
    variable_scores(x1, b_a, b_a_sq, mu_tilde, spread, p, k, y, out);
    return Py_NewRef(raised(&held) ? Py_NotImplemented : Py_None);
}

/* Two doubles, and the lane masks comparing two pairs gives: 16-byte
 * vectors, which every x86-64 and AArch64 core has.  Their arithmetic goes
 * lane by lane, so each lane computes what the scalar form computes. */
typedef double pair __attribute__((vector_size(16)));
typedef int64_t lanes __attribute__((vector_size(16)));

static pair
load(const double *a)
{
    pair v;
    memcpy(&v, a, sizeof v);
    return v;
}

/* The score of subset i: its product v·incidence plus, block k = 0 …
 * k_b − 1 in turn, c_y·(c_x·(−2.0) + c_y) of that block's column i. */
static double
subset_score(double s, const double *c_y, const double *c_x, Py_ssize_t kb, Py_ssize_t n,
             Py_ssize_t i)
{
    for (Py_ssize_t j = i; j < kb * n; j += n)
        s = s + c_y[j] * (c_x[j] * -2.0 + c_y[j]);
    return s;
}

/* oracle(x1_hat, b_a, b_a_sq, mu_tilde, spread, incidence, bases, out):
 * OracleScorer.subset_scores into out (n), as its numpy body computes them
 * with np.matmul.  The variable scores v and y (p) are variable_scores';
 * out = v·incidence (p, n), 0.0 + cblas_ddot at n = 1 as numpy's dot sums
 * it, else cblas_dgemv, row-major and transposed.  Where bases (p, k_b·n)
 * is not None, (c_y, c_x) = (y, x1_hat)·bases is one row-major cblas_dgemm,
 * neither operand transposed, and subset_score adds its blocks, two
 * subsets at a time.  At p = 1, and given a bases of one column, it
 * declines: there np.matmul sums without BLAS.  Returns (the first index
 * of the maximum score, the number of scores equal to it, −0.0 and 0.0
 * alike), or (−1, 0) when a score is NaN. */
static PyObject *
oracle(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    arrays held = {.n = 0, .scratch = NULL};
    Py_ssize_t xs[2], bs[2], is[2], gs[2] = {0, 0}, p, k, n, kb, i, first = -1, ties = 0;
    const double *x1, *b_a, *b_a_sq, *mu_tilde, *spread, *incidence, *bases = NULL;
    double *out, *variable, *y, *c_y, *c_x, best;
    const pair minus_two = {-2.0, -2.0};
    pair top = {-INFINITY, -INFINITY};
    lanes nan = {0, 0};

    (void)self;
    if (!nargs_is(nargs, 8, "oracle"))
        return NULL;
    if (!(x1 = DOUBLES(args[0], 0, 1, -1, 0, xs))
        || !(b_a = DOUBLES(args[1], 0, 2, p = xs[0], -1, bs))
        || !(b_a_sq = DOUBLES(args[2], 0, 2, p, k = bs[1], NULL))
        || !(mu_tilde = DOUBLES(args[3], 0, 1, k, 0, NULL))
        || !(spread = DOUBLES(args[4], 0, 1, k, 0, NULL))
        || !(incidence = DOUBLES(args[5], 0, 2, p, -1, is)) || p < 2 || (n = is[1]) < 1
        || (args[6] != Py_None && !(bases = DOUBLES(args[6], 0, 2, p, -1, gs)))
        || gs[1] % n != 0 || gs[1] == 1
        || !(out = DOUBLES(args[7], 1, 1, n, 0, NULL)))
        return not_mirrored(&held);
    kb = gs[1] / n;
    if (!(variable = scratch(&held, 3 * p + 2 * kb * n)))
        return NULL;
    y = variable + p, c_y = y + 2 * p, c_x = c_y + kb * n;
    feclearexcept(REPORTED);
    variable_scores(x1, b_a, b_a_sq, mu_tilde, spread, p, k, y, variable);
    if (n == 1)
        out[0] = 0.0 + scipy_cblas_ddot64_(p, variable, 1, incidence, 1);
    else
        scipy_cblas_dgemv64_(ROW_MAJOR, TRANS, p, n, 1.0, incidence, n, variable, 1, 0.0, out, 1);
    if (kb > 0) {
        memcpy(y + p, x1, p * sizeof(double)); /* the rows y, x1_hat */
        scipy_cblas_dgemm64_(ROW_MAJOR, NO_TRANS, NO_TRANS, 2, kb * n, p, 1.0, y, p, bases,
                             kb * n, 0.0, c_y, kb * n);
    }
    for (i = 0; i + 2 <= n; i += 2) {
        pair s = load(out + i), kept;
        lanes bad, up;
        for (Py_ssize_t j = i; j < kb * n; j += n) {
            pair cy = load(c_y + j);
            s = s + cy * (load(c_x + j) * minus_two + cy);
        }
        memcpy(out + i, &s, sizeof s);
        bad = s != s;
        nan |= bad;
        kept = (pair)((lanes)s & ~bad); /* a NaN as 0.0, so no comparison raises invalid */
        up = kept > top;
        top = (pair)((up & (lanes)kept) | (~up & (lanes)top));
    }
    best = top[0] > top[1] ? top[0] : top[1];
    for (; i < n; i++) {
        out[i] = subset_score(out[i], c_y, c_x, kb, n, i);
        if (out[i] != out[i])
            nan[0] = 1;
        else if (out[i] > best)
            best = out[i];
    }
    if (!nan[0] && !nan[1])
        for (i = 0; i < n; i++)
            if (out[i] == best && ties++ == 0)
                first = i;
    if (raised(&held))
        return Py_NewRef(Py_NotImplemented);
    return Py_BuildValue("(nn)", first, ties);
}

/* The k-th smallest of the n numbers at a, none NaN, which it reorders: a
 * quickselect whose three-way partition takes runs of equal values in
 * linear time. */
static double
kth_smallest(double *a, Py_ssize_t n, Py_ssize_t k)
{
    Py_ssize_t lo = 0, hi = n;

    while (hi - lo > 1) {
        double x = a[lo], y = a[lo + (hi - lo) / 2], z = a[hi - 1], pivot;
        Py_ssize_t lt = lo, i = lo, gt = hi;

        pivot = x < y ? (y < z ? y : (x < z ? z : x)) : (x < z ? x : (y < z ? z : y));
        while (i < gt) { /* [lo, lt) < pivot, [lt, i) == pivot, [gt, hi) > pivot */
            double e = a[i];
            if (e < pivot) {
                a[i++] = a[lt];
                a[lt++] = e;
            }
            else if (e > pivot) {
                a[i] = a[--gt];
                a[gt] = e;
            }
            else
                i++;
        }
        if (k < lt)
            hi = lt;
        else if (k >= gt)
            lo = gt;
        else
            return pivot;
    }
    return a[lo];
}

/* top(scores, out): the number of scores at or above the cut, the score at
 * ascending rank p − m with NaN last as ndarray.partition orders it, where
 * m is out's length; the first m of their indices, ascending, go into out
 * (intp).  A NaN cut is reached by no score. */
static PyObject *
top(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    arrays held = {.n = 0, .scratch = NULL};
    Py_ssize_t ss[2], os[2], p, m, n = 0, count = 0;
    const double *scores;
    Py_ssize_t *out;
    double *part, cut;

    (void)self;
    if (!nargs_is(nargs, 2, "top"))
        return NULL;
    if (!(scores = DOUBLES(args[0], 0, 1, -1, 0, ss))
        || !(out = (Py_ssize_t *)array(&held, args[1], 1, "lqn", sizeof(Py_ssize_t), 1, -1, 0, os))
        || (m = os[0]) < 1 || m > (p = ss[0]))
        return not_mirrored(&held);
    if (!(part = scratch(&held, p)))
        return NULL;
    for (Py_ssize_t i = 0; i < p; i++)
        if (scores[i] == scores[i])
            part[n++] = scores[i];
    if (p - m < n) { /* else the cut is NaN */
        cut = kth_smallest(part, n, p - m);
        for (Py_ssize_t i = 0; i < p; i++)
            if (scores[i] >= cut && count++ < m)
                out[count - 1] = i;
    }
    release(&held);
    return PyLong_FromSsize_t(count);
}

#define ENTRY(name) {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, NULL}

static PyMethodDef methods[] = {
    ENTRY(sweep), ENTRY(absorb), ENTRY(statistic), ENTRY(draw), ENTRY(synthesize), ENTRY(score),
    ENTRY(top), ENTRY(oracle),
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
