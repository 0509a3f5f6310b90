/* Compiled kernels for dense arithmetic modulo a prime p in [2, PMAX].

   The same functions and contracts as reciprocity._kernels.pure: a
   polynomial is a little-endian list of ints in [0, p) (index = exponent),
   a matrix is a list of row lists, and every result is a new list.  Each
   call reads its lists into one int64 buffer and runs its loops there.
   With p <= PMAX = 2^31 - 1 a slot plus a product, at most
   (p - 1)^2 + p < 2^63, fits an int64, so each product is reduced mod p
   as it is formed.  Trailing zeros of an argument are ignored.

   A p outside [2, PMAX] is a ValueError: PrimeField hands larger primes to
   pure.  An argument that is not a list is a TypeError.  A coefficient or
   matrix entry must be an int (TypeError) that fits an int64
   (OverflowError) and lies in [0, p) (ValueError).

   Build: python setup.py build_ext --inplace */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* reciprocity._kernels.PMAX */
#define PMAX 2147483647LL

typedef long long i64;

static int
check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes exactly %zd arguments (%zd given)", name, want, nargs);
    return -1;
}

/* The length of the list obj, or -1 with TypeError when obj is not a list. */
static Py_ssize_t
list_len(PyObject *obj)
{
    if (PyList_Check(obj))
        return PyList_GET_SIZE(obj);
    PyErr_Format(PyExc_TypeError, "expected a list, not %.200s", Py_TYPE(obj)->tp_name);
    return -1;
}

static int
read_p(PyObject *obj, i64 *p)
{
    int overflow;
    i64 v;

    if (!PyLong_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "p must be an int, not %.200s", Py_TYPE(obj)->tp_name);
        return -1;
    }
    v = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (overflow || v < 2 || v > PMAX) {
        PyErr_Format(PyExc_ValueError, "p must lie in [2, %lld], not %R", PMAX, obj);
        return -1;
    }
    *p = v;
    return 0;
}

/* The int obj as a coefficient mod p, checked to lie in [0, p). */
static int
read_coeff(PyObject *obj, i64 p, i64 *out)
{
    int overflow;
    i64 v;

    if (!PyLong_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "coefficients must be ints, not %.200s", Py_TYPE(obj)->tp_name);
        return -1;
    }
    v = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (overflow) {
        PyErr_Format(PyExc_OverflowError, "coefficient %R does not fit in 64 bits", obj);
        return -1;
    }
    if (v < 0 || v >= p) {
        PyErr_Format(PyExc_ValueError, "coefficient %lld does not lie in [0, %lld)", v, p);
        return -1;
    }
    *out = v;
    return 0;
}

/* n without the trailing zeros of buf[0..n). */
static Py_ssize_t
strip(const i64 *buf, Py_ssize_t n)
{
    while (n && !buf[n - 1])
        n--;
    return n;
}

/* The coefficients of the list a in buf; the length without trailing zeros,
   or -1 with an exception set. */
static Py_ssize_t
read_poly(PyObject *a, i64 p, i64 *buf)
{
    Py_ssize_t i, n = PyList_GET_SIZE(a);

    for (i = 0; i < n; i++)
        if (read_coeff(PyList_GET_ITEM(a, i), p, &buf[i]) < 0)
            return -1;
    return strip(buf, n);
}

/* The n x m matrix a, a list of n lists of m ints, row by row into buf. */
static int
read_matrix(PyObject *a, Py_ssize_t m, i64 p, i64 *buf)
{
    Py_ssize_t i, j, n = PyList_GET_SIZE(a);

    for (i = 0; i < n; i++) {
        PyObject *row = PyList_GET_ITEM(a, i);
        if (list_len(row) < 0)
            return -1;
        if (PyList_GET_SIZE(row) != m) {
            PyErr_Format(PyExc_ValueError, "matrix row %zd has %zd entries, not %zd", i, PyList_GET_SIZE(row), m);
            return -1;
        }
        for (j = 0; j < m; j++)
            if (read_coeff(PyList_GET_ITEM(row, j), p, &buf[i * m + j]) < 0)
                return -1;
    }
    return 0;
}

/* A buffer of count int64 slots, or NULL with MemoryError. */
static i64 *
new_buffer(Py_ssize_t count)
{
    i64 *buf = count <= PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(i64) ? PyMem_Malloc(count * sizeof(i64)) : NULL;
    if (!buf)
        PyErr_NoMemory();
    return buf;
}

static PyObject *
to_list(const i64 *buf, Py_ssize_t n)
{
    Py_ssize_t i;
    PyObject *out = PyList_New(n);

    for (i = 0; out && i < n; i++) {
        PyObject *c = PyLong_FromLongLong(buf[i]);
        if (!c)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, c);
    }
    return out;
}

/* The n x m matrix in buf, row by row, as a list of row lists. */
static PyObject *
to_matrix(const i64 *buf, Py_ssize_t n, Py_ssize_t m)
{
    Py_ssize_t i;
    PyObject *out = PyList_New(n);

    for (i = 0; out && i < n; i++) {
        PyObject *row = to_list(buf + i * m, m);
        if (!row)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, row);
    }
    return out;
}

/* a^(p-2) mod p, the inverse of a nonzero a mod the prime p (Fermat). */
static i64
inverse(i64 a, i64 p)
{
    i64 result = 1, base = a % p, e = p - 2;

    while (e) {
        if (e & 1)
            result = result * base % p;
        base = base * base % p;
        e >>= 1;
    }
    return result;
}

static i64
lead_inverse(const i64 *a, Py_ssize_t n, i64 p)
{
    return a[n - 1] == 1 ? 1 : inverse(a[n - 1], p);
}

static void
scale(i64 *a, Py_ssize_t n, i64 c, i64 p)
{
    Py_ssize_t i;

    for (i = 0; i < n; i++)
        a[i] = a[i] * c % p;
}

/* a*b into out[0..na+nb-1), na, nb >= 1; the product's length without
   trailing zeros. */
static Py_ssize_t
mul_into(const i64 *a, Py_ssize_t na, const i64 *b, Py_ssize_t nb, i64 p, i64 *out)
{
    Py_ssize_t i, j, n = na + nb - 1;

    for (i = 0; i < n; i++)
        out[i] = 0;
    for (i = 0; i < na; i++) {
        i64 x = a[i];
        if (x)
            for (j = 0; j < nb; j++)
                out[i + j] = (out[i + j] + x * b[j]) % p;
    }
    return strip(out, n);
}

/* r[0..*nr) mod d[0..nd) in place, nd >= 1 and inv the inverse of d's lead;
   *nr becomes the remainder's length without trailing zeros.  With q given,
   the quotient goes to q[0..*nr - nd + 1). */
static void
reduce(i64 *r, Py_ssize_t *nr, const i64 *d, Py_ssize_t nd, i64 inv, i64 p, i64 *q)
{
    Py_ssize_t j, k, dd = nd - 1;

    for (k = *nr - 1; k >= dd; k--) {
        i64 c = r[k] * inv % p;
        Py_ssize_t lo = k - dd;
        if (q)
            q[lo] = c;
        if (c)
            for (j = 0; j < dd; j++) {
                i64 x = (r[lo + j] - c * d[j]) % p;
                r[lo + j] = x < 0 ? x + p : x;
            }
    }
    *nr = strip(r, *nr < dd ? *nr : dd);
}

/* a*b mod m into a (room for nm - 1 slots), by way of tmp (na + nb - 1 slots). */
static void
mulmod_into(i64 *a, Py_ssize_t *na, const i64 *b, Py_ssize_t nb, const i64 *m, Py_ssize_t nm, i64 inv, i64 p,
            i64 *tmp)
{
    Py_ssize_t n;

    if (!*na || !nb) {
        *na = 0;
        return;
    }
    n = mul_into(a, *na, b, nb, p, tmp);
    reduce(tmp, &n, m, nm, inv, p, NULL);
    memcpy(a, tmp, n * sizeof(i64));
    *na = n;
}

/* a^-1 mod m into out by extended Euclid, tracking only the cofactor s of a
   (s*a = r mod m), as pure.invmod does.  work has 6*room slots, room =
   max(na, nm) + 2: each remainder, quotient and cofactor stays within room.
   The inverse's length, or -1 when a is not invertible mod m. */
static Py_ssize_t
invmod_into(const i64 *a, Py_ssize_t na, const i64 *m, Py_ssize_t nm, i64 p, i64 *work, Py_ssize_t room, i64 *out)
{
    i64 *r0 = work, *r1 = work + room, *q = work + 2 * room;
    i64 *s0 = work + 3 * room, *s1 = work + 4 * room, *s = work + 5 * room, *t;
    Py_ssize_t i, j, n0 = na, n1 = nm, ls0 = 1, ls1 = 0, ls, dq, nt;
    i64 inv;

    memcpy(r0, a, na * sizeof(i64));
    memcpy(r1, m, nm * sizeof(i64));
    s0[0] = 1;
    while (n1) {
        dq = n0 - n1 + 1 > 0 ? n0 - n1 + 1 : 0;
        reduce(r0, &n0, r1, n1, lead_inverse(r1, n1, p), p, q);
        /* s = s0 - q*s1 */
        ls = dq + ls1 - 1 > ls0 ? dq + ls1 - 1 : ls0;
        for (i = 0; i < ls; i++)
            s[i] = i < ls0 ? s0[i] : 0;
        for (i = 0; i < dq; i++)
            if (q[i])
                for (j = 0; j < ls1; j++) {
                    i64 x = (s[i + j] - q[i] * s1[j]) % p;
                    s[i + j] = x < 0 ? x + p : x;
                }
        t = r0, r0 = r1, r1 = t;
        nt = n0, n0 = n1, n1 = nt;
        t = s0, s0 = s1, s1 = s, s = t;
        ls0 = ls1, ls1 = strip(s1, ls);
    }
    if (n0 != 1)
        return -1;
    /* the cofactor of the last nonzero remainder has degree below deg m */
    inv = inverse(r0[0], p);
    for (i = 0; i < ls0; i++)
        out[i] = s0[i] * inv % p;
    return ls0;
}

static PyObject *
zero_division(const char *what)
{
    PyErr_SetString(PyExc_ZeroDivisionError, what);
    return NULL;
}

#define NOT_INVERTIBLE "element is not invertible modulo the given polynomial"
#define DIVISION_BY_ZERO "polynomial division by zero"

/* Reads args[0..count) as lists and args[count] as p; 0, or -1 with an exception set. */
static int
read_args(const char *name, PyObject *const *args, Py_ssize_t nargs, Py_ssize_t count, Py_ssize_t *len, i64 *p)
{
    Py_ssize_t i;

    if (check_nargs(name, nargs, count + 1) < 0)
        return -1;
    for (i = 0; i < count; i++)
        if ((len[i] = list_len(args[i])) < 0)
            return -1;
    return read_p(args[count], p);
}

static PyObject *
k_normalize(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t i, n, last = 0;
    i64 c;

    if (check_nargs("normalize", nargs, 1) < 0 || (n = list_len(args[0])) < 0)
        return NULL;
    for (i = 0; i < n; i++) {
        if (read_coeff(PyList_GET_ITEM(args[0], i), LLONG_MAX, &c) < 0)
            return NULL;
        if (c)
            last = i + 1;
    }
    return PyList_GetSlice(args[0], 0, last);
}

/* add and sub: a + sign*b */
static PyObject *
add_or_sub(const char *name, PyObject *const *args, Py_ssize_t nargs, int sign)
{
    Py_ssize_t len[2], na, nb, n, i;
    i64 p, *buf, *a, *b, *out;
    PyObject *result = NULL;

    if (read_args(name, args, nargs, 2, len, &p) < 0 || !(buf = new_buffer(len[0] + len[1])))
        return NULL;
    a = buf, b = buf + len[0];
    if ((na = read_poly(args[0], p, a)) < 0 || (nb = read_poly(args[1], p, b)) < 0)
        goto done;
    n = na > nb ? na : nb;
    out = na > nb ? a : b;
    for (i = 0; i < n; i++) {
        i64 x = (i < na ? a[i] : 0) + sign * (i < nb ? b[i] : 0);
        out[i] = x < 0 ? x + p : x >= p ? x - p : x;
    }
    result = to_list(out, strip(out, n));
done:
    PyMem_Free(buf);
    return result;
}

static PyObject *
k_add(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    return add_or_sub("add", args, nargs, 1);
}

static PyObject *
k_sub(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    return add_or_sub("sub", args, nargs, -1);
}

static PyObject *
k_mul(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t len[2], na, nb;
    i64 p, *buf, *a, *b;
    PyObject *result = NULL;

    if (read_args("mul", args, nargs, 2, len, &p) < 0 || !(buf = new_buffer(2 * (len[0] + len[1]))))
        return NULL;
    a = buf, b = buf + len[0];
    if ((na = read_poly(args[0], p, a)) < 0 || (nb = read_poly(args[1], p, b)) < 0)
        goto done;
    if (!na || !nb)
        result = PyList_New(0);
    else
        result = to_list(b + len[1], mul_into(a, na, b, nb, p, b + len[1]));
done:
    PyMem_Free(buf);
    return result;
}

static PyObject *
k_divmod_poly(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t len[2], nr, nd, nq;
    i64 p, *buf, *r, *d, *q;
    PyObject *quo = NULL, *rem = NULL, *result = NULL;

    if (read_args("divmod_poly", args, nargs, 2, len, &p) < 0 || !(buf = new_buffer(2 * len[0] + len[1])))
        return NULL;
    r = buf, d = buf + len[0], q = d + len[1];
    if ((nr = read_poly(args[0], p, r)) < 0 || (nd = read_poly(args[1], p, d)) < 0)
        goto done;
    if (!nd) {
        zero_division(DIVISION_BY_ZERO);
        goto done;
    }
    nq = nr >= nd ? nr - nd + 1 : 0;
    reduce(r, &nr, d, nd, lead_inverse(d, nd, p), p, q);
    if ((quo = to_list(q, nq)) && (rem = to_list(r, nr)))
        result = PyTuple_Pack(2, quo, rem);
    Py_XDECREF(quo);
    Py_XDECREF(rem);
done:
    PyMem_Free(buf);
    return result;
}

static PyObject *
k_rem(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t len[2], nr, nd;
    i64 p, *buf, *r, *d;
    PyObject *result = NULL;

    if (read_args("rem", args, nargs, 2, len, &p) < 0 || !(buf = new_buffer(len[0] + len[1])))
        return NULL;
    r = buf, d = buf + len[0];
    if ((nr = read_poly(args[0], p, r)) < 0 || (nd = read_poly(args[1], p, d)) < 0)
        goto done;
    if (!nd) {
        zero_division(DIVISION_BY_ZERO);
        goto done;
    }
    reduce(r, &nr, d, nd, lead_inverse(d, nd, p), p, NULL);
    result = to_list(r, nr);
done:
    PyMem_Free(buf);
    return result;
}

static PyObject *
k_monic(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t n;
    i64 p, *a;
    PyObject *result = NULL;

    if (read_args("monic", args, nargs, 1, &n, &p) < 0 || !(a = new_buffer(n)))
        return NULL;
    if ((n = read_poly(args[0], p, a)) >= 0) {
        if (n)
            scale(a, n, lead_inverse(a, n, p), p);
        result = to_list(a, n);
    }
    PyMem_Free(a);
    return result;
}

static PyObject *
k_gcd(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t len[2], na, nb, nt;
    i64 p, *buf, *a, *b, *t;
    PyObject *result = NULL;

    if (read_args("gcd", args, nargs, 2, len, &p) < 0 || !(buf = new_buffer(len[0] + len[1])))
        return NULL;
    a = buf, b = buf + len[0];
    if ((na = read_poly(args[0], p, a)) < 0 || (nb = read_poly(args[1], p, b)) < 0)
        goto done;
    /* a remainder sequence in two buffers, each reduced in place */
    while (nb) {
        reduce(a, &na, b, nb, lead_inverse(b, nb, p), p, NULL);
        t = a, a = b, b = t;
        nt = na, na = nb, nb = nt;
    }
    if (na)
        scale(a, na, lead_inverse(a, na, p), p);
    result = to_list(a, na);
done:
    PyMem_Free(buf);
    return result;
}

static PyObject *
k_invmod(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t len[2], na, nm, room;
    i64 p, *buf, *a, *m;
    PyObject *result = NULL;

    if (read_args("invmod", args, nargs, 2, len, &p) < 0)
        return NULL;
    room = (len[0] > len[1] ? len[0] : len[1]) + 2;
    if (!(buf = new_buffer(8 * room)))
        return NULL;
    a = buf + 6 * room, m = buf + 7 * room;
    if ((na = read_poly(args[0], p, a)) < 0 || (nm = read_poly(args[1], p, m)) < 0)
        goto done;
    if ((na = invmod_into(a, na, m, nm, p, buf, room, a)) < 0)
        zero_division(NOT_INVERTIBLE);
    else
        result = to_list(a, na);
done:
    PyMem_Free(buf);
    return result;
}

static PyObject *
k_mulmod(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t len[3], na, nb, nm, room;
    i64 p, *buf, *a, *b, *m;
    PyObject *result = NULL;

    if (read_args("mulmod", args, nargs, 3, len, &p) < 0)
        return NULL;
    /* a, then b, m and the product; a has room for the result too */
    room = len[0] > len[2] ? len[0] : len[2];
    if (!(buf = new_buffer(2 * (room + len[1]) + len[2])))
        return NULL;
    a = buf, b = a + room, m = b + len[1];
    if ((na = read_poly(args[0], p, a)) < 0 || (nb = read_poly(args[1], p, b)) < 0
            || (nm = read_poly(args[2], p, m)) < 0)
        goto done;
    if (!nm) {
        zero_division(DIVISION_BY_ZERO);
        goto done;
    }
    mulmod_into(a, &na, b, nb, m, nm, lead_inverse(m, nm, p), p, m + len[2]);
    result = to_list(a, na);
done:
    PyMem_Free(buf);
    return result;
}

/* The bytes of |e|, least significant first, as a new bytes object, and
   the bit length of e in *nbits. */
static PyObject *
exponent_bytes(PyObject *e, Py_ssize_t *nbits)
{
    PyObject *mag = PyNumber_Absolute(e), *bits, *out = NULL;

    if (!mag)
        return NULL;
    bits = PyObject_CallMethod(mag, "bit_length", NULL);
    *nbits = bits ? PyLong_AsSsize_t(bits) : -1;
    Py_XDECREF(bits);
    if (*nbits >= 0)
        out = PyObject_CallMethod(mag, "to_bytes", "ns", (*nbits + 7) / 8, "little");
    Py_DECREF(mag);
    return out;
}

/* The int e as its bytes (exponent_bytes) and its sign in *negative; NULL
   with TypeError when e is not an int. */
static PyObject *
read_exponent(PyObject *e, Py_ssize_t *nbits, int *negative)
{
    int overflow;

    if (!PyLong_Check(e)) {
        PyErr_Format(PyExc_TypeError, "the exponent must be an int, not %.200s", Py_TYPE(e)->tp_name);
        return NULL;
    }
    *negative = PyLong_AsLongLongAndOverflow(e, &overflow) < 0;
    if (overflow)
        *negative = overflow < 0;
    return exponent_bytes(e, nbits);
}

/* a^|e| mod m into r, by the right-to-left binary loop over the nbits bits
   of e in bits (exponent_bytes): a, reduced mod m, runs through the
   squares, and r gathers the set bits.  a and r have room for nm - 1
   slots (r at least 1), tmp for 2*nm.  The result's length. */
static Py_ssize_t
power_into(i64 *a, Py_ssize_t na, const unsigned char *bits, Py_ssize_t nbits, const i64 *m, Py_ssize_t nm, i64 inv,
           i64 p, i64 *r, i64 *tmp)
{
    Py_ssize_t i, nr = nm > 1;

    r[0] = 1;
    for (i = 0; i < nbits; i++) {
        if (bits[i / 8] >> (i % 8) & 1)
            mulmod_into(r, &nr, a, na, m, nm, inv, p, tmp);
        if (i + 1 < nbits)
            mulmod_into(a, &na, a, na, m, nm, inv, p, tmp);
    }
    return nr;
}

static PyObject *
k_powmod(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t na, nm, nr, room, nbits;
    i64 p, inv, *buf = NULL, *a, *m, *r, *tmp;
    PyObject *ebytes = NULL, *result = NULL;
    int negative;

    if (check_nargs("powmod", nargs, 4) < 0 || (na = list_len(args[0])) < 0 || (nm = list_len(args[2])) < 0
            || read_p(args[3], &p) < 0 || !(ebytes = read_exponent(args[1], &nbits, &negative)))
        return NULL;
    /* the invmod work space, then a, m, the result and a product */
    room = (na > nm ? na : nm) + 2;
    if (!(buf = new_buffer(9 * room + 2 * nm)))
        goto done;
    a = buf + 6 * room, m = buf + 7 * room, r = buf + 8 * room, tmp = r + room;
    if ((na = read_poly(args[0], p, a)) < 0 || (nm = read_poly(args[2], p, m)) < 0)
        goto done;
    if (!nm) {
        zero_division(DIVISION_BY_ZERO);
        goto done;
    }
    if (negative && (na = invmod_into(a, na, m, nm, p, buf, room, a)) < 0) {
        zero_division(NOT_INVERTIBLE);
        goto done;
    }
    inv = lead_inverse(m, nm, p);
    reduce(a, &na, m, nm, inv, p, NULL);
    nr = power_into(a, na, (const unsigned char *)PyBytes_AS_STRING(ebytes), nbits, m, nm, inv, p, r, tmp);
    result = to_list(r, nr);
done:
    PyMem_Free(buf);
    Py_DECREF(ebytes);
    return result;
}

/* The rows x^(q*i) mod m, i < n = deg m, each padded to n entries: x^q by
   power_into, then each later row as one mulmod_into by it. */
static PyObject *
k_frobenius_matrix(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t nm, n, i, j, nx, len, nbits;
    i64 p, inv, *buf = NULL, *m, *x, *tmp, *rows;
    PyObject *qbytes = NULL, *result = NULL;
    int negative;

    if (check_nargs("frobenius_matrix", nargs, 3) < 0 || (nm = list_len(args[0])) < 0 || read_p(args[2], &p) < 0
            || !(qbytes = read_exponent(args[1], &nbits, &negative)))
        return NULL;
    if (negative || !nbits) {
        PyErr_Format(PyExc_ValueError, "q must be at least 1, not %R", args[1]);
        goto done;
    }
    /* m, x and its squares, a product, then the n x n rows */
    if (!(buf = new_buffer(4 * nm + 2 + nm * nm)))
        goto done;
    m = buf, x = m + nm, tmp = x + nm + 2, rows = tmp + 2 * nm;
    if ((nm = read_poly(args[0], p, m)) < 0)
        goto done;
    if (!nm) {
        zero_division(DIVISION_BY_ZERO);
        goto done;
    }
    n = nm - 1;
    for (i = 0; i < n * n; i++)
        rows[i] = 0;
    if (n)
        rows[0] = 1;
    if (n > 1) {
        inv = lead_inverse(m, nm, p);
        x[0] = 0, x[1] = 1, nx = 2;
        reduce(x, &nx, m, nm, inv, p, NULL);
        len = power_into(x, nx, (const unsigned char *)PyBytes_AS_STRING(qbytes), nbits, m, nm, inv, p, rows + n, tmp);
        for (j = len; j < n; j++)
            rows[n + j] = 0;
        nx = len;
        for (i = 2; i < n; i++) {
            memcpy(rows + i * n, rows + (i - 1) * n, n * sizeof(i64));
            mulmod_into(rows + i * n, &len, rows + n, nx, m, nm, inv, p, tmp);
            for (j = len; j < n; j++)
                rows[i * n + j] = 0;
        }
    }
    result = to_matrix(rows, n, n);
done:
    PyMem_Free(buf);
    Py_DECREF(qbytes);
    return result;
}

static PyObject *
k_mat_mul(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t len[2], n, k, m = 0, i, j, t;
    i64 p, *buf, *a, *b, *out;
    PyObject *result = NULL;

    if (read_args("mat_mul", args, nargs, 2, len, &p) < 0)
        return NULL;
    n = len[0], k = len[1];
    if (k && (m = list_len(PyList_GET_ITEM(args[1], 0))) < 0)
        return NULL;
    if (!(buf = new_buffer(n * k + (k + n) * m)))
        return NULL;
    a = buf, b = a + n * k, out = b + k * m;
    if (read_matrix(args[0], k, p, a) < 0 || read_matrix(args[1], m, p, b) < 0)
        goto done;
    for (i = 0; i < n * m; i++)
        out[i] = 0;
    for (i = 0; i < n; i++)
        for (t = 0; t < k; t++) {
            i64 c = a[i * k + t];
            if (c)
                for (j = 0; j < m; j++)
                    out[i * m + j] = (out[i * m + j] + c * b[t * m + j]) % p;
        }
    result = to_matrix(out, n, m);
done:
    PyMem_Free(buf);
    return result;
}

/* In the n x n matrix buf, the first row from col on with a nonzero entry
   in column col, swapped into row col; -1 when there is none. */
static Py_ssize_t
find_pivot(i64 *buf, Py_ssize_t n, Py_ssize_t col)
{
    Py_ssize_t r, j;

    for (r = col; r < n; r++)
        if (buf[r * n + col])
            break;
    if (r == n)
        return -1;
    if (r != col)
        for (j = 0; j < n; j++) {
            i64 x = buf[col * n + j];
            buf[col * n + j] = buf[r * n + j];
            buf[r * n + j] = x;
        }
    return r;
}

/* Row r -= f * row col over the columns from col on, in the n x n matrix buf. */
static void
eliminate(i64 *buf, Py_ssize_t n, Py_ssize_t r, Py_ssize_t col, i64 f, i64 p)
{
    Py_ssize_t j;

    for (j = col; j < n; j++) {
        i64 x = (buf[r * n + j] - f * buf[col * n + j]) % p;
        buf[r * n + j] = x < 0 ? x + p : x;
    }
}

static PyObject *
k_mat_det(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t n, col, r, pivot;
    i64 p, det = 1, inv, f, *a;
    PyObject *result = NULL;

    if (read_args("mat_det", args, nargs, 1, &n, &p) < 0)
        return NULL;
    if (!(a = new_buffer(n * n)))
        return NULL;
    if (read_matrix(args[0], n, p, a) < 0)
        goto done;
    for (col = 0; col < n; col++) {
        if ((pivot = find_pivot(a, n, col)) < 0) {
            det = 0;
            break;
        }
        if (pivot != col)
            det = (p - det) % p;
        det = det * a[col * n + col] % p;
        inv = inverse(a[col * n + col], p);
        for (r = col + 1; r < n; r++)
            if ((f = a[r * n + col] * inv % p))
                eliminate(a, n, r, col, f, p);
    }
    result = PyLong_FromLongLong(det);
done:
    PyMem_Free(a);
    return result;
}

#define KERNEL(name, doc) {#name, (PyCFunction)(void (*)(void))k_##name, METH_FASTCALL, doc}

static PyMethodDef methods[] = {
    KERNEL(normalize, "normalize(a): a without its trailing zeros"),
    KERNEL(add, "add(a, b, p): a + b"),
    KERNEL(sub, "sub(a, b, p): a - b"),
    KERNEL(mul, "mul(a, b, p): a * b"),
    KERNEL(divmod_poly, "divmod_poly(num, den, p): quotient and remainder"),
    KERNEL(rem, "rem(a, m, p): a mod m, no quotient formed"),
    KERNEL(monic, "monic(a, p): a over its lead"),
    KERNEL(gcd, "gcd(a, b, p): the monic gcd"),
    KERNEL(invmod, "invmod(a, m, p): a^-1 mod m"),
    KERNEL(mulmod, "mulmod(a, b, m, p): a * b mod m"),
    KERNEL(powmod, "powmod(a, e, m, p): a^e mod m, right-to-left binary"),
    KERNEL(frobenius_matrix, "frobenius_matrix(m, q, p): the rows x^(q*i) mod m, i < deg m, padded to deg m"),
    KERNEL(mat_mul, "mat_mul(a, b, p): the product of an n x k and a k x m matrix"),
    KERNEL(mat_det, "mat_det(a, p): the determinant"),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "reciprocity._kernels._core",
    .m_doc = "Compiled kernels for dense arithmetic modulo a prime p <= 2^31 - 1; contracts as in pure.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__core(void)
{
    PyObject *mod = PyModule_Create(&module);

    if (mod && PyModule_AddStringConstant(mod, "BACKEND", "compiled") < 0)
        Py_CLEAR(mod);
    return mod;
}
