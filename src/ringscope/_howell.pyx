# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled Howell elimination kernel over Z/n.

Bit-identical twin of ``_howell_py.howell_mod``; entries stay below 2^31
so a sum of two products of entries fits in a signed 64-bit integer.
"""

from libc.stdlib cimport malloc, free


cdef long long c_gcd(long long a, long long b) noexcept:
    cdef long long t
    while b:
        t = a % b
        a = b
        b = t
    return a if a >= 0 else -a


cdef void c_xgcd(long long a, long long b,
                 long long *g, long long *s, long long *t) noexcept:
    cdef long long old_r = a, r = b
    cdef long long old_s = 1, ss = 0
    cdef long long old_t = 0, tt = 1
    cdef long long q, tmp
    while r:
        q = old_r / r
        tmp = old_r - q * r; old_r = r; r = tmp
        tmp = old_s - q * ss; old_s = ss; ss = tmp
        tmp = old_t - q * tt; old_t = tt; tt = tmp
    if old_r < 0:
        old_r = -old_r; old_s = -old_s; old_t = -old_t
    g[0] = old_r; s[0] = old_s; t[0] = old_t


cdef long long c_modinv(long long a, long long m) noexcept:
    cdef long long g, s, t
    c_xgcd(a % m, m, &g, &s, &t)
    s %= m
    if s < 0:
        s += m
    return s


cdef long long c_stab_unit(long long a, long long n) noexcept:
    cdef long long g = c_gcd(a, n)
    cdef long long m = n / g
    cdef long long u
    if m == 1:
        return 1
    u = c_modinv((a / g) % m, m)
    while c_gcd(u, n) != 1:
        u += m
    return u


def howell_mod(rows, int ncols, long long n):
    """Howell form of the span of ``rows`` in (Z/n)^ncols (list of tuples)."""
    if n == 1:
        return []
    cdef int nrows = len(rows)
    cdef int cap = nrows + ncols + 1
    cdef long long *buf = <long long *> malloc(cap * ncols * sizeof(long long))
    cdef long long *res = <long long *> malloc(ncols * ncols * sizeof(long long))
    cdef int *piv_cols = <int *> malloc(ncols * sizeof(int))
    if buf == NULL or res == NULL or piv_cols == NULL:
        free(buf); free(res); free(piv_cols)
        raise MemoryError()
    cdef int count = 0, nres = 0
    cdef int i, j, k, c, l, jc, piv
    cdef long long x, a, b, g, s, t, u, v, pa, pb, q, mult
    cdef bint nonzero
    try:
        for i in range(nrows):
            row = rows[i]
            nonzero = False
            for c in range(ncols):
                x = row[c] % n
                if x < 0:
                    x += n
                buf[count * ncols + c] = x
                if x:
                    nonzero = True
            if nonzero:
                count += 1
        for j in range(ncols):
            piv = -1
            k = 0
            while k < count:
                if buf[k * ncols + j] == 0:
                    k += 1
                    continue
                if piv < 0:
                    piv = k
                    k += 1
                    continue
                a = buf[piv * ncols + j]
                b = buf[k * ncols + j]
                c_xgcd(a, b, &g, &s, &t)
                u = a / g
                v = b / g
                nonzero = False
                for c in range(j, ncols):
                    pa = buf[piv * ncols + c]
                    pb = buf[k * ncols + c]
                    x = (s * pa + t * pb) % n
                    if x < 0:
                        x += n
                    buf[piv * ncols + c] = x
                    x = (u * pb - v * pa) % n
                    if x < 0:
                        x += n
                    buf[k * ncols + c] = x
                    if x:
                        nonzero = True
                if nonzero:
                    k += 1
                else:
                    count -= 1
                    if k != count:
                        for c in range(ncols):
                            buf[k * ncols + c] = buf[count * ncols + c]
                    if piv == count:
                        piv = k
            if piv >= 0:
                g = c_gcd(buf[piv * ncols + j], n)
                mult = c_stab_unit(buf[piv * ncols + j], n)
                for c in range(ncols):
                    if c < j:
                        res[nres * ncols + c] = 0
                    else:
                        res[nres * ncols + c] = (mult * buf[piv * ncols + c]) % n
                piv_cols[nres] = j
                nres += 1
                # replace the consumed pivot row with the annihilator row
                q = n / g
                nonzero = False
                for c in range(ncols):
                    x = (q * res[(nres - 1) * ncols + c]) % n
                    buf[piv * ncols + c] = x
                    if x:
                        nonzero = True
                if not nonzero:
                    count -= 1
                    if piv != count:
                        for c in range(ncols):
                            buf[piv * ncols + c] = buf[count * ncols + c]
        for i in range(nres):
            for l in range(i + 1, nres):
                jc = piv_cols[l]
                q = res[i * ncols + jc] / res[l * ncols + jc]
                if q:
                    for c in range(jc, ncols):
                        x = (res[i * ncols + c] - q * res[l * ncols + c]) % n
                        if x < 0:
                            x += n
                        res[i * ncols + c] = x
        out = []
        for i in range(nres):
            out.append(tuple([res[i * ncols + c] for c in range(ncols)]))
        return out
    finally:
        free(buf)
        free(res)
        free(piv_cols)
