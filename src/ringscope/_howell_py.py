"""Pure-Python Howell elimination kernel over Z/n.

This is the reference implementation of the hot loop; see ``_howell.pyx``
for the compiled twin.  Both must produce bit-identical output: the Howell
form of a matrix over Z/n is the unique canonical representative of its
row span.
"""

from math import gcd


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b == g == gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _stab_unit(a: int, n: int) -> int:
    """A unit u mod n with (u * a) % n == gcd(a, n).

    Exists because units of Z/n surject onto units of Z/m for m | n.
    """
    g = gcd(a, n)
    m = n // g
    if m == 1:
        return 1
    u = pow((a // g) % m, -1, m)
    while gcd(u, n) != 1:
        u += m
    return u


def howell_mod(rows, ncols: int, n: int):
    """Howell form of the span of ``rows`` in (Z/n)^ncols.

    Returns a list of tuples: no zero rows, pivot columns strictly
    increasing, each pivot the positive gcd of its column value and n,
    entries above a pivot reduced modulo the pivot, and the span closed
    in the Howell sense (leading-zero span elements are spanned by the
    trailing rows).  Output depends only on the row span.
    """
    if n == 2:
        return _howell_f2(rows, ncols)
    return _howell_general(rows, ncols, n)


def _howell_f2(rows, ncols: int):
    """``howell_mod`` at n = 2.

    Over the field F_2 every pivot is 1 and the Howell closure adds
    nothing, so the Howell form is the reduced row echelon form.  Each row
    is packed into an int, column 0 in the high bit, so a row's pivot is
    its leading bit and elimination is XOR.
    """
    basis = []  # reduced echelon: no row has a bit in another's pivot
    for r in rows:
        v = 0
        for x in r:
            v = v + v + (x & 1)
        for b in basis:
            if v >> (b.bit_length() - 1) & 1:
                v ^= b
        if v:
            lead = 1 << (v.bit_length() - 1)
            basis = [b ^ v if b & lead else b for b in basis]
            basis.append(v)
    basis.sort(reverse=True)
    shifts = range(ncols - 1, -1, -1)
    return [tuple([b >> k & 1 for k in shifts]) for b in basis]


def _howell_general(rows, ncols: int, n: int):
    """``howell_mod`` by xgcd elimination, for every n."""
    if n == 1:
        return []
    work = []
    for r in rows:
        rr = [x % n for x in r]
        if any(rr):
            work.append(rr)
    res = []
    piv_cols = []
    for j in range(ncols):
        piv = None
        k = 0
        while k < len(work):
            row = work[k]
            if row[j] == 0:
                k += 1
                continue
            if piv is None:
                piv = row
                work.pop(k)
                continue
            a, b = piv[j], row[j]
            g, s, t = _xgcd(a, b)
            u, v = a // g, b // g
            for c in range(j, ncols):
                pa, pb = piv[c], row[c]
                piv[c] = (s * pa + t * pb) % n
                row[c] = (u * pb - v * pa) % n
            if any(row):
                k += 1
            else:
                work.pop(k)
        if piv is not None:
            g = gcd(piv[j], n)
            mult = _stab_unit(piv[j], n)
            if mult != 1:
                piv = [(mult * x) % n for x in piv]
            res.append(piv)
            piv_cols.append(j)
            q = n // g
            extra = [(q * x) % n for x in piv]
            if any(extra):
                work.append(extra)
    for i in range(len(res)):
        ri = res[i]
        for l in range(i + 1, len(res)):
            jc = piv_cols[l]
            q = ri[jc] // res[l][jc]
            if q:
                rl = res[l]
                for c in range(jc, ncols):
                    ri[c] = (ri[c] - q * rl[c]) % n
    return [tuple(r) for r in res]
