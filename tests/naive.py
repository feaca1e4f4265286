"""Brute-force reference implementations used as oracles in tests.

Everything here is deliberately naive and independent of the package
internals: membership uses the ``in`` operator, counting scans every window,
first occurrences come from ``str.find``, and the ordering shapes are tested
by reconstructing the expected partner string instead of diffing positions.
The reason strings of the pair checks come from listing every differing
position.
"""

import math


def distinct_factors(w, n):
    return sorted({w[i : i + n] for i in range(len(w) - n + 1)})


def occurrences(w, v):
    n = len(v)
    return sum(1 for i in range(len(w) - n + 1) if w[i : i + n] == v)


def saturated(w, n):
    half = len(w) // 2
    return all(w.find(v) + n <= half for v in distinct_factors(w, n))


def successor(w, v):
    fs = distinct_factors(w, len(v))
    i = fs.index(v)
    return fs[i + 1] if i + 1 < len(fs) else None


def nfop_pair_ok(v, vp, variant=3):
    # final-letter step
    if v[:-1] == vp[:-1] and v[-1] < vp[-1]:
        if variant == 1 or ord(vp[-1]) - ord(v[-1]) == 1:
            return True
    # adjacent ascending transposition: rebuild the expected partner
    for i in range(len(v) - 1):
        a, b = v[i], v[i + 1]
        if a < b and (variant == 1 or ord(b) - ord(a) == 1):
            if vp == v[:i] + b + a + v[i + 2 :]:
                return True
    return False


def nfop_reason(v, vp, variant=3):
    """Reason string for an adjacent pair, by listing every differing
    position; the reference for the real pair predicate's wording."""
    diffs = [i for i in range(len(v)) if v[i] != vp[i]]
    if len(diffs) == 1:
        i = diffs[0]
        if i != len(v) - 1:
            return "single mismatch not at the last position"
        if variant != 1 and ord(vp[i]) - ord(v[i]) != 1:
            return "last letters are not consecutive"
        return None
    if len(diffs) == 2:
        i, j = diffs
        if j != i + 1:
            return "mismatch positions are not adjacent"
        a, b = v[i], v[j]
        if vp[i] != b or vp[j] != a:
            return "adjacent mismatches are not a transposition"
        if not a < b:
            return "transposed letters are not ascending"
        if variant != 1 and ord(b) - ord(a) != 1:
            return "transposed letters are not consecutive"
        return None
    return f"differ in {len(diffs)} positions"


def hamming_reason(v, vp):
    d = hamming(v, vp)
    return f"differ in {d} positions" if d > 2 else None


def ones_reason(v, vp):
    a, b = v.count("1"), vp.count("1")
    return f"1-count drops from {a} to {b}" if a > b else None


def adjacent_verdict(w, max_len, pair_ok, top=None):
    """(status, violation length or None, pair or None) for a property of
    adjacent sorted factor pairs, same scan order as the real checks.  The
    saturated lengths are 1..top when ``top`` is given (a window certified
    by a count), else those of the half-window rule."""
    skipped = False
    for n in range(1, max_len + 1):
        if not (n <= top if top is not None else saturated(w, n)):
            skipped = True
            continue
        fs = distinct_factors(w, n)
        for v, vp in zip(fs, fs[1:]):
            if not pair_ok(v, vp):
                return "Violated", n, (v, vp)
    if skipped:
        return "Indeterminate", None, None
    return "ConsistentUpTo", None, None


def nfop_verdict(w, max_len, variant=3, top=None):
    return adjacent_verdict(w, max_len, lambda v, vp: nfop_pair_ok(v, vp, variant), top)


def hamming2_verdict(w, max_len, top=None):
    return adjacent_verdict(w, max_len, lambda v, vp: hamming(v, vp) <= 2, top)


def ones_verdict(w, max_len, top=None):
    return adjacent_verdict(w, max_len, lambda v, vp: v.count("1") <= vp.count("1"), top)


def minimal_imbalance(w, max_len):
    """(u, (0u0, 1u1)) for the shortest then lex-least u, or None."""
    for m in range(2, max_len + 1):
        candidates = [""] if m == 2 else distinct_factors(w, m - 2)
        for u in candidates:
            lo, hi = "0" + u + "0", "1" + u + "1"
            if lo in w and hi in w:
                return u, (lo, hi)
    return None


def classify_imbalance(w, max_len):
    """(case, prefix letter, occurrences, extremal kind) of the minimal
    imbalance of w, as the real classifier reports them, or None when w is
    balanced up to max_len."""
    hit = minimal_imbalance(w, max_len)
    if hit is None:
        return None
    u = hit[0]
    if len(u) + 3 <= max_len and "10" + u + "0" in w and "01" + u + "1" in w:
        return "BothExtensions", None, None, None
    for x, kind, pick in (("0", "min", 0), ("1", "max", -1)):
        xux = x + u + x
        if w.startswith(xux):
            if all(w[:n] == distinct_factors(w, n)[pick] for n in range(1, max_len + 1)):
                return "PrefixCase", x, occurrences(w, xux), kind
            break
    return "WindowIndeterminate", None, None, None


def balance_verdict(w, max_len, top=None):
    """(status, pair) matching the real check's outcome fields: no pair is
    a consistency claim only when max_len is saturated (``top``, given, or
    the half-window rule)."""
    hit = minimal_imbalance(w, max_len)
    if hit is not None:
        return "Violated", hit[1]
    whole = top == max_len if top is not None else saturated(w, max_len)
    return ("ConsistentUpTo" if whole else "Indeterminate"), None


def hamming(v, vp):
    return sum(1 for a, b in zip(v, vp) if a != b)


def extension_exclusion(w, max_len):
    """Shortest then lex-least u with 10u0 and 01u1 both in w, or None."""
    for m in range(3, max_len + 1):
        candidates = [""] if m == 3 else distinct_factors(w, m - 3)
        for u in candidates:
            if "10" + u + "0" in w and "01" + u + "1" in w:
                return u
    return None


def shortest_unique_prefix(w):
    """The shortest prefix of w that occurs in w only at position 0, or None."""
    return next((w[:m] for m in range(1, len(w) + 1) if w.find(w[:m], 1) < 0), None)


def periodicity_length(w, max_len, top=None):
    """The first saturated n with at most n distinct length-n factors, or
    None; the saturated lengths are those of ``adjacent_verdict``."""
    for n in range(1, max_len + 1):
        if (n <= top if top is not None else saturated(w, n)) and len(distinct_factors(w, n)) <= n:
            return n
    return None


def mechanical_prefix(a, rho, n):
    """Letter i is floor((i+1)a + rho) - floor(ia + rho), a and rho Fractions:
    the floors of the exact running sums rho, rho + a, rho + 2a, ..."""
    x, floors = rho, [math.floor(rho)]
    for _ in range(n):
        x += a
        floors.append(math.floor(x))
    return "".join(str(g - f) for f, g in zip(floors, floors[1:]))


def mechanical_letter(a, rho, i):
    """Letter i alone, floor((i+1)a + rho) - floor(ia + rho), in Fractions."""
    return str(math.floor((i + 1) * a + rho) - math.floor(i * a + rho))


def rotation_factors(p, period, a, b, n):
    """The length-n factors of ``mech:p/period@a/b`` in the order of the
    points they code, read off the rotation and not off any window.

    The factor at position i (0 <= i < period) codes the point
    x / (period b), x = (i p b + a period) mod period b, and its k-th letter
    is floor((x + (k+1) p b) / (period b)) - floor((x + k p b) / (period b)).
    The coding never decreases with the point (Lothaire ch. 2), so the
    list, a point's factor kept only when it differs from the one before,
    is L_n in lex order; that is for the caller to check."""
    m, step = period * b, p * b
    points = sorted((i * step + a * period) % m for i in range(period))
    out = []
    for x in points:
        v = "".join(str((x + (k + 1) * step) // m - (x + k * step) // m) for k in range(n))
        if not out or out[-1] != v:
            out.append(v)
    return out


def cut_point_factors(p, period, n):
    """The length-n factors of ``mech:p/period@r``, in lex order, from the
    n + 1 cut points of the rotation, and not from any window.

    Letter k of the factor at position i is 1 exactly when (y + kp) mod
    period >= period - p, y = (ip + r) mod period, and y takes every residue.
    As y grows, letter k changes only where y crosses -kp or -(k+1)p mod
    period, so the n + 1 points (-jp) mod period, j = 0..n, cut the residues
    into runs of one factor each, and the coding never decreases with y."""
    cuts = sorted({-j * p % period for j in range(n + 1)})
    code = lambda y: "".join(str(int((y + k * p) % period >= period - p)) for k in range(n))
    return [code(y) for y in cuts]


def morphic_prefix(rules, seed, n):
    """Apply the substitution letter by letter to the whole word until it
    holds n letters."""
    w = seed
    while len(w) < n:
        w = "".join(rules[c] for c in w)
    return w[:n]
