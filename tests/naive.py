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


def adjacent_verdict(w, max_len, pair_ok):
    """(status, violation length or None, pair or None) for a property of
    adjacent sorted factor pairs, same scan order as the real checks."""
    skipped = False
    for n in range(1, max_len + 1):
        if not saturated(w, n):
            skipped = True
            continue
        fs = distinct_factors(w, n)
        for v, vp in zip(fs, fs[1:]):
            if not pair_ok(v, vp):
                return "Violated", n, (v, vp)
    if skipped:
        return "Indeterminate", None, None
    return "ConsistentUpTo", None, None


def nfop_verdict(w, max_len, variant=3):
    return adjacent_verdict(w, max_len, lambda v, vp: nfop_pair_ok(v, vp, variant))


def hamming2_verdict(w, max_len):
    return adjacent_verdict(w, max_len, lambda v, vp: hamming(v, vp) <= 2)


def ones_verdict(w, max_len):
    return adjacent_verdict(w, max_len, lambda v, vp: v.count("1") <= vp.count("1"))


def minimal_imbalance(w, max_len):
    """(u, (0u0, 1u1)) for the shortest then lex-least u, or None."""
    for m in range(2, max_len + 1):
        candidates = [""] if m == 2 else distinct_factors(w, m - 2)
        for u in candidates:
            lo, hi = "0" + u + "0", "1" + u + "1"
            if lo in w and hi in w:
                return u, (lo, hi)
    return None


def balance_verdict(w, max_len):
    """(status, pair) matching the real check's outcome fields."""
    hit = minimal_imbalance(w, max_len)
    if hit is None:
        return "ConsistentUpTo", None
    return "Violated", hit[1]


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


def mechanical_prefix(a, rho, n):
    """Letter i is floor((i+1)a + rho) - floor(ia + rho), a and rho Fractions."""
    return "".join(
        str(math.floor((i + 1) * a + rho) - math.floor(i * a + rho)) for i in range(n)
    )


def morphic_prefix(rules, seed, n):
    """Apply the substitution letter by letter to the whole word until it
    holds n letters."""
    w = seed
    while len(w) < n:
        w = "".join(rules[c] for c in w)
    return w[:n]
