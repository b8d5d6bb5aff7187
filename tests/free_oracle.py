"""Independent multiplication oracle: string rewriting in the free algebra.

Words over {x, y, z} with rational coefficients are rewritten with the four
defining relations until every word has all z's on the left followed by a
pure power of x or of y.  This shares no code with the normal-form product
in gwadeform.core.
"""
from fractions import Fraction

from gwadeform.core import GwaElement, GwaParams


def _rewrite_step(params: GwaParams, word: str):
    """Return list of (coeff, word) replacing the leftmost redex, or None."""
    lam, eta = params.lam, params.eta
    for i in range(len(word) - 1):
        pair = word[i:i + 2]
        a, b = word[:i], word[i + 2:]
        if pair == "xz":
            out = [(lam, a + "zx" + b)]
            if eta:
                out.append((eta, a + "x" + b))
            return out
        if pair == "yz":
            out = [(Fraction(1) / lam, a + "zy" + b)]
            if eta:
                out.append((Fraction(-eta) / lam, a + "y" + b))
            return out
        if pair == "xy":
            return [(c, a + "z" * k + b)
                    for k, c in enumerate(params.phi_bar.coeffs) if c != 0]
        if pair == "yx":
            return [(c, a + "z" * k + b)
                    for k, c in enumerate(params.phi.coeffs) if c != 0]
    return None


def oracle_normalize(params: GwaParams, combo: dict) -> GwaElement:
    """Rewrite a {word: coeff} combination to a normal-form GwaElement."""
    work = dict(combo)
    done: dict[str, Fraction] = {}
    while work:
        word, c = work.popitem()
        if c == 0:
            continue
        step = _rewrite_step(params, word)
        if step is None:
            done[word] = done.get(word, Fraction(0)) + c
        else:
            for cw, w in step:
                work[w] = work.get(w, Fraction(0)) + c * cw
    terms = {}
    for word, c in done.items():
        p = word.count("z")
        q = word.count("x") - word.count("y")
        assert word == "z" * p + ("x" * q if q >= 0 else "y" * (-q)), word
        terms[(p, q)] = terms.get((p, q), Fraction(0)) + c
    return GwaElement(params, terms)


def mono_word(p: int, q: int) -> str:
    return "z" * p + ("x" * q if q >= 0 else "y" * (-q))


def oracle_multiply(params: GwaParams, pq1, pq2) -> GwaElement:
    """(z^p1 x_q1)(z^p2 x_q2) via rewriting."""
    word = mono_word(*pq1) + mono_word(*pq2)
    return oracle_normalize(params, {word: Fraction(1)})
