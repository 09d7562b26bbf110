"""Integer polynomial arithmetic that only the tests need.  IntPoly is a value
without operators, so test inputs such as products of factors are built here
on coefficient sequences, lowest degree first."""

from sl2ab.polyarith import IntPoly


def product(*factors) -> IntPoly:
    """The product of the factors, each an IntPoly or a coefficient sequence;
    the empty product is 1."""
    out = [1]
    for f in factors:
        cs = getattr(f, "coeffs", f)
        acc = [0] * (len(out) + len(cs) - 1) if cs else []
        for i, a in enumerate(out):
            if a:
                for j, b in enumerate(cs):
                    acc[i + j] += a * b
        out = acc
    return IntPoly(out)


def combination(*terms) -> IntPoly:
    """The sum of c f over the pairs (c, f), f an IntPoly or a coefficient
    sequence."""
    out: list[int] = []
    for c, f in terms:
        cs = getattr(f, "coeffs", f)
        out += [0] * (len(cs) - len(out))
        for i, b in enumerate(cs):
            out[i] += c * b
    return IntPoly(out)


def shift(f, k) -> IntPoly:
    """f(x + k), by Horner's rule."""
    out = IntPoly(())
    for c in reversed(f.coeffs):
        out = combination((1, product(out, (k, 1))), (c, [1]))
    return out
