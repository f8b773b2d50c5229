"""Truncated Taylor arithmetic ("jets"), after Griewank & Walther,
Evaluating Derivatives, 2nd ed. 2008, ch. 13.  A Jet holds the
coefficients c_n = f^(n)(t) / n!, n <= K, of a function at an array of
points t, and sums, products, powers and exp carry them through

    (a b)_n = sum_{j<=n} a_j b_{n-j},
    u = a^p:  n a_0 u_n = sum_{1<=j<=n} (p j - n + j) a_j u_{n-j},
    u = e^a:  n u_n = sum_{1<=j<=n} j a_j u_{n-j}.
"""

import math

import numpy as np

DERIV_MAX_ORDER = 8


class Jet:
    def __init__(self, c):
        self.c = c   # shape (K + 1,) + points shape

    def __add__(self, other):   # other: a Jet or a constant
        if isinstance(other, Jet):
            return Jet(self.c + other.c)
        c = self.c.copy()
        c[0] += other
        return Jet(c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.c)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        a, b = self.c, other.c   # other: a Jet
        return Jet(np.stack([sum(a[j] * b[n - j] for j in range(n + 1)) for n in range(len(a))]))

    def __pow__(self, p):
        a, u = self.c, [self.c[0] ** p]
        for n in range(1, len(a)):
            u.append(sum((p * j - n + j) * a[j] * u[n - j] for j in range(1, n + 1)) / (n * a[0]))
        return Jet(np.stack(u))

    def exp(self):
        a, u = self.c, [np.exp(self.c[0])]
        for n in range(1, len(a)):
            u.append(sum(j * a[j] * u[n - j] for j in range(1, n + 1)) / n)
        return Jet(np.stack(u))


def taylor_derivative(f, k: int, t) -> np.ndarray:
    """d^k f / dt^k at the points t: k! times c_k of the jet of f on complex t."""
    c = np.zeros((k + 1,) + np.shape(t), dtype=complex)
    c[0], c[1:2] = t, 1
    return math.factorial(k) * f(Jet(c)).c[k]
