"""A fixed program that times the host, not ``homhopf``.

Usage: python3 -I perfbench/reference.py

It uses only the standard library, so no change to the package can move
it.  Its work resembles a short ``homhopf`` command: an interpreter start,
then exact matrix products over ``fractions.Fraction`` on nested tuples.
``run.py`` runs it between the timed processes and scales each time by
the reference's times around it, which cancels the drift of a shared
host's speed.
"""

from fractions import Fraction

N = 8
ROUNDS = 12


def main() -> None:
    a = tuple(tuple(Fraction((i * 7 + j * 3) % 5 - 2, 1 + (i + j) % 3) for j in range(N)) for i in range(N))
    m = a
    for _ in range(ROUNDS):
        m = tuple(
            tuple(sum((x * a[k][j] for k, x in enumerate(row) if x), Fraction(0)) for j in range(N)) for row in m
        )
        m = tuple(tuple(Fraction(x.numerator % 97, x.denominator % 89 + 1) for x in row) for row in m)
    if sum(sum(row) for row in m) < 0:  # keeps the result in use; never true
        raise SystemExit(1)


if __name__ == "__main__":
    main()
