"""Zeros of the special polynomials P_{n+1}, Q_{n+1}.

Both b_1 and Q_{n+1} are reciprocal (palindromic coefficients), so nonzero
roots come in inversion pairs z, 1/conj(z) with respect to the unit circle,
and real coefficients pair them across the real axis as well. This script
verifies the symmetries and writes the root CSVs for the two figure cases
(n = 25 and n = 28) next to itself; any plotting tool reproduces the pictures
from them.
"""

import csv
import os

from isolab import (pq_polynomials, polynomial_triple, polynomial_zeros,
                    coefficient_list, is_palindromic)

print("coefficient palindromes for n up to 50 (n not divisible by 3):")
bad = [n for n in range(1, 51) if n % 3
       and not (is_palindromic(coefficient_list(polynomial_triple(n)[0]))
                and is_palindromic(coefficient_list(pq_polynomials(n)[1])))]
print("  violations:", bad or "none")

here = os.path.dirname(os.path.abspath(__file__))
for n in (25, 28):
    P, Q = pq_polynomials(n)
    path = os.path.join(here, f"zeros_n{n}.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["poly_id", "degree", "re", "im",
                         "conj_paired", "inversion_paired"])
        for name, poly in ((f"P{n+1}", P), (f"Q{n+1}", Q)):
            rep = polynomial_zeros(poly)
            on_circle = sum(1 for z in rep.roots if abs(abs(z) - 1) < 1e-6)
            print(f"  {name}: {rep.degree} roots, {on_circle} on the unit "
                  f"circle, conj-paired: {rep.all_conj_paired()}, "
                  f"inversion-paired: {rep.all_inversion_paired()}")
            for z, cj, inv in zip(rep.roots, rep.conj_paired,
                                  rep.inversion_paired):
                writer.writerow([name, rep.degree, repr(z.real), repr(z.imag),
                                 cj, inv])
    print(f"  wrote {path}")

print("\nsame export through the command line: isolab zeros --n 25")
