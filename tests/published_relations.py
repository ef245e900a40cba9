"""The published shuffle relation lists of the Novikov, Lie,
Gelfand-Dorfman and weak-special operads, kept verbatim as test fixtures.

The package builds every preset from its defining identities
(``presentation.symmetric_to_shuffle``); these lines are the independent
record it is checked against.  The Novikov, Jacobi and mixed lines coincide
term for term with the converted orbits.  The degree-4 special lines are the
orbits reduced modulo consequences of the cubic relations, so only the ideal
they generate with the cubic relations is the same.
"""

NOVIKOV_RELATION_LINES = (
    "x(x(1 2) 3) - x(1 x(2 3)) - x(y(1 2) 3) + y(x(1 3) 2)",
    "x(x(1 3) 2) - x(1 y(2 3)) - x(y(1 3) 2) + y(x(1 2) 3)",
    "y(1 x(2 3)) - y(y(1 3) 2) - y(1 y(2 3)) + y(y(1 2) 3)",
    "x(x(1 2) 3) - x(x(1 3) 2)",
    "x(y(1 2) 3) - y(1 x(2 3))",
    "x(y(1 3) 2) - y(1 y(2 3))",
)

JACOBI_RELATION_LINE = "z(z(1 2) 3) - z(1 z(2 3)) - z(z(1 3) 2)"

MIXED_RELATION_LINES = (
    "z(1 x(2 3)) + z(y(1 2) 3) - x(z(1 2) 3) - y(1 z(2 3)) - y(z(1 3) 2)",
    "-z(x(1 3) 2) + z(x(1 2) 3) + x(z(1 2) 3) - x(z(1 3) 2) - x(1 z(2 3))",
    "-y(z(1 2) 3) + z(1 y(2 3)) + z(y(1 3) 2) - x(z(1 3) 2) + y(1 z(2 3))",
)

SPECIAL1_RELATION_LINES = (
    "z(1 x(x(2 3) 4)) - x(z(1 x(2 3)) 4) - x(z(1 x(2 4)) 3) + x(x(z(1 2) 3) 4)",
    "z(1 x(y(2 3) 4)) - x(z(1 y(2 3)) 4) - x(z(1 x(3 4)) 2) + x(x(z(1 3) 2) 4)",
    "z(1 y(2 y(3 4))) - x(z(1 y(3 4)) 2) - x(z(1 y(2 4)) 3) + x(x(z(1 4) 2) 3)",
    "-z(x(x(1 3) 4) 2) + x(z(x(1 3) 2) 4) + x(z(x(1 4) 2) 3) - x(x(z(1 2) 3) 4)",
    "-z(x(y(1 3) 4) 2) + x(z(y(1 3) 2) 4) - y(1 z(2 x(3 4))) + x(y(1 z(2 3)) 4)",
    "-z(x(y(1 4) 3) 2) + x(z(y(1 4) 2) 3) - y(1 z(2 y(3 4))) + x(y(1 z(2 4)) 3)",
    "-z(x(x(1 2) 4) 3) + x(z(x(1 2) 3) 4) + x(z(x(1 4) 3) 2) - x(x(z(1 3) 2) 4)",
    "-z(x(y(1 2) 4) 3) + x(z(y(1 2) 3) 4) + y(1 z(x(2 4) 3)) - y(1 x(z(2 3) 4))",
    "-z(x(y(1 4) 2) 3) + x(z(y(1 4) 3) 2) + y(1 z(y(2 4) 3)) + y(1 y(2 z(3 4)))",
    "-z(x(x(1 2) 3) 4) + x(z(x(1 2) 4) 3) + x(z(x(1 3) 4) 2) - x(x(z(1 4) 2) 3)",
    "-z(x(y(1 2) 3) 4) + x(z(y(1 2) 4) 3) + y(1 z(x(2 3) 4)) - x(y(1 z(2 4)) 3)",
    "-z(x(y(1 3) 2) 4) + x(z(y(1 3) 4) 2) + y(1 z(y(2 3) 4)) - x(y(1 z(3 4)) 2)",
)

SPECIAL2_RELATION_LINES = (
    "z(x(1 2) x(3 4)) - x(z(x(1 2) 3) 4) - x(z(1 x(3 4)) 2) + 2 x(x(z(1 3) 2) 4)"
    " + z(x(1 4) y(2 3)) - x(z(1 y(2 3)) 4) - x(z(x(1 4) 3) 2)",
    "z(x(1 3) x(2 4)) - x(z(1 x(2 4)) 3) - x(z(x(1 3) 2) 4) + 2 x(x(z(1 2) 3) 4)"
    " + z(x(1 4) x(2 3)) - x(z(1 x(2 3)) 4) - x(z(x(1 4) 2) 3)",
    "z(y(1 2) y(3 4)) - y(1 z(2 y(3 4))) - x(z(y(1 2) 4) 3) + 2 y(1 x(z(2 4) 3))"
    " - z(y(1 4) x(2 3)) + x(z(y(1 4) 2) 3) - y(1 z(x(2 3) 4))",
    "z(y(1 2) x(3 4)) - y(1 z(2 x(3 4))) - x(z(y(1 2) 3) 4) + 2 y(1 x(z(2 3) 4))"
    " - z(y(1 3) x(2 4)) + x(z(y(1 3) 2) 4) - y(1 z(x(2 4) 3))",
    "z(y(1 3) y(2 4)) + y(1 z(y(2 4) 3)) - x(z(y(1 3) 4) 2) + 2 y(1 y(2 z(3 4)))"
    " - z(y(1 4) y(2 3)) - y(1 z(y(2 3) 4)) + x(z(y(1 4) 3) 2)",
    "z(x(1 2) y(3 4)) - x(z(1 y(3 4)) 2) - x(z(x(1 2) 4) 3) + 2 x(x(z(1 4) 2) 3)"
    " + z(x(1 3) y(2 4)) - x(z(x(1 3) 4) 2) - x(z(1 y(2 4)) 3)",
)
