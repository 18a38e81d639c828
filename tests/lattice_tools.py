"""Enumeration tools for the structural lemmas behind CAT_x, used by the
degree-table tests and the acceptance suite."""

import itertools

from pdmm.degrees import CatParameters, DegreeVectors, quadrants


def lattice_solutions(
    params: CatParameters,
    i_range: tuple[int, int],
    j_range: tuple[int, int],
) -> set[tuple[int, int]]:
    """All (i, j) in the inclusive rectangle with i*x = j*y (mod q), by enumeration."""
    q, x, y = params.q, params.x, params.y
    return {
        (i, j)
        for i in range(i_range[0], i_range[1] + 1)
        for j in range(j_range[0], j_range[1] + 1)
        if (i * x - j * y) % q == 0
    }


def lattice_span_mod_q(params: CatParameters) -> set[tuple[int, int]]:
    """The lattice generated by (-t_bar, k_star) and (l_star, t_bar), reduced mod q."""
    q = params.q
    return {
        ((-a * params.t_bar + b * params.l_star) % q, (a * params.k_star + b * params.t_bar) % q)
        for a, b in itertools.product(range(q), repeat=2)
    }


def quadrant_intersections(dv: DegreeVectors) -> tuple[int, int]:
    """(|TR ∩ BR|, |BL ∩ BR|) by direct set intersection."""
    qs = quadrants(dv)
    return (len(qs.tr & qs.br), len(qs.bl & qs.br))
