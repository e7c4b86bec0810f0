"""The one sparse factorization policy of the solver.

Every factored matrix arrives already in the nested-dissection order of its
grid (``grid.nested_dissection``), so SuperLU keeps the natural column order.
``state`` makes every factorization through ``splu`` below, which sits
outside the layers that ``perfbench/tracing.py`` wraps, so a traced run
times a factorization once, as ``splu.factor``.
"""

from __future__ import annotations

import scipy.sparse.linalg as spla

# SuperLU settings per operator kind.
#
# ``ch``: the nonsymmetric Cahn-Hilliard block Jacobian, with partial pivoting.
# ``spd``: the nutrient operator K + kappa Mb + P^T diag(w (lambda_c h + B)) P
# + (beta/tau) M and its constant part, the mass matrix and the reduced
# elasticity block.  They are symmetric positive definite (A1 keeps every
# nutrient term non-negative and one of them definite; C is positive definite
# and the pinned edge removes the rigid motions), so diagonal pivots in a
# symmetric ordering are stable.
SPLU_OPTIONS = {
    "ch": dict(permc_spec="NATURAL", diag_pivot_thresh=1.0),
    "spd": dict(permc_spec="NATURAL", diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True)),
}


def splu(A, kind: str, sized: bool = True):
    """Factor ``A`` by the policy of ``kind``.

    ``sized`` factors with SuperLU's incomplete-LU routine dropping nothing,
    which gives the same L and U in storage that grows from nnz(A) as the
    fill needs it.  The complete routine allocates about 20 nnz(A) up front
    (25.9 MiB for the 1.9 MiB of L + U of a 32x32 Cahn-Hilliard factor) but
    factors about a third faster, so the factors a ``System`` makes once at
    set-up use it.
    """
    if sized:
        return spla.spilu(A, drop_tol=0.0, drop_rule="basic", fill_factor=1.0,
                          **SPLU_OPTIONS[kind])
    return spla.splu(A, **SPLU_OPTIONS[kind])
